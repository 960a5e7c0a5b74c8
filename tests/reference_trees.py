"""Reference tree validators for differential tests.

These are the solving-condition validators as they were before
``subword_trees.trees`` replayed a tree over whole word sets: every word of
the universe (the slice for recognition, all 2^n words for membership) walks
every path it satisfies on its own, and the first word, in universe order,
that meets a wrongly labelled leaf or no leaf at all is the witness.  The
structural checks (positions, determinism, admissible labels) are separate
passes over ``DecisionTree.iter_nodes``, each run to completion before the
next, where the production validator derives them all from its one walk.
"""

from __future__ import annotations

from typing import Callable, Iterator

from subword_trees.language import Language, all_words
from subword_trees.trees import (
    BULLET_CONSISTENCY,
    BULLET_COVERAGE,
    BULLET_DETERMINISM,
    BULLET_LEAF_LABELS,
    DET,
    NONDET,
    Branch,
    DecisionTree,
    Leaf,
    Node,
    TreeFormatError,
    Violation,
)


def _check_positions(tree: DecisionTree, n: int) -> None:
    for node in tree.iter_nodes():
        if isinstance(node, Branch):
            if not 1 <= node.position <= n:
                raise TreeFormatError(
                    f"branch queries position {node.position}, outside 1..{n}"
                )
            if not node.edges:
                raise TreeFormatError("branch with no outgoing edges")
            for bit, _ in node.edges:
                if bit not in (0, 1):
                    raise TreeFormatError(f"edge bit {bit!r} is not 0 or 1")


def _determinism_violation(tree: DecisionTree) -> Violation | None:
    if len(tree.root_children) != 1:
        return Violation(
            BULLET_DETERMINISM,
            f"deterministic tree needs exactly one root child, found {len(tree.root_children)}",
        )
    for node in tree.iter_nodes():
        if isinstance(node, Branch):
            bits = [bit for bit, _ in node.edges]
            if len(bits) != len(set(bits)):
                return Violation(
                    BULLET_DETERMINISM,
                    f"branch at position {node.position} repeats an edge bit",
                )
    return None


def _matching_leaves(children: tuple[Node, ...], w: str) -> Iterator[Leaf]:
    stack = list(children)
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            yield node
        else:
            want = int(w[node.position - 1])
            for bit, child in node.edges:
                if bit == want:
                    stack.append(child)


def _validate(
    tree: DecisionTree,
    n: int,
    mode: str,
    universe: Iterator[str],
    label_of: Callable[[str], str],
    label_ok: Callable[[str], bool],
    empty_universe_ok: bool,
) -> Violation | None:
    if mode not in (DET, NONDET):
        raise ValueError(f"mode must be {DET!r} or {NONDET!r}, got {mode!r}")
    _check_positions(tree, n)
    if mode == DET and tree.root_children:
        bad = _determinism_violation(tree)
        if bad is not None:
            return bad
    if not tree.root_children:
        if empty_universe_ok:
            return None
        return Violation(BULLET_COVERAGE, "empty tree but the problem has words to solve")
    for node in tree.iter_nodes():
        if isinstance(node, Leaf) and not label_ok(node.label):
            return Violation(
                BULLET_LEAF_LABELS,
                f"terminal label {node.label!r} is not admissible",
                witness=node.label,
            )
    for w in universe:
        want = label_of(w)
        seen = False
        for leaf in _matching_leaves(tree.root_children, w):
            seen = True
            if leaf.label != want:
                return Violation(
                    BULLET_CONSISTENCY,
                    f"a path accepting {w!r} ends with label {leaf.label!r}, expected {want!r}",
                    witness=w,
                )
        if not seen:
            return Violation(
                BULLET_COVERAGE, f"no complete path accepts {w!r}", witness=w
            )
    return None


def reference_validate_recognition(
    tree: DecisionTree, lang: Language, n: int, mode: str = DET
) -> Violation | None:
    members = set(lang.slice(n))
    return _validate(
        tree,
        n,
        mode,
        iter(sorted(members)),
        label_of=lambda w: w,
        label_ok=lambda lab: lab in members,
        empty_universe_ok=not members,
    )


def reference_validate_membership(
    tree: DecisionTree, lang: Language, n: int, mode: str = DET
) -> Violation | None:
    return _validate(
        tree,
        n,
        mode,
        all_words(n),
        label_of=lambda w: "1" if lang.contains(w) else "0",
        label_ok=lambda lab: lab in ("0", "1"),
        empty_universe_ok=False,
    )
