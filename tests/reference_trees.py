"""Reference tree validators for differential tests.

These are the solving-condition validators as they were before
``subword_trees.trees`` replayed a tree over whole word sets: every word of
the universe (the slice for recognition, all 2^n words for membership) walks
every path it satisfies on its own, and the first word, in universe order,
that meets a wrongly labelled leaf or no leaf at all is the witness.  The
structural checks (positions, determinism, admissible labels) are the
production ones; only the per-word replay is kept here.
"""

from __future__ import annotations

from typing import Callable, Iterator

from subword_trees.language import Language, all_words
from subword_trees.trees import (
    BULLET_CONSISTENCY,
    BULLET_COVERAGE,
    BULLET_LEAF_LABELS,
    DET,
    NONDET,
    DecisionTree,
    Leaf,
    Node,
    Violation,
    _check_positions,
    _determinism_violation,
)


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
