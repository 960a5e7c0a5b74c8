"""Reference tree validators for differential tests.

These are the solving-condition validators as they were before
``subword_trees.trees`` replayed a tree over whole word sets: every word of
the universe (the slice for recognition, all 2^n words for membership) walks
every path it satisfies on its own, and the first word, in universe order,
that meets a wrongly labelled leaf or no leaf at all is the witness.  The
structural checks (positions, determinism, admissible labels) are separate
passes over ``DecisionTree.iter_nodes``, each run to completion before the
next, where the production validator derives them all from its one walk.

``reference_distinguishing_set_tree`` is the distinguishing-set tree as it
was built before ``builders.DistinguishingSetStrategy`` was expanded by
``materialize_strategy``: a top-down recursion over the chosen positions
whose leaves look their member up by the tuple of bits read.
"""

from __future__ import annotations

from typing import Callable, Iterator

from subword_trees.builders import MAX_EXACT_DISTINGUISHING
from subword_trees.dimensions import slice_size_bound
from subword_trees.language import Language, all_words
from subword_trees.oracle import greedy_hitting_set, min_hitting_set
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


def reference_distinguishing_set_tree(lang: Language, n: int, max_slice: int | None = None) -> DecisionTree:
    """Deterministic recognition tree reading one fixed distinguishing set.

    Picks a smallest position set separating every pair of slice words (exact
    search up to ``MAX_EXACT_DISTINGUISHING`` words, greedy pair cover beyond),
    then builds the complete tree that queries those positions in increasing
    order.  Leaves on paths matching no member carry the lexicographically least
    member.  This is the paper's constant-depth tree for languages whose slices
    stay bounded (classes 4 and 5).  Raises ``CapExceeded`` when the slice has
    more than ``max_slice`` words.
    """
    words = lang.slice(n, max_slice)
    if not words:
        return DecisionTree(())
    ints = [int(w, 2) for w in words]
    pair_masks = sorted(
        {ints[i] ^ ints[j] for i in range(len(ints)) for j in range(i + 1, len(ints))}
    )
    if len(words) <= MAX_EXACT_DISTINGUISHING:
        chosen = min_hitting_set(pair_masks)
    else:
        chosen = greedy_hitting_set(pair_masks)
    positions = sorted(n - b for b in range(n) if chosen >> b & 1)
    bound = slice_size_bound(lang)
    if bound is not None and len(positions) > bound * bound:
        raise AssertionError(
            f"distinguishing set larger than the squared slice bound for {lang.name}"
        )

    by_signature: dict[tuple[int, ...], str] = {}
    for w in words:
        by_signature[tuple(int(w[p - 1]) for p in positions)] = w

    def build(idx: int, sig: tuple[int, ...]):
        if idx == len(positions):
            return Leaf(by_signature.get(sig, words[0]))
        return Branch(
            positions[idx],
            tuple((bit, build(idx + 1, sig + (bit,))) for bit in (0, 1)),
        )

    return DecisionTree((build(0, ()),))
