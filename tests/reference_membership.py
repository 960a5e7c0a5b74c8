"""Reference membership oracles for differential tests.

These are the partial-assignment searches that ``subword_trees.oracle`` used
before it moved to truth tables: a minimax memoized on (assigned, values)
position masks that asks the slice automaton for consistent members and
non-members at every node, and a certificate-complexity scan over all 2^n
words built from exact hitting sets.  They are slow and independent of the
truth-table code, which is what makes them useful as ground truth.
"""

from __future__ import annotations

from subword_trees.language import Language
from subword_trees.oracle import (
    greedy_hitting_set,
    membership_certificate,
    min_hitting_set,
)
from subword_trees.trees import Branch, DecisionTree, Leaf


def reference_membership_minimax(lang: Language, n: int):
    """Returns (depth, choice per (assigned, values) masks, constancy lookup)."""
    aut = lang.automaton()
    memo: dict[tuple[int, int], int] = {}
    choices: dict[tuple[int, int], int] = {}
    kinds: dict[tuple[int, int], str] = {}

    def h(am: int, vm: int, assign: dict[int, int]) -> int:
        key = (am, vm)
        cached = memo.get(key)
        if cached is not None:
            return cached
        member_ok = aut.exists_consistent(n, assign, True)
        if not member_ok or not aut.exists_consistent(n, assign, False):
            memo[key] = 0
            kinds[key] = "1" if member_ok else "0"
            return 0
        best = None
        for p in range(1, n + 1):
            bit = 1 << (p - 1)
            if am & bit:
                continue
            d0 = h(am | bit, vm, {**assign, p: 0})
            if best is not None and 1 + d0 >= best:
                continue
            cand = 1 + max(d0, h(am | bit, vm | bit, {**assign, p: 1}))
            if best is None or cand < best:
                best = cand
                choices[key] = p
                if best == 1:
                    break
        memo[key] = best
        return best

    depth = h(0, 0, {})
    return depth, choices, kinds


def reference_membership_depth_det(lang: Language, n: int) -> int:
    return reference_membership_minimax(lang, n)[0]


def reference_optimal_membership_tree(lang: Language, n: int) -> DecisionTree:
    _, choices, kinds = reference_membership_minimax(lang, n)

    def build(am: int, vm: int):
        key = (am, vm)
        if key in kinds:
            return Leaf(kinds[key])
        p = choices[key]
        bit = 1 << (p - 1)
        return Branch(p, ((0, build(am | bit, vm)), (1, build(am | bit, vm | bit))))

    return DecisionTree((build(0, 0),))


def reference_membership_depth_nondet(lang: Language, n: int) -> int:
    """Largest over all 2^n words of the minimum certificate size.

    Members go through the lazy branch-and-bound of ``membership_certificate``;
    non-members reduce to a hitting set over their difference masks against
    the member list when that list is small, and fall back to the lazy search
    otherwise.
    """
    if not lang.obstructions:
        return 0  # complement empty: the answer is constant
    members = lang.slice(n)
    if not members:
        return 0  # empty slice: the answer is constant
    member_ints = [int(w, 2) for w in members]
    best = 0
    for w in members:
        if best == n:
            return best
        best = max(best, len(membership_certificate(lang, n, w, max_n=n)))
    member_set = set(member_ints)
    use_masks = len(members) <= 1024
    for x in range(1 << n):
        if best == n:
            return best
        if x in member_set:
            continue
        if use_masks:
            masks = [x ^ m for m in member_ints]
            if greedy_hitting_set(masks).bit_count() <= best:
                continue
            best = max(best, min_hitting_set(masks).bit_count())
        else:
            w = format(x, f"0{n}b")
            best = max(best, len(membership_certificate(lang, n, w, max_n=n)))
    return best
