"""Reference membership oracles for differential tests.

These are the partial-assignment searches that ``subword_trees.oracle`` used
before it moved to truth tables: a minimax memoized on (assigned, values)
position masks that asks the slice automaton for consistent members and
non-members at every node; a single-word certificate branch and bound whose
witnesses and counts come from a brute filter of all 2^n words; and a
certificate-complexity scan over all 2^n words built from exact hitting sets
and that branch and bound.  They are slow and independent of the truth-table
code, which is what makes them useful as ground truth.
"""

from __future__ import annotations

from functools import lru_cache

from subword_trees.language import Language
from subword_trees.oracle import greedy_hitting_set, min_hitting_set
from subword_trees.trees import Branch, DecisionTree, Leaf

from reference_language import brute_slice


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


@lru_cache(maxsize=64)
def _brute_members(lang: Language, n: int) -> frozenset[int]:
    return frozenset(int(u, 2) for u in brute_slice(lang, n, max_n=n))


def reference_membership_certificate(lang: Language, n: int, w: str) -> tuple[int, ...]:
    """Exact minimum position set certifying the membership answer for ``w``.

    A set works when every word agreeing with ``w`` on it gets the same answer.
    Branch and bound with lazily found counterexamples: each node takes a word
    of the opposite class consistent with the positions chosen so far, then
    must include one of the differing positions.  A counterexample is the
    first free one-letter flip of ``w`` in the opposite class, else the
    consistent opposite-class word that agrees with ``w`` longest, reading
    from position 1.  Position sets are ints with bit p - 1 for position p.
    """
    members = _brute_members(lang, n)
    x = int(w, 2)
    target = x in members
    opposite = [y for y in range(1 << n) if (y in members) != target]

    def consistent(pos_mask: int) -> list[int]:
        pinned = sum(1 << (n - p) for p in range(1, n + 1) if pos_mask >> (p - 1) & 1)
        return [y for y in opposite if not (y ^ x) & pinned]

    def find_witness(pos_mask: int) -> str | None:
        for p in range(1, n + 1):  # cheap near-miss scan first
            if not pos_mask >> (p - 1) & 1 and ((x ^ 1 << (n - p)) in members) != target:
                return w[: p - 1] + ("1" if w[p - 1] == "0" else "0") + w[p:]
        matching = [format(y, f"0{n}b") for y in consistent(pos_mask)]
        return max(matching, key=lambda u: [a == b for a, b in zip(u, w)], default=None)

    # greedy pass for an upper bound: repeatedly pin the differing position
    # that leaves the fewest opposite-class words consistent
    greedy_mask = 0
    while (u := find_witness(greedy_mask)) is not None:
        candidates = [p for p in range(1, n + 1) if u[p - 1] != w[p - 1]]
        p = min(candidates, key=lambda p: len(consistent(greedy_mask | 1 << (p - 1))))
        greedy_mask |= 1 << (p - 1)

    best_mask = greedy_mask
    best_size = greedy_mask.bit_count()

    def dfs(pos_mask: int, count: int, excluded: int) -> None:
        nonlocal best_mask, best_size
        if count >= best_size:
            return
        u = find_witness(pos_mask)
        if u is None:
            best_mask, best_size = pos_mask, count
            return
        exc = excluded
        for p in range(1, n + 1):
            b = 1 << (p - 1)
            if u[p - 1] != w[p - 1] and not pos_mask & b and not exc & b:
                dfs(pos_mask | b, count + 1, exc)
                exc |= b

    dfs(0, 0, 0)
    return tuple(p for p in range(1, n + 1) if best_mask >> (p - 1) & 1)


def reference_membership_depth_nondet(lang: Language, n: int) -> int:
    """Largest over all 2^n words of the minimum certificate size.

    Members go through ``reference_membership_certificate``;
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
        best = max(best, len(reference_membership_certificate(lang, n, w)))
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
            best = max(best, len(reference_membership_certificate(lang, n, w)))
    return best
