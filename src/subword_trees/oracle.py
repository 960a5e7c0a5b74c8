"""Exact brute-force oracles for the four depth measures, plus depth profiles.

Recognition depths come from a memoized minimax over the consistent member
subsets reachable by splitting queries, and from exact hitting-set search for
the separating certificates.  The minimax stops a subset early once a split
meets a lower bound: ``ceil(log2 |S|)``, or the sensitivity of S, the most
Hamming neighbours inside S that one member has (a tree must query each
position whose flip stays in S; D >= s in the decision-tree literature).
Membership depths work on the truth table of the slice indicator, one big
int with a bit per length-n word: ``md`` is a minimax memoized on the
restricted subfunction, so partial assignments with equal restrictions share
one entry, and ``ma`` is the certificate complexity, found by one sweep over
sets of freed positions.  Single-word membership certificates come from a
lazy branch and bound over the slice automaton.  Everything here is
exhaustive and exact at desk scale; the caps raise ``CapExceeded`` rather
than silently approximating, and no ``max_n`` lifts membership past
``MAX_TABLE_N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .dimensions import MEASURES
from .language import Language
from .trees import Branch, DecisionTree, Leaf

MAX_BRUTE_N = 22
MAX_RECOGNITION_N = 16
MAX_SLICE = 4096
MAX_MEMBERSHIP_N = 14
MAX_TABLE_N = 20  # membership truth tables: 2^20 bits is 128 KiB, whatever max_n says


class CapExceeded(RuntimeError):
    """The requested instance exceeds the configured exhaustive-search caps."""


def brute_slice(lang: Language, n: int, max_n: int = MAX_BRUTE_N) -> list[str]:
    """Ground-truth slice: filter all 2^n words by the membership predicate.

    Deliberately independent of the counting automaton used by
    ``Language.slice``; this is the oracle the automaton is checked against.
    """
    if n > max_n:
        raise CapExceeded(f"brute_slice capped at n <= {max_n}, got {n}")
    if n == 0:
        return [""] if lang.contains("") else []
    return [w for i in range(1 << n) if lang.contains(w := format(i, f"0{n}b"))]


# ---------------------------------------------------------------------------
# exact minimum hitting set (positions encoded as bits of an int)


def greedy_hitting_set(masks: list[int]) -> int:
    """Most-frequent-bit greedy cover; an upper bound for the exact search."""
    remaining = [m for m in masks if m]
    chosen = 0
    while remaining:
        freq: dict[int, int] = {}
        for m in remaining:
            while m:
                b = m & -m
                freq[b] = freq.get(b, 0) + 1
                m ^= b
        bit = max(sorted(freq), key=freq.get)
        chosen |= bit
        remaining = [m for m in remaining if not m & bit]
    return chosen


def min_hitting_set(masks: list[int], upper: int | None = None) -> int:
    """Smallest bit set intersecting every mask, by branch and bound.

    Branches over the allowed bits of a smallest uncovered mask, excluding
    already-branched bits on later siblings.  ``upper`` (a bit count) prunes
    the search when only solutions at most that large matter; the fallback
    return is then the greedy set.
    """
    masks = [m for m in masks if m]
    if not masks:
        return 0
    # drop strict supersets: hitting a subset hits them for free
    masks = sorted(set(masks), key=lambda m: m.bit_count())
    kept: list[int] = []
    for m in masks:
        if not any(k & m == k for k in kept):
            kept.append(m)
    masks = kept
    best = greedy_hitting_set(masks)
    best_size = best.bit_count()
    if upper is not None and upper < best_size:
        best_size = upper + 1

    def dfs(chosen: int, count: int, excluded: int) -> None:
        nonlocal best, best_size
        if count >= best_size:
            return
        pick = 0
        pick_bits = None
        for m in masks:
            if m & chosen:
                continue
            allowed = m & ~excluded
            if allowed == 0:
                return
            c = allowed.bit_count()
            if pick_bits is None or c < pick_bits:
                pick, pick_bits = allowed, c
                if c == 1:
                    break
        if pick_bits is None:
            best, best_size = chosen, count
            return
        exc = excluded
        while pick:
            b = pick & -pick
            pick ^= b
            dfs(chosen | b, count + 1, exc)
            exc |= b

    dfs(0, 0, 0)
    return best


# ---------------------------------------------------------------------------
# recognition: minimax over consistent member subsets


def _slice_ints(lang: Language, n: int) -> tuple[list[str], list[int]]:
    words = lang.slice(n)
    return words, [int(w, 2) for w in words]


def _check_recognition_caps(lang, n, max_n, max_slice):
    if not 1 <= n <= max_n:
        raise CapExceeded(f"recognition oracle capped at 1 <= n <= {max_n}, got {n}")
    if lang.count_slice(n) > max_slice:
        raise CapExceeded(f"slice larger than {max_slice} words")


def _recognition_minimax(lang, n, max_n, max_slice):
    """Returns (words, optimal depth, split choice per subset bitmask, split masks).

    ``zero_mask[p]`` is the subset of slice indices whose word has a 0 at
    0-based position p, so querying p splits S into ``S & zero_mask[p]`` and
    the rest.  The search over S stops once a split meets a lower bound: first
    ``ceil(log2 |S|)``, and, once the first splitting position has missed that,
    the sensitivity of S, the largest number of Hamming neighbours a member
    of S has inside S.  A tree that tells w apart from the rest of S must query
    every position whose flip keeps the word in S, so the bound is valid.
    Positions are tried in ascending order and only a strictly better one
    replaces the current choice, so the replayed tree queries the first
    optimal position at every node.
    """
    _check_recognition_caps(lang, n, max_n, max_slice)
    words, ints = _slice_ints(lang, n)
    k = len(words)
    choices: dict[int, int] = {}
    zero_mask = [0] * n
    for idx, x in enumerate(ints):
        for p in range(n):
            if not x >> (n - 1 - p) & 1:
                zero_mask[p] |= 1 << idx
    if k <= 1:
        return words, 0, choices, zero_mask
    memo: dict[int, int] = {}
    nbr: list[int] = []  # nbr[i]: the slice indices at Hamming distance 1 from word i
    max_degree = 0

    def raise_lower(S: int, lower: int, cap: int) -> int:
        """max(lower, sensitivity of S), stopping early once it reaches cap."""
        nonlocal max_degree
        if not nbr:  # built on first use: slices where log2 is tight never need it
            index = {x: idx for idx, x in enumerate(ints)}
            for x in ints:
                nbr.append(sum(1 << j for p in range(n) if (j := index.get(x ^ 1 << p)) is not None))
            max_degree = max(m.bit_count() for m in nbr)
        if max_degree <= lower:
            return lower  # no subset of this slice is more sensitive than that
        members = bin(S)[:1:-1]  # bit i of S is members[i]
        i = members.find("1")
        while i >= 0 and lower < cap:
            lower = max(lower, (nbr[i] & S).bit_count())
            i = members.find("1", i + 1)
        return lower

    def h(S: int) -> int:
        if S & (S - 1) == 0:
            return 0
        cached = memo.get(S)
        if cached is not None:
            return cached
        lower = (S.bit_count() - 1).bit_length()  # ceil(log2 |S|)
        best = None
        for p in range(n):
            s0 = S & zero_mask[p]
            if not s0 or s0 == S:
                continue  # non-splitting queries gain nothing
            s1 = S ^ s0
            d0 = h(s0)
            if best is not None and 1 + d0 >= best:
                continue
            cand = 1 + max(d0, h(s1))
            if best is None or cand < best:
                if best is None and cand > lower:
                    lower = raise_lower(S, lower, cand)
                best = cand
                choices[S] = p
                if best == lower:
                    break
        memo[S] = best
        return best

    return words, h((1 << k) - 1), choices, zero_mask


def recognition_depth_det(
    lang: Language, n: int, max_n: int = MAX_RECOGNITION_N, max_slice: int = MAX_SLICE
) -> int:
    """Minimum depth of a deterministic tree recognizing the slice (exact)."""
    return _recognition_minimax(lang, n, max_n, max_slice)[1]


def optimal_recognition_tree(
    lang: Language, n: int, max_n: int = MAX_RECOGNITION_N, max_slice: int = MAX_SLICE
) -> DecisionTree:
    """Depth-optimal deterministic recognition tree, replayed from the minimax."""
    words, _, choices, zero_mask = _recognition_minimax(lang, n, max_n, max_slice)
    if not words:
        return DecisionTree(())

    def build(S: int):
        if S & (S - 1) == 0:
            return Leaf(words[S.bit_length() - 1])
        p = choices[S]
        s0 = S & zero_mask[p]
        return Branch(p + 1, ((0, build(s0)), (1, build(S ^ s0))))

    return DecisionTree((build((1 << len(words)) - 1),))


def _difference_masks(ints: list[int], i: int) -> list[int]:
    x = ints[i]
    return [x ^ y for j, y in enumerate(ints) if j != i]


def recognition_certificates(
    lang: Language, n: int, max_n: int = MAX_RECOGNITION_N, max_slice: int = MAX_SLICE
) -> dict[str, tuple[int, ...]]:
    """Exact minimum separating position set for every slice word."""
    _check_recognition_caps(lang, n, max_n, max_slice)
    words, ints = _slice_ints(lang, n)
    out: dict[str, tuple[int, ...]] = {}
    for i, w in enumerate(words):
        chosen = min_hitting_set(_difference_masks(ints, i))
        out[w] = tuple(sorted(n - b for b in range(n) if chosen >> b & 1))
    return out


def recognition_depth_nondet(
    lang: Language, n: int, max_n: int = MAX_RECOGNITION_N, max_slice: int = MAX_SLICE
) -> int:
    """Largest over slice words of the minimum separating-set size (exact)."""
    _check_recognition_caps(lang, n, max_n, max_slice)
    _, ints = _slice_ints(lang, n)
    best = 0
    for i in range(len(ints)):
        if best == n:
            break  # no certificate can need more than every position
        masks = _difference_masks(ints, i)
        if greedy_hitting_set(masks).bit_count() <= best:
            continue  # its minimum certainly cannot raise the maximum
        best = max(best, min_hitting_set(masks).bit_count())
    return best


# ---------------------------------------------------------------------------
# membership: truth tables of the slice indicator
#
# The indicator of the length-n slice is one big int with bit x set iff
# format(x, f"0{n}b") is a member, so position p is index bit n - p.  A
# subfunction over k free positions is a 2^k-bit table of the same shape: its
# i-th free position (ascending) is index bit k - 1 - i.


def _check_membership_caps(n, max_n):
    cap = min(max_n, MAX_TABLE_N)
    if not 1 <= n <= cap:
        raise CapExceeded(f"membership oracle capped at 1 <= n <= {cap}, got {n}")


def _truth_table(lang: Language, n: int) -> int:
    table = bytearray(max(1, (1 << n) >> 3))
    for w in lang.iter_slice(n):
        x = int(w, 2)
        table[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(table, "little")


@lru_cache(maxsize=None)  # one entry per table width k <= MAX_TABLE_N
def _index_masks(k: int) -> tuple[int, ...]:
    """masks[j]: the bits of a 2^k-bit table whose index has bit j clear."""
    ones = (1 << (1 << k)) - 1
    return tuple(((1 << (1 << j)) - 1) * (ones // ((1 << (2 << j)) - 1)) for j in range(k))


def _cofactor(t: int, masks: tuple[int, ...], j: int, bit: int) -> int:
    """The subtable of ``t`` with index bit j fixed to ``bit``, over the other bits.

    One shift and one mask select the half, then a log-step compaction merges
    neighbouring blocks into blocks twice as long until the gaps are gone.
    """
    t = (t >> (bit << j)) & masks[j]
    for i in range(j + 1, len(masks)):
        t = (t | t >> (1 << (i - 1))) & masks[i]
    return t


def _membership_minimax(lang: Language, n: int, max_n: int):
    """Returns (truth table, optimal depth, choice per subfunction).

    The memo key is ``(k, table)`` for a subfunction over k free positions, so
    assignments with equal restrictions share one entry.  A choice is an index
    into the free positions; candidates are tried in ascending order and only
    a strictly better one replaces the current choice, so the replayed tree
    queries the first optimal position at every node.
    """
    _check_membership_caps(n, max_n)
    ones = [(1 << (1 << k)) - 1 for k in range(n + 1)]
    memo: dict[tuple[int, int], int] = {}
    choices: dict[tuple[int, int], int] = {}

    def h(k: int, t: int) -> int:
        if t == 0 or t == ones[k]:
            return 0
        key = (k, t)
        cached = memo.get(key)
        if cached is not None:
            return cached
        masks = _index_masks(k)
        best = None
        for i in range(k):
            j = k - 1 - i
            if not (t ^ t >> (1 << j)) & masks[j]:
                continue  # t does not depend on this position
            d0 = h(k - 1, _cofactor(t, masks, j, 0))
            if best is not None and 1 + d0 >= best:
                continue
            cand = 1 + max(d0, h(k - 1, _cofactor(t, masks, j, 1)))
            if best is None or cand < best:
                best = cand
                choices[key] = i
                if best == 1:
                    break
        memo[key] = best
        return best

    table = _truth_table(lang, n)
    return table, h(n, table), choices


def membership_depth_det(lang: Language, n: int, max_n: int = MAX_MEMBERSHIP_N) -> int:
    """Minimum depth of a deterministic tree deciding slice membership (exact)."""
    return _membership_minimax(lang, n, max_n)[1]


def optimal_membership_tree(
    lang: Language, n: int, max_n: int = MAX_MEMBERSHIP_N
) -> DecisionTree:
    """Depth-optimal deterministic membership tree, replayed from the minimax."""
    table, _, choices = _membership_minimax(lang, n, max_n)

    def build(free: tuple[int, ...], t: int):
        k = len(free)
        i = choices.get((k, t))
        if i is None:  # only constant subfunctions have no choice
            return Leaf("1" if t else "0")
        j = k - 1 - i
        masks = _index_masks(k)
        rest = free[:i] + free[i + 1 :]
        return Branch(
            free[i], tuple((bit, build(rest, _cofactor(t, masks, j, bit))) for bit in (0, 1))
        )

    return DecisionTree((build(tuple(range(1, n + 1)), table),))


def membership_certificate(
    lang: Language,
    n: int,
    w: str,
    upper: int | None = None,
    max_n: int = MAX_MEMBERSHIP_N,
) -> tuple[int, ...]:
    """Exact minimum position set certifying the membership answer for ``w``.

    A set works when every word agreeing with ``w`` on it gets the same answer.
    Branch and bound with lazily generated counterexamples: each node asks the
    automaton for a word of the opposite class consistent with the positions
    chosen so far, then must include one of the differing positions.
    """
    _check_membership_caps(n, max_n)
    target = lang.contains(w)
    aut = lang.automaton()

    def find_witness(pos_mask: int) -> str | None:
        assign = {p: int(w[p - 1]) for p in range(1, n + 1) if pos_mask >> (p - 1) & 1}
        for p in range(1, n + 1):  # cheap near-miss scan first
            if pos_mask >> (p - 1) & 1:
                continue
            flipped = w[: p - 1] + ("1" if w[p - 1] == "0" else "0") + w[p:]
            if lang.contains(flipped) != target:
                return flipped
        return aut.find_consistent(n, assign, member=not target, prefer=w)

    # greedy pass for an upper bound: repeatedly pin the differing position
    # that leaves the fewest opposite-class words consistent
    greedy_mask = 0
    while True:
        u = find_witness(greedy_mask)
        if u is None:
            break
        candidates = [p for p in range(1, n + 1) if u[p - 1] != w[p - 1]]
        total = 2 ** (n - greedy_mask.bit_count() - 1)

        def opposite_count(p: int) -> int:
            mask = greedy_mask | 1 << (p - 1)
            assign = {q: int(w[q - 1]) for q in range(1, n + 1) if mask >> (q - 1) & 1}
            members = aut.count_consistent(n, assign)
            return members if not target else total - members

        greedy_mask |= 1 << (min(candidates, key=opposite_count) - 1)

    best_mask = greedy_mask
    best_size = greedy_mask.bit_count()
    if upper is not None and upper < best_size:
        best_size = upper + 1

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


def membership_depth_nondet(lang: Language, n: int, max_n: int = MAX_MEMBERSHIP_N) -> int:
    """Largest over all 2^n words of the minimum certificate size (exact).

    A certificate of size n - l for x is a subcube through x with l freed
    positions on which the indicator is constant.  One depth-first sweep
    visits the sets of freed positions in increasing index order, carrying the
    AND and the OR of the table over each subcube; an input is covered when
    its subcube is all members or has none.  Freeing more positions only
    shrinks the covered set, so a branch ends once it is empty.  The answer is
    n - max{l : every input is covered by some set of l freed positions}.
    """
    _check_membership_caps(n, max_n)
    table = _truth_table(lang, n)
    ones = (1 << (1 << n)) - 1
    if table == 0 or table == ones:
        return 0  # the answer is constant
    masks = _index_masks(n)
    covered_by_size = [0] * (n + 1)

    def sweep(start: int, size: int, all_in: int, any_in: int) -> None:
        covered = all_in | (any_in ^ ones)
        if not covered:
            return
        covered_by_size[size] |= covered
        for j in range(start, n):
            s = 1 << j
            a = all_in & (all_in >> s) & masks[j]
            o = (any_in | any_in >> s) & masks[j]
            sweep(j + 1, size + 1, a | a << s, o | o << s)

    sweep(0, 0, table, table)
    return n - max(size for size, c in enumerate(covered_by_size) if c == ones)


# ---------------------------------------------------------------------------
# depth profiles

EXACT = "EXACT"
CONSTRUCTED = "CONSTRUCTED"
SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class ProfileRow:
    n: int
    values: dict[str, int | None]
    sources: dict[str, str]


@dataclass(frozen=True)
class DepthProfile:
    name: str
    rows: list[ProfileRow]


def _constructed_rd(lang: Language, n: int, sim_cap: int) -> int | None:
    """Measured worst-case query count of the block strategy over the slice."""
    from .builders import BuilderPreconditionError, block_recognition_strategy, worst_case_queries

    try:
        strategy = block_recognition_strategy(lang, n)
    except BuilderPreconditionError:
        return None
    return worst_case_queries(lang, strategy, sim_cap)


def depth_profile(
    lang: Language,
    lo: int,
    hi: int,
    measures: tuple[str, ...] = MEASURES,
    allow_constructed: bool = False,
    max_recognition_n: int = MAX_RECOGNITION_N,
    max_slice: int = MAX_SLICE,
    max_membership_n: int = MAX_MEMBERSHIP_N,
    sim_cap: int = MAX_SLICE,
) -> DepthProfile:
    """Per-n table of the four depth measures with per-cell provenance.

    Cells are EXACT while the oracle caps allow; past the caps, the ``rd``
    column may be filled by simulating the constructive strategy (CONSTRUCTED)
    when ``allow_constructed`` is set, and everything else is SKIPPED.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"invalid range {lo}..{hi}")
    for m in measures:
        if m not in MEASURES:
            raise ValueError(f"unknown measure {m!r}; expected one of {MEASURES}")
    rows = []
    for n in range(lo, hi + 1):
        values: dict[str, int | None] = {}
        sources: dict[str, str] = {}
        for m in MEASURES:
            if m not in measures:
                values[m], sources[m] = None, SKIPPED
                continue
            try:
                if m == "rd":
                    v = recognition_depth_det(lang, n, max_recognition_n, max_slice)
                elif m == "ra":
                    v = recognition_depth_nondet(lang, n, max_recognition_n, max_slice)
                elif m == "md":
                    v = membership_depth_det(lang, n, max_membership_n)
                else:
                    v = membership_depth_nondet(lang, n, max_membership_n)
                values[m], sources[m] = v, EXACT
            except CapExceeded:
                if m == "rd" and allow_constructed:
                    v = _constructed_rd(lang, n, sim_cap)
                    if v is None:
                        values[m], sources[m] = None, SKIPPED
                    else:
                        values[m], sources[m] = v, CONSTRUCTED
                else:
                    values[m], sources[m] = None, SKIPPED
        rows.append(ProfileRow(n, values, sources))
    return DepthProfile(lang.name, rows)
