"""Exact brute-force oracles for the four depth measures, plus depth profiles.

Recognition depths come from a memoized minimax over the consistent member
subsets reachable by splitting queries, and from the separating certificates:
sensitive positions first, hitting-set search as fallback.  A word's
certificate must hold every position whose flip stays in the slice, and those
positions alone almost always separate it.  The minimax bounds each subset S
from below by ``ceil(log2 |S|)`` or the sensitivity of S, the most Hamming
neighbours inside S that one member has (a tree must query each position
whose flip stays in S; D >= s in the decision-tree literature), and from
above by the number k of positions that split S.  Where the two meet, S is
certified: its depth is k, its first splitting position is optimal, and its
children are not searched.  Otherwise the search stops once a split meets
the lower bound.
Membership depths work on the truth table of the slice indicator, one big
int with a bit per length-n word: ``md`` is a minimax memoized on the
restricted subfunction, so partial assignments with equal restrictions share
one entry.  A subfunction over k free positions whose members of even and odd
weight differ in number has Fourier degree k, so its depth is k (D >= deg):
it is certified with free index 0 and its cofactors are not searched.
``ma`` is the certificate complexity, found by one sweep over sets of freed
positions that frees at most n - s(f) (C >= s), with the sensitivity s(f)
read from the table bit-sliced.  A certified node records the first optimal
query, the one a full search keeps, and the optimal trees ask the minimax
for each replayed node's choice, searching below a certified node only when
the replay reaches it, so each tree is the full search's, node for node.
Membership certificates for single words come from a branch and bound on the
same table: its witnesses and counts are the opposite class masked to a
subcube.  Everything here is exhaustive and exact
at desk scale; the caps raise ``CapExceeded`` rather than silently
approximating, ``max_n=None`` keeps each problem's default length cap, and no
``max_n`` lifts membership past ``MAX_TABLE_N``.  Depth profiles hold EXACT
and SKIPPED cells only; the CLI fills SKIPPED ``rd`` cells from the block
strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .dimensions import MEASURES
from .language import (
    MAX_SLICE,
    MAX_TABLE_N,
    CapExceeded,
    Language,
    agreeing,
    cube_splits,
    index_masks,
    require_word,
)
from .trees import Branch, DecisionTree, Leaf

MAX_RECOGNITION_N = 16
MAX_MEMBERSHIP_N = 14


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


def min_hitting_set(masks: list[int]) -> int:
    """Smallest bit set intersecting every mask, by branch and bound.

    Branches over the allowed bits of a smallest uncovered mask, excluding
    already-branched bits on later siblings; the greedy set is the first bound.
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


def _recognition_splits(lang, n, max_n, max_slice):
    """``lang.slice_splits(n, max_slice)`` once n is within the length cap."""
    if max_n is None:
        max_n = MAX_RECOGNITION_N
    if not 1 <= n <= max_n:
        raise CapExceeded(f"recognition oracle capped at 1 <= n <= {max_n}, got {n}")
    return lang.slice_splits(n, max_slice)


def _recognition_minimax(words, splits, n):
    """Returns (optimal depth, choice) over the slice table ``(words,
    splits)`` of length-n words; ``choice(S)`` is the 0-based position the
    optimal tree queries at a subset bitmask S of two or more words.

    Querying position p splits S into ``S & splits[p][0]`` and the rest.
    Each subset S has a lower bound: ``ceil(log2 |S|)`` or the sensitivity of
    S, the largest number of Hamming neighbours a member of S has inside S,
    whichever is larger.  A tree that tells w apart from the rest of S must
    query every position whose flip keeps the word in S, so the bound is
    valid.  The k positions that split S give an upper bound: querying them
    all tells the members apart.  When the bounds meet, S is certified with
    depth k and no child is searched; the first splitting position is
    optimal, since neither child has more than k - 1 splitting positions.
    Otherwise the search stops once a split meets the lower bound.
    Positions are tried in ascending order and only a strictly better one
    replaces the current choice, so every node queries the first optimal
    position, a function of S alone.  ``choice`` searches S on demand, so a
    tree replayed below a certified node is the one a full search records.
    """
    choices: dict[int, int] = {}
    memo: dict[int, int] = {}
    nbr: list[int] = []  # nbr[i]: the slice indices at Hamming distance 1 from word i
    max_degree = 0

    def raise_lower(S: int, lower: int, cap: int) -> int:
        """max(lower, sensitivity of S), stopping early once it reaches cap."""
        nonlocal max_degree
        if not nbr:  # built on first use: a full cube meets k with log2 alone
            for flips in _one_letter_flips([int(w, 2) for w in words], n):
                nbr.append(sum(1 << j for _, j in flips))
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
        cuts = []  # (p, S & zeros) for each position p that splits S
        for p, (zeros, _) in enumerate(splits):
            s0 = S & zeros
            if s0 and s0 != S:
                cuts.append((p, s0))
        k = len(cuts)
        lower = (S.bit_count() - 1).bit_length()  # ceil(log2 |S|)
        if lower < k:
            lower = raise_lower(S, lower, k)
        if lower == k:
            memo[S], choices[S] = k, cuts[0][0]
            return k
        best = None
        for p, s0 in cuts:
            d0 = h(s0)
            if best is not None and 1 + d0 >= best:
                continue
            cand = 1 + max(d0, h(S ^ s0))
            if best is None or cand < best:
                best = cand
                choices[S] = p
                if best == lower:
                    break
        memo[S] = best
        return best

    def choice(S: int) -> int:
        h(S)
        return choices[S]

    return h((1 << len(words)) - 1), choice


def recognition_depth_det(
    lang: Language, n: int, max_n: int | None = None, max_slice: int = MAX_SLICE
) -> int:
    """Minimum depth of a deterministic tree recognizing the slice (exact)."""
    words, splits = _recognition_splits(lang, n, max_n, max_slice)
    return _recognition_minimax(words, splits, n)[0]


def optimal_recognition_tree(
    lang: Language, n: int, max_n: int | None = None, max_slice: int = MAX_SLICE
) -> DecisionTree:
    """Depth-optimal deterministic recognition tree, replayed from the minimax."""
    words, splits = _recognition_splits(lang, n, max_n, max_slice)
    if not words:
        return DecisionTree(())
    choice = _recognition_minimax(words, splits, n)[1]

    def build(S: int):
        if S & (S - 1) == 0:
            return Leaf(words[S.bit_length() - 1])
        p = choice(S)
        s0 = S & splits[p][0]
        return Branch(p + 1, ((0, build(s0)), (1, build(S ^ s0))))

    return DecisionTree((build((1 << len(words)) - 1),))


def _one_letter_flips(ints: list[int], n: int) -> Iterator[list[tuple[int, int]]]:
    """For each word of ``ints`` in turn, the pairs (b, j) such that flipping
    index bit b of the word gives ``ints[j]``: one lookup per position."""
    index = {x: j for j, x in enumerate(ints)}
    for x in ints:
        yield [(b, j) for b in range(n) if (j := index.get(x ^ 1 << b)) is not None]


def _difference_masks(ints: list[int], i: int) -> list[int]:
    x = ints[i]
    return [x ^ y for j, y in enumerate(ints) if j != i]


def _recognition_certificates(
    words: list[str], splits: list[tuple[int, int]], n: int
) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Yields each word of the slice table ``(words, splits)`` of length-n
    words with its minimum separating position set.

    Sensitive positions first, hitting-set search as fallback.  Every
    certificate of w holds each position whose flip keeps w in the slice
    (C(f, x) >= s(f, x)), and those positions alone almost always separate
    w from the rest of the slice.  Then they are the answer, and it is the
    one ``min_hitting_set`` would return: every difference mask contains one
    of their singletons, so its superset pruning keeps only those, its greedy
    bound takes all of them and its search cannot do better.  Otherwise the
    word gets the exact search over all its difference masks.  A word with n
    sensitive positions skips the separation check: all n positions separate
    any word.
    """
    ints = [int(w, 2) for w in words]
    for i, flips in enumerate(_one_letter_flips(ints, n)):
        positions = [n - b for b, _ in reversed(flips)]
        if len(positions) < n and agreeing(words, splits, i, positions):
            chosen = min_hitting_set(_difference_masks(ints, i))
            positions = [n - b for b in range(n - 1, -1, -1) if chosen >> b & 1]
        yield words[i], tuple(positions)


def recognition_certificates(
    lang: Language, n: int, max_n: int | None = None, max_slice: int = MAX_SLICE
) -> dict[str, tuple[int, ...]]:
    """Exact minimum separating position set for every slice word, in slice
    order: sensitive positions first, hitting-set search as fallback."""
    words, splits = _recognition_splits(lang, n, max_n, max_slice)
    return dict(_recognition_certificates(words, splits, n))


def recognition_depth_nondet(
    lang: Language, n: int, max_n: int | None = None, max_slice: int = MAX_SLICE
) -> int:
    """Largest over slice words of the minimum separating-set size (exact):
    sensitive positions first, hitting-set search as fallback."""
    words, splits = _recognition_splits(lang, n, max_n, max_slice)
    return _largest_certificate(words, splits, n)


def _largest_certificate(words, splits, n):
    best = 0
    for _, positions in _recognition_certificates(words, splits, n):
        best = max(best, len(positions))
        if best == n:
            break  # no certificate can need more than every position
    return best


# ---------------------------------------------------------------------------
# membership: truth tables of the slice indicator
#
# The indicator of the length-n slice is one big int with bit x set iff
# format(x, f"0{n}b") is a member, so position p is index bit n - p.  A
# subfunction over k free positions is a 2^k-bit table of the same shape: its
# i-th free position (ascending) is index bit k - 1 - i.


def _membership_table(lang, n, max_n):
    """The slice truth table once n is within the length cap."""
    cap = min(MAX_MEMBERSHIP_N if max_n is None else max_n, MAX_TABLE_N)
    if not 1 <= n <= cap:
        raise CapExceeded(f"membership oracle capped at 1 <= n <= {cap}, got {n}")
    return lang.automaton().truth_table(n)


def _cofactor(t: int, masks: tuple[int, ...], j: int, bit: int) -> int:
    """The subtable of ``t`` with index bit j fixed to ``bit``, over the other bits.

    One shift and one mask select the half, then a log-step compaction merges
    neighbouring blocks into blocks twice as long until the gaps are gone.
    """
    t = (t >> (bit << j)) & masks[j]
    for i in range(j + 1, len(masks)):
        t = (t | t >> (1 << (i - 1))) & masks[i]
    return t


def _membership_minimax(lang: Language, n: int, max_n: int | None):
    """Returns (truth table, optimal depth, choice), where ``choice(k, t)``
    is the index into the free positions that the optimal tree queries at
    the subfunction t over k free positions, or None when t is constant.

    The memo key is ``(k, t)``, so assignments with equal restrictions share
    one entry.  A subfunction whose members of even and odd weight differ in
    number has a nonzero top Fourier coefficient, so its degree is k, and a
    depth-D tree computes a polynomial of degree at most D: it is certified
    with depth k and no cofactor is searched.  Every position then matters,
    and querying free index 0 first is optimal.  Otherwise candidates are
    tried in ascending order and only a strictly better one replaces the
    current choice, so every node queries the first optimal position, a
    function of t alone.  ``choice`` searches t on demand, so a tree replayed
    below a certified node is the one a full search records.
    """
    table = _membership_table(lang, n, max_n)
    ones = [(1 << (1 << k)) - 1 for k in range(n + 1)]
    even = [1]  # even[k]: the indices of a 2^k-bit table with even weight
    for k in range(n):
        even.append(even[k] | (even[k] ^ ones[k]) << (1 << k))
    memo: dict[tuple[int, int], int] = {}
    choices: dict[tuple[int, int], int] = {}

    def h(k: int, t: int) -> int:
        if t == 0 or t == ones[k]:
            return 0
        key = (k, t)
        cached = memo.get(key)
        if cached is not None:
            return cached
        if 2 * (t & even[k]).bit_count() != t.bit_count():
            memo[key], choices[key] = k, 0
            return k
        masks = index_masks(k)
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

    def choice(k: int, t: int) -> int | None:
        h(k, t)
        return choices.get((k, t))

    return table, h(n, table), choice


def membership_depth_det(lang: Language, n: int, max_n: int | None = None) -> int:
    """Minimum depth of a deterministic tree deciding slice membership (exact)."""
    return _membership_minimax(lang, n, max_n)[1]


def optimal_membership_tree(
    lang: Language, n: int, max_n: int | None = None
) -> DecisionTree:
    """Depth-optimal deterministic membership tree, replayed from the minimax."""
    table, _, choice = _membership_minimax(lang, n, max_n)

    def build(free: tuple[int, ...], t: int):
        k = len(free)
        i = choice(k, t)
        if i is None:  # only constant subfunctions have no choice
            return Leaf("1" if t else "0")
        j = k - 1 - i
        masks = index_masks(k)
        rest = free[:i] + free[i + 1 :]
        return Branch(
            free[i], tuple((bit, build(rest, _cofactor(t, masks, j, bit))) for bit in (0, 1))
        )

    return DecisionTree((build(tuple(range(1, n + 1)), table),))


def _membership_certificate(table: int, splits: list[tuple[int, int]], x: int) -> tuple[int, ...]:
    """Smallest pinned position set whose subcube through x is constant on ``table``.

    ``splits`` is ``cube_splits(n)``; pinning index bit j, position n - j, to
    x's letter keeps the bits of ``keep[j]``.
    Branch and bound: each node takes a witness of the opposite class in the
    pinned subcube and branches on the positions where it differs from x,
    excluding the positions already tried by earlier siblings.  A greedy pass
    gives the first upper bound.  Position p is index bit n - p, so the
    positions are visited from the highest index bit down.
    """
    n = len(splits)
    opposite = table ^ ((1 << (1 << n)) - 1) if table >> x & 1 else table
    keep = [split[x >> j & 1] for j, split in enumerate(reversed(splits))]

    def witness(cube: int) -> int | None:
        """``y ^ x`` for a word y of ``cube``, the opposite class within the
        pinned subcube, or None.

        The first one-letter flip of x in ``cube`` wins (a flip at a pinned
        position leaves the subcube); failing that, the word that agrees with
        x longest from position 1, which minimises y ^ x.
        """
        for j in range(n - 1, -1, -1):
            if cube >> (x ^ 1 << j) & 1:
                return 1 << j
        if not cube:
            return None
        for j in range(n - 1, -1, -1):
            cube = cube & keep[j] or cube
        return (cube.bit_length() - 1) ^ x

    def bits(d: int) -> list[int]:
        return [j for j in range(n - 1, -1, -1) if d >> j & 1]

    # greedy upper bound: repeatedly pin the differing position that leaves
    # the fewest opposite-class words, the lowest position on ties
    best, cube = 0, opposite
    while (d := witness(cube)) is not None:
        j = min(bits(d), key=lambda j: (cube & keep[j]).bit_count())
        best |= 1 << j
        cube &= keep[j]

    def dfs(pinned: int, cube: int, excluded: int) -> None:
        nonlocal best
        if pinned.bit_count() >= best.bit_count():
            return
        d = witness(cube)
        if d is None:
            best = pinned
            return
        for j in bits(d & ~excluded):
            dfs(pinned | 1 << j, cube & keep[j], excluded)
            excluded |= 1 << j

    dfs(0, opposite, 0)
    return tuple(n - j for j in bits(best))


def membership_certificates(
    lang: Language, n: int, max_n: int | None = None
) -> dict[str, tuple[int, ...]]:
    """Exact minimum membership certificate for each of the 2^n words, in
    lexicographic order, all read from one truth table of the slice.

    A certificate for w is a position set such that every word agreeing with
    w on it gets the same membership answer as w.
    """
    table, splits = _membership_table(lang, n, max_n), cube_splits(n)
    return {format(x, f"0{n}b"): _membership_certificate(table, splits, x) for x in range(1 << n)}


def membership_certificate(
    lang: Language, n: int, w: str, max_n: int | None = None
) -> tuple[int, ...]:
    """Exact minimum position set certifying the membership answer for ``w``."""
    table = _membership_table(lang, n, max_n)
    if len(require_word(w)) != n:
        raise ValueError(f"expected a word of length {n}, got {w!r}")
    return _membership_certificate(table, cube_splits(n), int(w, 2))


def _sensitivity(table: int, n: int) -> int:
    """s(f) of the 2^n-bit ``table``: the most positions, over all inputs x,
    whose flip changes the value at x.

    Bit-sliced: ``planes[l]`` holds bit l of every input's flip count.  Each
    index bit j adds one shifted XOR of the table into the planes with a
    ripple carry, and the largest count is read from the top plane down.
    """
    planes: list[int] = []
    for j, m in enumerate(index_masks(n)):
        s = 1 << j
        d = (table ^ table >> s) & m
        carry = d | d << s  # the inputs whose flip at index bit j changes the value
        for level, plane in enumerate(planes):
            planes[level], carry = plane ^ carry, plane & carry
            if not carry:
                break
        if carry:
            planes.append(carry)
    best, inputs = 0, (1 << (1 << n)) - 1
    for level in range(len(planes) - 1, -1, -1):
        if inputs & planes[level]:
            inputs &= planes[level]
            best |= 1 << level
    return best


def membership_depth_nondet(lang: Language, n: int, max_n: int | None = None) -> int:
    """Largest over all 2^n words of the minimum certificate size (exact).

    A certificate of size n - l for x is a subcube through x with l freed
    positions on which the indicator is constant.  One depth-first sweep
    visits the sets of freed positions in increasing index order, carrying the
    AND and the OR of the table over each subcube; an input is covered when
    its subcube is all members or has none.  Freeing more positions only
    shrinks the covered set, so a branch ends once it is empty.  The answer is
    n - max{l : every input is covered by some set of l freed positions}.
    A certificate for x holds each position whose flip changes the answer at
    x, so the answer is at least the sensitivity s(f), and the sweep frees at
    most n - s(f) positions: no larger set can cover every input.
    """
    table = _membership_table(lang, n, max_n)
    ones = (1 << (1 << n)) - 1
    if table == 0 or table == ones:
        return 0  # the answer is constant
    masks = index_masks(n)
    deepest = n - _sensitivity(table, n)
    covered_by_size = [0] * (deepest + 1)

    def sweep(start: int, size: int, all_in: int, any_in: int) -> None:
        covered = all_in | (any_in ^ ones)
        if not covered:
            return
        covered_by_size[size] |= covered
        if size == deepest:
            return
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


def depth_profile(
    lang: Language,
    lo: int,
    hi: int,
    measures: tuple[str, ...] = MEASURES,
    max_n: int | None = None,
    max_slice: int = MAX_SLICE,
) -> DepthProfile:
    """Per-n table of the four depth measures with per-cell provenance.

    A cell is EXACT while the oracle caps allow, and SKIPPED past them or when
    its measure is not asked for: a profile holds exact values only.
    ``max_n`` caps both problems; None keeps each oracle's own default.
    ``rd`` and ``ra`` share one slice table per n.
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
        table = None
        if "rd" in measures or "ra" in measures:
            try:
                table = _recognition_splits(lang, n, max_n, max_slice)
            except CapExceeded:
                pass  # both recognition cells stay SKIPPED
        for m in MEASURES:
            values[m], sources[m] = None, SKIPPED
            if m not in measures or (m in ("rd", "ra") and table is None):
                continue
            try:
                if m == "rd":
                    v = _recognition_minimax(*table, n)[0]
                elif m == "ra":
                    v = _largest_certificate(*table, n)
                elif m == "md":
                    v = membership_depth_det(lang, n, max_n)
                else:
                    v = membership_depth_nondet(lang, n, max_n)
            except CapExceeded:
                continue
            values[m], sources[m] = v, EXACT
        rows.append(ProfileRow(n, values, sources))
    return DepthProfile(lang.name, rows)
