"""Constructive tree builders for languages with finite homogeneity dimension.

Members of such a language decompose as prefix + run of one letter + short
middle + run of the other letter + suffix, with the three fragments bounded by
twice the homogeneity dimension.  The builders exploit that shape: an adaptive
strategy recognizes any slice word by reading two boundary blocks on each side
and binary-searching the run boundary block-by-block; small fixed certificate
sets separate each word; and a fixed distinguishing position set yields
constant-depth trees when slices stay bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dimensions import INFINITY, homogeneity_dimension, slice_size_bound
from .language import ALPHABET, Language
from .trees import (
    Ask,
    Branch,
    DecisionTree,
    Finish,
    Leaf,
    QueryStrategy,
    chain,
    trace_strategy,
)


class BuilderPreconditionError(ValueError):
    """A builder was invoked outside its stated preconditions."""


class CertificateError(ValueError):
    """A certificate map does not cover or separate the slice."""


@dataclass(frozen=True)
class Certificate:
    """Positions with expected bits that pin one word within its universe."""

    assignments: tuple[tuple[int, int], ...]  # (1-based position, bit), distinct positions

    def __len__(self) -> int:
        return len(self.assignments)

    def positions(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.assignments)

    def separates(self, other: str) -> bool:
        return any(int(other[p - 1]) != bit for p, bit in self.assignments)

    @classmethod
    def for_word(cls, word: str, positions) -> "Certificate":
        return cls(tuple(sorted((p, int(word[p - 1])) for p in positions)))


@dataclass(frozen=True)
class RunDecomposition:
    """word == prefix + letter^left_run + middle + other^right_run + suffix."""

    prefix: str
    letter: int
    left_run: int
    middle: str
    right_run: int
    suffix: str

    @property
    def word(self) -> str:
        a = ALPHABET[self.letter]
        b = ALPHABET[1 - self.letter]
        return self.prefix + a * self.left_run + self.middle + b * self.right_run + self.suffix


def _require_finite_hom(lang: Language) -> int:
    hom = homogeneity_dimension(lang)
    if hom == INFINITY:
        raise BuilderPreconditionError(
            f"{lang.name}: homogeneity dimension is infinite; run-based builders do not apply"
        )
    return int(hom)


def block_length(lang: Language) -> int:
    """Block size used by the adaptive strategy: twice the homogeneity dimension,
    floored at 1 so the degenerate dimension-0 case still has blocks."""
    return max(2 * _require_finite_hom(lang), 1)


def decompose_into_runs(lang: Language, w: str) -> RunDecomposition:
    """Split a member into prefix / letter-run / middle / opposite-run / suffix.

    The three non-run fragments each have length at most twice the homogeneity
    dimension.  Found by bounded search over fragment widths, taking the
    maximal run lengths for each split; existence is guaranteed for members.
    """
    hom = _require_finite_hom(lang)
    if not lang.contains(w):
        raise BuilderPreconditionError(f"{w!r} is not a member of {lang.name}")
    bound = 2 * hom
    n = len(w)
    for letter in (0, 1):
        a = ALPHABET[letter]
        b = ALPHABET[1 - letter]
        for lp in range(min(bound, n) + 1):
            prefix = w[:lp]
            for ls in range(min(bound, n - lp) + 1):
                suffix = w[n - ls :] if ls else ""
                mid = w[lp : n - ls]
                i = len(mid) - len(mid.lstrip(a))
                rest = mid[i:]
                j = len(rest) - len(rest.rstrip(b))
                middle = rest[: len(rest) - j]
                if len(middle) <= bound:
                    return RunDecomposition(prefix, letter, i, middle, j, suffix)
    raise AssertionError(
        "unreachable: every member decomposes when the homogeneity dimension is finite"
    )


class BlockRecognitionStrategy(QueryStrategy):
    """Adaptive recognizer for one slice of a finite-homogeneity language.

    Always reads the two leading and two trailing length-t blocks (4t letters).
    If both inner boundary blocks are pure and equal, the whole interior is
    that letter.  If one is mixed, the short middle fragment sits there; one
    more block read pins the word.  If they are pure but opposite, the interior
    is a left run, a fragment of at most t letters, and a right run: binary
    search over t-blocks locates the fragment, reading one block per round plus
    t letters on each side of a mixed block.  Worst case
    ``t*ceil(log2(n/t)) + 7t`` queries.

    State is the transcript of (position, bit) answers; every decision is
    recomputed from it, so states are plain immutable values.
    """

    def __init__(self, lang: Language, n: int):
        t = block_length(lang)
        if n < 10 * t:
            raise BuilderPreconditionError(
                f"{lang.name}: slice length {n} is below 10*t = {10 * t}"
            )
        self.lang = lang
        self.n = n
        self.t = t
        self.mid_start = 2 * t + 1
        self.mid_end = n - 2 * t
        # whole t-blocks over the interior; the division remainder is absorbed
        # into the final block, which may be up to 2t-1 letters long
        self.block_count = (n - 4 * t) // t
        self._lead = list(range(1, 2 * t + 1))  # first two blocks
        self._trail = list(range(n - 2 * t + 1, n + 1))  # last two blocks
        self._inner_left = list(range(t + 1, 2 * t + 1))
        self._inner_right = list(range(n - 2 * t + 1, n - t + 1))
        self._third_left = list(range(2 * t + 1, 3 * t + 1))
        self._third_right = list(range(n - 3 * t + 1, n - 2 * t + 1))
        self.fallback = lang.first_slice_word(n)

    def block_span(self, idx: int) -> tuple[int, int]:
        start = self.mid_start + idx * self.t
        end = self.mid_end if idx == self.block_count - 1 else start + self.t - 1
        return start, end

    def query_budget(self) -> int:
        """Worst-case query count of this strategy."""
        return self.t * math.ceil(math.log2(self.n / self.t)) + 7 * self.t

    # -- decision logic -----------------------------------------------------

    def next_action(self, state):
        if self.fallback is None:
            return Finish(None)  # empty slice: nothing to recognize
        ans = dict(state)
        for p in self._lead + self._trail:
            if p not in ans:
                return Ask(p)
        left = [ans[p] for p in self._inner_left]
        right = [ans[p] for p in self._inner_right]
        left_pure = len(set(left)) == 1
        right_pure = len(set(right)) == 1
        if left_pure and right_pure and left[0] == right[0]:
            return self._finish(ans, fill_letter=left[0], fill_until=self.mid_end)
        if left_pure and not right_pure:
            for p in self._third_right:
                if p not in ans:
                    return Ask(p)
            return self._finish(ans, fill_letter=left[0], fill_until=self.mid_end)
        if not left_pure and right_pure:
            for p in self._third_left:
                if p not in ans:
                    return Ask(p)
            return self._finish(ans, fill_letter=right[0], fill_until=self.mid_end)
        if not left_pure and not right_pure:
            # impossible for a member: both boundary blocks cannot meet the
            # short middle fragment at once
            return Finish(self.fallback)
        a, abar = left[0], right[0]
        lo, hi = 0, self.block_count - 1
        while lo <= hi:
            r = lo + (hi - lo) // 2
            start, end = self.block_span(r)
            for p in range(start, end + 1):
                if p not in ans:
                    return Ask(p)
            vals = {ans[p] for p in range(start, end + 1)}
            if vals == {a}:
                lo = r + 1
            elif vals == {abar}:
                hi = r - 1
            else:
                lo_w = max(self.mid_start, start - self.t)
                hi_w = min(self.mid_end, end + self.t)
                for p in range(lo_w, hi_w + 1):
                    if p not in ans:
                        return Ask(p)
                return self._finish(ans, fill_letter=a, fill_until=lo_w - 1, rest=abar)
        if hi >= 0:
            boundary = self.block_span(hi)[1]
        else:
            boundary = self.mid_start - 1
        return self._finish(ans, fill_letter=a, fill_until=boundary, rest=abar)

    def _finish(self, ans: dict[int, int], fill_letter: int, fill_until: int, rest: int | None = None):
        chars = [ALPHABET[rest] if rest is not None else "?"] * self.n
        if fill_until >= 1:
            chars[:fill_until] = ALPHABET[fill_letter] * fill_until
        for p, bit in ans.items():
            chars[p - 1] = ALPHABET[bit]
        word = "".join(chars)
        if "?" in word or not self.lang.contains(word):
            return Finish(self.fallback)  # answers match no member
        return Finish(word)


def block_recognition_strategy(lang: Language, n: int) -> BlockRecognitionStrategy:
    return BlockRecognitionStrategy(lang, n)


def worst_case_queries(lang: Language, strategy: QueryStrategy, cap: int) -> int | None:
    """Most queries the strategy asks on one slice word, found by replaying it on
    every word of the slice; None when the slice has more than ``cap`` words."""
    if lang.count_slice(strategy.n) > cap:
        return None
    worst = 0
    for w in lang.iter_slice(strategy.n):
        queried, label = trace_strategy(strategy, w)
        if label != w:
            raise AssertionError(f"strategy misrecognized {w!r} for {lang.name}")
        worst = max(worst, len(queried))
    return worst


def block_certificate(lang: Language, n: int, w: str) -> Certificate:
    """Certificate of at most 7t positions separating ``w`` within its slice.

    The 4t boundary-block positions always go in.  Depending on which boundary
    block is mixed, one adjacent block (t more positions) suffices; when the
    boundary blocks show opposite pure letters, a window of at most 3t
    positions covering the interior letter switch completes the certificate.
    """
    t = block_length(lang)
    if n < 10 * t:
        raise BuilderPreconditionError(f"{lang.name}: slice length {n} is below 10*t = {10 * t}")
    if len(w) != n or not lang.contains(w):
        raise BuilderPreconditionError(f"{w!r} is not a member of {lang.name}({n})")
    lead = list(range(1, 2 * t + 1))
    trail = list(range(n - 2 * t + 1, n + 1))
    positions = set(lead + trail)
    left = w[t : 2 * t]
    right = w[n - 2 * t : n - t]
    left_pure = len(set(left)) == 1
    right_pure = len(set(right)) == 1
    if left_pure and right_pure and left[0] == right[0]:
        pass
    elif left_pure and not right_pure:
        positions.update(range(n - 3 * t + 1, n - 2 * t + 1))
    elif not left_pure and right_pure:
        positions.update(range(2 * t + 1, 3 * t + 1))
    elif left_pure and right_pure:
        a, abar = left[0], right[0]
        mid_start, mid_end = 2 * t + 1, n - 2 * t
        interior = w[mid_start - 1 : mid_end]
        first_op = interior.find(abar)
        last_a = interior.rfind(a)
        first_op = mid_start + first_op if first_op >= 0 else mid_end + 1
        last_a = mid_start + last_a if last_a >= 0 else mid_start - 1
        lo = max(mid_start, first_op - t)
        hi = min(mid_end, last_a + t)
        positions.update(range(lo, hi + 1))
    else:
        raise AssertionError("unreachable: member with both boundary blocks mixed")
    return Certificate.for_word(w, sorted(positions))


def tree_from_certificates(
    lang: Language, n: int, certs: dict[str, Certificate]
) -> DecisionTree:
    """Nondeterministic recognition tree: one certificate chain per slice word.

    Verifies that the map covers the slice exactly and that every certificate
    separates its word from every other member; the resulting tree has one root
    child per word and depth equal to the largest certificate.
    """
    words = lang.slice(n)
    if set(certs) != set(words):
        missing = sorted(set(words) - set(certs), key=lambda w: w)[:1]
        extra = sorted(set(certs) - set(words))[:1]
        detail = f"missing {missing[0]!r}" if missing else f"not in slice: {extra[0]!r}"
        raise CertificateError(f"certificate map does not match the slice ({detail})")
    for w in words:
        cert = certs[w]
        for u in words:
            if u != w and not cert.separates(u):
                raise CertificateError(
                    f"certificate for {w!r} does not separate it from {u!r}"
                )
    children = tuple(chain(w, certs[w].positions(), w) for w in words)
    return DecisionTree(children)


def distinguishing_set_tree(lang: Language, n: int, exact_limit: int = 64) -> DecisionTree:
    """Deterministic recognition tree reading one fixed distinguishing set.

    Picks a smallest position set separating every pair of slice words (exact
    search up to ``exact_limit`` words, greedy pair cover beyond), then builds
    the complete tree that queries those positions in increasing order.  Leaves
    on paths matching no member carry the lexicographically least member.
    """
    from .oracle import greedy_hitting_set, min_hitting_set

    words = lang.slice(n)
    if not words:
        return DecisionTree(())
    if len(words) == 1:
        return DecisionTree((Leaf(words[0]),))
    ints = [int(w, 2) for w in words]
    pair_masks = sorted(
        {ints[i] ^ ints[j] for i in range(len(ints)) for j in range(i + 1, len(ints))}
    )
    if len(words) <= exact_limit:
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


def membership_tree(lang: Language, n: int) -> DecisionTree:
    """Membership tree: constant leaf when the answer never varies, else the
    complete depth-n tree reading every position."""
    if lang.count_slice(n) == 0:
        return DecisionTree((Leaf("0"),))
    if not lang.obstructions:
        return DecisionTree((Leaf("1"),))

    def build(pos: int, prefix: str):
        if pos > n:
            return Leaf("1" if lang.contains(prefix) else "0")
        return Branch(
            pos, tuple((bit, build(pos + 1, prefix + ALPHABET[bit])) for bit in (0, 1))
        )

    return DecisionTree((build(1, ""),))
