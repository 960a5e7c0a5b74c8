"""Reference block recognition strategy for differential tests.

This is ``BlockRecognitionStrategy`` as it was before its state carried the
round being read: it asks one position per round, the state is the plain
transcript of ``(position, bit)`` answers, and every ``next_action`` rebuilds
the answer map and reruns the whole decision, binary search included, from
it.  The production strategy must ask the same positions in the same order
and announce the same label.

``reference_worst_case_queries`` is ``builders.worst_case_queries`` as it was
before it played the strategy as a tree over the slice: it traces every slice
word on its own.

``reference_block_certificate`` is ``builders.block_certificate`` as it was
before it shared the boundary-block rule with the strategy: it classifies the
inner boundary blocks itself.  The production certificate must hold the same
positions.

``decompose_into_runs`` splits a member into the run shape that the block
builders rely on (the paper's run-decomposition lemma).  No builder calls it;
the tests use it to check the lemma on every slice word.
"""

from __future__ import annotations

from dataclasses import dataclass

from subword_trees.builders import BuilderPreconditionError, block_length
from subword_trees.dimensions import INFINITY, homogeneity_dimension
from subword_trees.language import ALPHABET, Language
from subword_trees.trees import Ask, Finish, QueryStrategy, trace_strategy


def reference_worst_case_queries(lang: Language, strategy: QueryStrategy, cap: int) -> int | None:
    if lang.count_slice(strategy.n) > cap:
        return None
    worst = 0
    for w in lang.iter_slice(strategy.n):
        queried, label = trace_strategy(strategy, w)
        if label != w:
            raise AssertionError(f"strategy misrecognized {w!r} for {lang.name}")
        worst = max(worst, len(queried))
    return worst


class ReferenceBlockStrategy(QueryStrategy):
    def __init__(self, lang: Language, n: int):
        t = block_length(lang)
        self.lang = lang
        self.n = n
        self.t = t
        self.mid_start = 2 * t + 1
        self.mid_end = n - 2 * t
        self.block_count = (n - 4 * t) // t
        self._lead = list(range(1, 2 * t + 1))
        self._trail = list(range(n - 2 * t + 1, n + 1))
        self._inner_left = list(range(t + 1, 2 * t + 1))
        self._inner_right = list(range(n - 2 * t + 1, n - t + 1))
        self._third_left = list(range(2 * t + 1, 3 * t + 1))
        self._third_right = list(range(n - 3 * t + 1, n - 2 * t + 1))
        self.fallback = lang.first_slice_word(n)

    def block_span(self, idx: int) -> tuple[int, int]:
        start = self.mid_start + idx * self.t
        end = self.mid_end if idx == self.block_count - 1 else start + self.t - 1
        return start, end

    def initial_state(self):
        return ()

    def advance(self, state, letters: str):
        # one-position rounds: the state is the transcript of (position, bit) answers
        return state + ((self.next_action(state).positions[0], int(letters)),)

    def next_action(self, state):
        if self.fallback is None:
            return Finish(None)
        ans = dict(state)
        for p in self._lead + self._trail:
            if p not in ans:
                return Ask((p,))
        left = [ans[p] for p in self._inner_left]
        right = [ans[p] for p in self._inner_right]
        left_pure = len(set(left)) == 1
        right_pure = len(set(right)) == 1
        if left_pure and right_pure and left[0] == right[0]:
            return self._finish(ans, left[0], self.mid_end)
        if left_pure and not right_pure:
            for p in self._third_right:
                if p not in ans:
                    return Ask((p,))
            return self._finish(ans, left[0], self.mid_end)
        if not left_pure and right_pure:
            for p in self._third_left:
                if p not in ans:
                    return Ask((p,))
            return self._finish(ans, right[0], self.mid_end)
        if not left_pure and not right_pure:
            return Finish(self.fallback)
        a, abar = left[0], right[0]
        lo, hi = 0, self.block_count - 1
        while lo <= hi:
            r = lo + (hi - lo) // 2
            start, end = self.block_span(r)
            for p in range(start, end + 1):
                if p not in ans:
                    return Ask((p,))
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
                        return Ask((p,))
                return self._finish(ans, a, lo_w - 1, rest=abar)
        boundary = self.block_span(hi)[1] if hi >= 0 else self.mid_start - 1
        return self._finish(ans, a, boundary, rest=abar)

    def _finish(self, ans, fill_letter, fill_until, rest=None):
        chars = [ALPHABET[rest] if rest is not None else "?"] * self.n
        if fill_until >= 1:
            chars[:fill_until] = ALPHABET[fill_letter] * fill_until
        for p, bit in ans.items():
            chars[p - 1] = ALPHABET[bit]
        word = "".join(chars)
        if "?" in word or not self.lang.contains(word):
            return Finish(self.fallback)
        return Finish(word)


def reference_block_certificate(lang: Language, n: int, w: str) -> tuple[int, ...]:
    """Certificate of at most 7t positions separating ``w`` within its slice,
    as sorted 1-based positions.

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
    return tuple(sorted(positions))


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


def decompose_into_runs(lang: Language, w: str) -> RunDecomposition:
    """Split a member into prefix / letter-run / middle / opposite-run / suffix.

    The three non-run fragments each have length at most twice the homogeneity
    dimension.  Found by bounded search over fragment widths, taking the
    maximal run lengths for each split; existence is guaranteed for members.
    """
    hom = homogeneity_dimension(lang)
    if hom == INFINITY:
        raise BuilderPreconditionError(
            f"{lang.name}: homogeneity dimension is infinite; run-based builders do not apply"
        )
    if not lang.contains(w):
        raise BuilderPreconditionError(f"{w!r} is not a member of {lang.name}")
    bound = 2 * int(hom)
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
