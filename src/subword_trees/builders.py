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
from .language import ALPHABET, CapExceeded, Language, agreeing
from .oracle import greedy_hitting_set, min_hitting_set
from .trees import (
    Ask,
    Branch,
    DecisionTree,
    Finish,
    Leaf,
    QueryStrategy,
    StrategyError,
    chain,
)


MAX_EXACT_DISTINGUISHING = 64  # slice words up to which the distinguishing set is exact


class BuilderPreconditionError(ValueError):
    """A builder was invoked outside its stated preconditions."""


class CertificateError(ValueError):
    """A certificate map does not cover or separate the slice."""


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

    The strategy reads in rounds: the four boundary blocks, a third block, one
    search block, or the window around a mixed block.  A state is the immutable
    tuple ``(answers, todo, step, label)``: the ``(position, bit)`` answers so
    far, the positions still to ask in this round, what the round decides once
    it is read (``("fill", letter)``, ``("probe", a, abar, lo, hi, r)`` or
    ``("window", a, abar, lo_w)``; None for the boundary round), and the label.
    The strategy has finished when ``todo`` is empty.  ``next_action`` reads
    the state in O(1); ``advance`` runs the decision once per round.
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
        # the first two blocks, then the last two: answers[t:2t] is the inner
        # left block and answers[2t:3t] the inner right one
        self._edges = tuple(range(1, 2 * t + 1)) + tuple(range(n - 2 * t + 1, n + 1))
        self._third_left = tuple(range(2 * t + 1, 3 * t + 1))
        self._third_right = tuple(range(n - 3 * t + 1, n - 2 * t + 1))
        self.fallback = lang.first_slice_word(n)

    def block_span(self, idx: int) -> tuple[int, int]:
        start = self.mid_start + idx * self.t
        end = self.mid_end if idx == self.block_count - 1 else start + self.t - 1
        return start, end

    def query_budget(self) -> int:
        """Worst-case query count of this strategy."""
        return self.t * math.ceil(math.log2(self.n / self.t)) + 7 * self.t

    # -- decision logic -----------------------------------------------------

    def initial_state(self):
        if self.fallback is None:
            return ((), (), None, None)  # empty slice: nothing to recognize
        return ((), self._edges, None, None)

    def next_action(self, state):
        todo = state[1]
        if todo:
            return Ask(todo[0])
        return Finish(state[3])

    def advance(self, state, position: int, bit: int):
        answers, todo, step, _ = state
        if not todo or todo[0] != position:
            raise StrategyError(
                f"advance at position {position} does not answer the strategy's query"
            )
        answers = answers + ((position, bit),)
        if len(todo) > 1:
            return (answers, todo[1:], step, None)
        return self._decide(answers, step)

    def _decide(self, answers, step):
        """The state after a round: the next round to read, or the label."""
        t = self.t
        if step is None:  # the boundary blocks
            left = {bit for _, bit in answers[t : 2 * t]}
            right = {bit for _, bit in answers[2 * t : 3 * t]}
            if len(left) == 1 and len(right) == 1:
                a, abar = left.pop(), right.pop()
                if a == abar:
                    return self._finish(answers, fill_letter=a, fill_until=self.mid_end)
                return self._probe(answers, a, abar, 0, self.block_count - 1)
            if len(left) == 1:
                return (answers, self._third_right, ("fill", left.pop()), None)
            if len(right) == 1:
                return (answers, self._third_left, ("fill", right.pop()), None)
            # impossible for a member: both boundary blocks cannot meet the
            # short middle fragment at once
            return (answers, (), None, self.fallback)
        if step[0] == "fill":
            return self._finish(answers, fill_letter=step[1], fill_until=self.mid_end)
        if step[0] == "window":
            _, a, abar, lo_w = step
            return self._finish(answers, fill_letter=a, fill_until=lo_w - 1, rest=abar)
        _, a, abar, lo, hi, r = step
        start, end = self.block_span(r)
        vals = {bit for _, bit in answers[-(end - start + 1) :]}  # the block just read
        if vals == {a}:
            return self._probe(answers, a, abar, r + 1, hi)
        if vals == {abar}:
            return self._probe(answers, a, abar, lo, r - 1)
        lo_w = max(self.mid_start, start - self.t)
        hi_w = min(self.mid_end, end + self.t)
        asked = {p for p, _ in answers}  # earlier rounds may have read part of the window
        todo = tuple(p for p in range(lo_w, hi_w + 1) if p not in asked)
        step = ("window", a, abar, lo_w)
        return (answers, todo, step, None) if todo else self._decide(answers, step)

    def _probe(self, answers, a: int, abar: int, lo: int, hi: int):
        """Read the middle block of ``lo..hi``, or finish once the search is empty."""
        if lo <= hi:
            r = lo + (hi - lo) // 2
            start, end = self.block_span(r)
            return (answers, tuple(range(start, end + 1)), ("probe", a, abar, lo, hi, r), None)
        boundary = self.block_span(hi)[1] if hi >= 0 else self.mid_start - 1
        return self._finish(answers, fill_letter=a, fill_until=boundary, rest=abar)

    def _finish(self, answers, fill_letter: int, fill_until: int, rest: int | None = None):
        chars = [ALPHABET[rest] if rest is not None else "?"] * self.n
        if fill_until >= 1:
            chars[:fill_until] = ALPHABET[fill_letter] * fill_until
        for p, bit in answers:
            chars[p - 1] = ALPHABET[bit]
        word = "".join(chars)
        if "?" in word or not self.lang.contains(word):
            word = self.fallback  # answers match no member
        return (answers, (), None, word)


def block_recognition_strategy(lang: Language, n: int) -> BlockRecognitionStrategy:
    return BlockRecognitionStrategy(lang, n)


def worst_case_queries(lang: Language, strategy: QueryStrategy, cap: int) -> int | None:
    """Most queries the strategy asks on one slice word; None when the slice
    has more than ``cap`` words.

    The strategy is played as a tree over the slice: each node carries the
    set of slice words whose answers lead to it and splits it by the letter
    at the asked position, so ``next_action`` and ``advance`` run once
    per distinct answer transcript, not once per word.  Raises
    ``AssertionError`` naming the least word the strategy misrecognizes, and
    ``StrategyError`` when it asks more than one query per letter.
    """
    n = strategy.n
    try:
        words, splits = lang.slice_splits(n, cap)
    except CapExceeded:
        return None
    index = {w: i for i, w in enumerate(words)}
    worst = wrong = 0
    stack = [(strategy.initial_state(), (1 << len(words)) - 1, 0)]
    while stack:
        state, S, depth = stack.pop()
        act = strategy.next_action(state)
        if isinstance(act, Finish):
            i = index.get(act.label)
            wrong |= S if i is None else S & ~(1 << i)
            worst = max(worst, depth)
            continue
        if depth >= n:
            raise StrategyError(f"query budget {n} exceeded at position {act.position}")
        for bit, half in enumerate(splits[act.position - 1]):
            if part := S & half:
                stack.append((strategy.advance(state, act.position, bit), part, depth + 1))
    if wrong:
        least = words[(wrong & -wrong).bit_length() - 1]
        raise AssertionError(f"strategy misrecognized {least!r} for {lang.name}")
    return worst


def block_certificate(lang: Language, n: int, w: str) -> tuple[int, ...]:
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


def tree_from_certificates(
    lang: Language, n: int, certs: dict[str, tuple[int, ...]]
) -> DecisionTree:
    """Nondeterministic recognition tree: one certificate chain per slice word.

    A certificate is a sorted tuple of 1-based positions; it separates its word
    from another member when the two differ at one of them.  Verifies that the
    map covers the slice exactly, that every position lies in 1..n and that
    every certificate separates its word from every other member, naming the
    least unseparated member; the resulting tree has one root child per word
    and depth equal to the largest certificate.
    """
    words, splits = lang.slice_splits(n)
    if set(certs) != set(words):
        missing = sorted(set(words) - set(certs), key=lambda w: w)[:1]
        extra = sorted(set(certs) - set(words))[:1]
        detail = f"missing {missing[0]!r}" if missing else f"not in slice: {extra[0]!r}"
        raise CertificateError(f"certificate map does not match the slice ({detail})")
    for i, w in enumerate(words):
        for p in certs[w]:
            if not 1 <= p <= n:
                raise CertificateError(f"certificate for {w!r} has position {p}, outside 1..{n}")
        if agree := agreeing(words, splits, i, certs[w]):
            u = words[(agree & -agree).bit_length() - 1]
            raise CertificateError(f"certificate for {w!r} does not separate it from {u!r}")
    children = tuple(chain(w, certs[w], w) for w in words)
    return DecisionTree(children)


def distinguishing_set_tree(lang: Language, n: int) -> DecisionTree:
    """Deterministic recognition tree reading one fixed distinguishing set.

    Picks a smallest position set separating every pair of slice words (exact
    search up to ``MAX_EXACT_DISTINGUISHING`` words, greedy pair cover beyond),
    then builds the complete tree that queries those positions in increasing
    order.  Leaves on paths matching no member carry the lexicographically least
    member.
    """
    words = lang.slice(n)
    if not words:
        return DecisionTree(())
    if len(words) == 1:
        return DecisionTree((Leaf(words[0]),))
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


def membership_tree(lang: Language, n: int) -> DecisionTree:
    """Membership tree: constant leaf when the answer never varies, else the
    complete depth-n tree reading every position.

    The complete tree is built bottom up from the slice truth table, which
    raises ``CapExceeded`` past ``MAX_TABLE_N``: leaf x answers for the word
    ``format(x, f"0{n}b")``, and the branches at position p pair the nodes
    whose words differ only there.  Leaves with one label are one object.
    """
    count = lang.count_slice(n)
    if count in (0, 1 << n):
        return DecisionTree((Leaf("1" if count else "0"),))
    table = lang.automaton().truth_table(n)
    leaves = {"0": Leaf("0"), "1": Leaf("1")}
    level = [leaves[c] for c in format(table, f"0{1 << n}b")[::-1]]
    for pos in range(n, 0, -1):
        level = [Branch(pos, ((0, level[i]), (1, level[i + 1]))) for i in range(0, len(level), 2)]
    return DecisionTree((level[0],))
