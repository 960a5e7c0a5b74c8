"""Constructive tree builders for languages with finite homogeneity dimension.

Members of such a language decompose as prefix + run of one letter + short
middle + run of the other letter + suffix, with the three fragments bounded by
twice the homogeneity dimension.  The builders exploit that shape: an adaptive
strategy recognizes any slice word by reading two boundary blocks on each side
and binary-searching the run boundary block-by-block; small fixed certificate
sets separate each word; and a fixed distinguishing position set recognizes
in constant depth when slices stay bounded.
"""

from __future__ import annotations

import math
from collections import defaultdict

from .dimensions import INFINITY, homogeneity_dimension, slice_size_bound
from .language import Language, agreeing
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
    materialize_strategy,
)


MAX_EXACT_DISTINGUISHING = 64  # slice words up to which the distinguishing set is exact


class BuilderPreconditionError(ValueError):
    """A builder was invoked outside its stated preconditions."""


class CertificateError(ValueError):
    """A certificate map does not cover or separate the slice."""


def block_length(lang: Language) -> int:
    """Block size used by the adaptive strategy: twice the homogeneity dimension,
    floored at 1 so the degenerate dimension-0 case still has blocks."""
    hom = homogeneity_dimension(lang)
    if hom == INFINITY:
        raise BuilderPreconditionError(
            f"{lang.name}: homogeneity dimension is infinite; run-based builders do not apply"
        )
    return max(2 * int(hom), 1)


def _slice_block_length(lang: Language, n: int) -> int:
    """Block length t, checking that slices of length n hold ten blocks."""
    t = block_length(lang)
    if n < 10 * t:
        raise BuilderPreconditionError(f"{lang.name}: slice length {n} is below 10*t = {10 * t}")
    return t


def _boundary_rule(w: str, n: int, t: int):
    """What the inner boundary blocks ``w[t:2t]`` and ``w[n-2t:n-t]`` leave open.

    For a member, ``(a, b, third)``: off the ``third`` positions (the block
    next to a mixed boundary block) the interior ``w[2t:n-2t]`` is all ``a``
    when ``a == b``, and otherwise a run of ``a``, a fragment of at most t
    letters still to find, and a run of ``b``.  None when both blocks are
    mixed, which no member has.
    """
    left, right = w[t : 2 * t], w[n - 2 * t : n - t]
    left_pure = left == left[0] * t
    right_pure = right == right[0] * t
    if left_pure and right_pure:
        return left[0], right[0], ()
    if left_pure:
        return left[0], left[0], tuple(range(n - 3 * t + 1, n - 2 * t + 1))
    if right_pure:
        return right[0], right[0], tuple(range(2 * t + 1, 3 * t + 1))
    return None


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

    The strategy reads in rounds, each one ``Ask``: the four boundary blocks,
    a third block, one search block, or the window around a mixed block, less
    the letters earlier rounds read.  A state is the immutable tuple ``(known,
    ask, step, label)``: the word read so far, with ``?`` at each unread
    position, the round being asked (None once finished), what the round
    decides once it is read (``("finish", a, b, until)`` or ``("probe", a, b,
    lo, hi, r)``; None for the boundary round), and the label.
    ``next_action`` reads the state in O(1); ``advance`` splices the round's
    letters into ``known`` with string slices and runs the decision once.
    """

    def __init__(self, lang: Language, n: int):
        t = _slice_block_length(lang, n)
        self.lang = lang
        self.n = n
        self.t = t
        self.mid_start = 2 * t + 1
        self.mid_end = n - 2 * t
        # whole t-blocks over the interior; the division remainder is absorbed
        # into the final block, which may be up to 2t-1 letters long
        self.block_count = (n - 4 * t) // t
        cuts = [*range(self.mid_start, self.mid_start + t * self.block_count, t), n - 2 * t + 1]
        self._blocks = [Ask(tuple(range(s, e))) for s, e in zip(cuts, cuts[1:])]  # search rounds
        self._edges = Ask(tuple(range(1, 2 * t + 1)) + tuple(range(n - 2 * t + 1, n + 1)))
        self.fallback = lang.first_slice_word(n)

    def query_budget(self) -> int:
        """Worst-case query count of this strategy."""
        return self.t * math.ceil(math.log2(self.n / self.t)) + 7 * self.t

    # -- decision logic -----------------------------------------------------

    def initial_state(self):  # an empty slice has nothing to recognize
        return ("?" * self.n, self._edges if self.fallback else None, None, None)

    def next_action(self, state):
        return state[1] or Finish(state[3])

    def advance(self, state, letters: str):
        known, ask, step, _ = state
        if ask is None or len(letters) != len(ask.positions):
            raise StrategyError(f"letters {letters!r} do not answer the strategy's round {ask}")
        lo, hi = ask.positions[0] - 1, ask.positions[-1]
        if hi - lo == len(letters):  # one run of positions
            known = known[:lo] + letters + known[hi:]
        elif step is None:  # the boundary blocks, around the unread interior
            edge = 2 * self.t
            known = letters[:edge] + known[edge:-edge] + letters[edge:]
        else:  # a window: its unread letters, in order
            unread = iter(letters)
            window = "".join(c if c != "?" else next(unread) for c in known[lo:hi])
            known = known[:lo] + window + known[hi:]
        return self._decide(known, step, letters)

    def _decide(self, known: str, step, letters: str):
        """The state after a round answered with ``letters``: the next round, or the label."""
        if step is None:  # the boundary blocks
            rule = _boundary_rule(known, self.n, self.t)
            if rule is None:
                return (known, None, None, self.fallback)
            a, b, todo = rule
            if a != b:
                return self._probe(known, a, b, 0, self.block_count - 1)
            until = self.mid_end
        elif step[0] == "finish":
            return self._finish(known, *step[1:])
        else:
            _, a, b, lo, hi, r = step
            if not letters.strip(a):  # the search block just read
                return self._probe(known, a, b, r + 1, hi)
            if not letters.strip(b):
                return self._probe(known, a, b, lo, r - 1)
            block = self._blocks[r].positions
            lo_w = max(self.mid_start, block[0] - self.t)
            hi_w = min(self.mid_end, block[-1] + self.t)
            # earlier rounds may have read part of the window
            todo = tuple(p for p in range(lo_w, hi_w + 1) if known[p - 1] == "?")
            until = lo_w - 1
        if not todo:
            return self._finish(known, a, b, until)
        return (known, Ask(todo), ("finish", a, b, until), None)

    def _probe(self, known: str, a: str, b: str, lo: int, hi: int):
        """Read the middle block of ``lo..hi``, or finish once the search is empty."""
        if lo <= hi:
            r = lo + (hi - lo) // 2
            return (known, self._blocks[r], ("probe", a, b, lo, hi, r), None)
        boundary = self._blocks[hi].positions[-1] if hi >= 0 else self.mid_start - 1
        return self._finish(known, a, b, boundary)

    def _finish(self, known: str, a: str, b: str, until: int):
        """The label: the word read so far with its unread letters ``a`` up to
        position ``until`` and ``b`` after it, or the least slice word when
        that is no member (the answers match no member)."""
        word = known[:until].replace("?", a) + known[until:].replace("?", b)
        if not self.lang.contains(word):
            word = self.fallback
        return (known, None, None, word)


def block_recognition_strategy(lang: Language, n: int) -> BlockRecognitionStrategy:
    return BlockRecognitionStrategy(lang, n)


def _letters_at(positions: tuple[int, ...]):
    """The function reading a word's letters at the 1-based ``positions`` in
    order: one slice per run of consecutive positions."""
    starts = [i for i, p in enumerate(positions) if not i or p != positions[i - 1] + 1]
    ends = [*starts[1:], len(positions)]
    runs = [(positions[i] - 1, positions[j - 1]) for i, j in zip(starts, ends)]
    if len(runs) <= 2:  # every round of the block strategy
        (a, b), (c, d) = runs + [(0, 0)] * (2 - len(runs))
        return lambda w: w[a:b] + w[c:d]
    return lambda w: "".join([w[a:b] for a, b in runs])


def worst_case_queries(lang: Language, strategy: QueryStrategy, cap: int) -> int:
    """Most queries the strategy asks on one slice word; raises ``CapExceeded``,
    as ``Language.slice`` does, when the slice has more than ``cap`` words.

    The strategy is played as a tree of rounds over the slice: each node
    carries the list of slice words whose answers lead to it, splits it once
    by their letters at the round's positions and adds the round's length to
    the depth, so ``next_action`` and ``advance`` run once per distinct round
    transcript, not once per word or per query; a leaf is right when its
    words are exactly its label.  Raises ``AssertionError`` naming the least
    misrecognized word, and ``StrategyError`` naming the first position past
    one query per letter.
    """
    n = strategy.n
    worst, wrong = 0, []
    stack = [(strategy.initial_state(), lang.slice(n, cap), 0)]
    while stack:
        state, S, depth = stack.pop()
        act = strategy.next_action(state)
        if isinstance(act, Finish):
            if S != [act.label]:
                wrong += (w for w in S if w != act.label)
            worst = max(worst, depth)
            continue
        positions = act.positions
        if depth + len(positions) > n:
            raise StrategyError(f"query budget {n} exceeded at position {positions[n - depth]}")
        depth += len(positions)
        if len(positions) == 1:  # most rounds split no list: then it is scanned once
            p = positions[0] - 1
            ones = [w for w in S if w[p] == "1"]
            if len(ones) < len(S):
                zeros = [w for w in S if w[p] == "0"] if ones else S
                stack.append((strategy.advance(state, "0"), zeros, depth))
            if ones:
                stack.append((strategy.advance(state, "1"), ones, depth))
        else:
            parts = defaultdict(list)
            for key, w in zip(map(_letters_at(positions), S), S):
                parts[key].append(w)
            stack += ((strategy.advance(state, key), words, depth) for key, words in parts.items())
    if wrong:
        raise AssertionError(f"strategy misrecognized {min(wrong)!r} for {lang.name}")
    return worst


def block_certificate(lang: Language, n: int, w: str) -> tuple[int, ...]:
    """Certificate of at most 7t positions separating ``w`` within its slice,
    as sorted 1-based positions.

    The 4t boundary-block positions always go in, and so does the third block
    that the boundary rule reads next to a mixed boundary block (t more
    positions).  When the boundary blocks show opposite pure letters, a window
    of at most 3t positions covering the interior letter switch completes the
    certificate.
    """
    t = _slice_block_length(lang, n)
    if len(w) != n or not lang.contains(w):
        raise BuilderPreconditionError(f"{w!r} is not a member of {lang.name}({n})")
    rule = _boundary_rule(w, n, t)
    if rule is None:
        raise AssertionError("unreachable: member with both boundary blocks mixed")
    a, b, third = rule
    positions = set(range(1, 2 * t + 1)) | set(range(n - 2 * t + 1, n + 1)) | set(third)
    if a != b:
        # the switch lies between the last a and the first b of the interior;
        # the pure boundary blocks end both searches
        first_b = w.find(b, 2 * t) + 1
        last_a = w.rfind(a, 0, n - 2 * t) + 1
        positions.update(range(max(2 * t + 1, first_b - t), min(n - 2 * t, last_a + t) + 1))
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


class DistinguishingSetStrategy(QueryStrategy):
    """Recognizer reading one fixed distinguishing set, the paper's
    constant-depth construction for bounded slices (classes 4 and 5).

    Picks a smallest position set separating every pair of slice words (exact
    search up to ``MAX_EXACT_DISTINGUISHING`` words, greedy pair cover beyond),
    asks it as one round in increasing order, and finishes with the member
    whose letters there are the answers, or with the lexicographically least
    member when the answers match none (None for an empty slice).  A state is
    the string of the letters answered.  Raises ``CapExceeded`` past
    ``max_slice`` words.
    """

    def __init__(self, lang: Language, n: int, max_slice: int | None = None):
        words = lang.slice(n, max_slice)
        ints = [int(w, 2) for w in words]
        pair_masks = sorted({x ^ y for i, x in enumerate(ints) for y in ints[i + 1 :]})
        if len(words) <= MAX_EXACT_DISTINGUISHING:
            chosen = min_hitting_set(pair_masks)
        else:
            chosen = greedy_hitting_set(pair_masks)
        self.n = n
        self.positions = tuple(sorted(n - b for b in range(n) if chosen >> b & 1))
        bound = slice_size_bound(lang)
        if bound is not None and len(self.positions) > bound * bound:
            raise AssertionError(
                f"distinguishing set larger than the squared slice bound for {lang.name}"
            )
        self._members = dict(zip(map(_letters_at(self.positions), words), words))
        self._least = words[0] if words else None

    def next_action(self, state):
        if len(state) < len(self.positions):
            return Ask(self.positions)
        return Finish(self._members.get(state, self._least))


def distinguishing_set_tree(lang: Language, n: int, max_slice: int | None = None) -> DecisionTree:
    """The complete tree of ``DistinguishingSetStrategy``, expanded by ``materialize_strategy``."""
    return materialize_strategy(DistinguishingSetStrategy(lang, n, max_slice))


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
