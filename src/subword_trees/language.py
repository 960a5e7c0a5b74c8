"""Binary subword-closed languages, represented by their forbidden-subsequence antichains.

A word is a Python ``str`` over the alphabet ``{'0', '1'}``; the empty string is
the empty word.  A language is the set of all words that avoid every word of a
finite antichain as a subsequence.  Positions are 1-based in every public
interface.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Iterator

ALPHABET = "01"

BUNDLED_NAMES = ("L1", "L2", "L3", "L4", "L5")

# closure_to_antichain scans every word up to one letter past the longest
# generator, so its time grows about fourfold per two more letters
MAX_GENERATOR_LENGTH = 16
MAX_TABLE_N = 20  # membership truth tables: 2^20 bits is 128 KiB
MAX_SLICE = 4096  # recognition searches and validation walk the whole slice


class LanguageSpecError(ValueError):
    """A language description document is malformed."""


class CapExceeded(RuntimeError):
    """The requested instance exceeds the configured exhaustive-search caps."""


def require_word(s: str) -> str:
    """Validate that ``s`` is a word over {0,1}; return it unchanged."""
    if not isinstance(s, str):
        raise LanguageSpecError(f"expected a word string, got {type(s).__name__}")
    if s.strip(ALPHABET):
        raise LanguageSpecError(f"invalid letter in word {s!r}: only '0' and '1' are allowed")
    return s


def is_subsequence(u: str, w: str) -> bool:
    """True iff ``u`` can be obtained from ``w`` by deleting zero or more letters.

    Matches each letter of ``u`` at its first occurrence after the previous
    match, one ``str.find`` scan per letter.
    """
    i = 0
    for c in u:
        i = w.find(c, i) + 1
        if not i:
            return False
    return True


def shortlex_key(w: str) -> tuple[int, str]:
    return (len(w), w)


def all_words(length: int) -> Iterator[str]:
    """All words of exactly the given length, in lexicographic order."""
    for bits in itertools.product(ALPHABET, repeat=length):
        yield "".join(bits)


def canonicalize_antichain(words: Iterable[str]) -> tuple[str, ...]:
    """Reduce a word set to its subword-minimal elements, deduplicated, in shortlex order.

    The represented avoidance language is unchanged: any word dominated by a
    shorter forbidden subword is redundant as an obstruction.
    """
    kept: list[str] = []  # shortlex puts every proper subword of w before w
    for w in sorted({require_word(x) for x in words}, key=shortlex_key):
        if not any(is_subsequence(u, w) for u in kept):
            kept.append(w)
    return tuple(kept)


def closure_to_antichain(generators: Iterable[str]) -> tuple[str, ...]:
    """Obstruction antichain of the downward (subsequence) closure of a finite word set.

    A minimal obstruction has length at most ``max generator length + 1``: any
    longer non-member contains a proper subword that is already too long to be
    a subsequence of any generator, hence itself a non-member.  The bounded
    breadth-first scan below is therefore complete.  It is exponential in that
    length, so generators longer than ``MAX_GENERATOR_LENGTH`` raise
    ``LanguageSpecError``.
    """
    gens = [require_word(g) for g in generators]
    if not gens:
        return ("",)  # the empty language: even the empty word is forbidden
    longest = max(len(g) for g in gens)
    if longest > MAX_GENERATOR_LENGTH:
        raise LanguageSpecError(
            f"closure generators are limited to {MAX_GENERATOR_LENGTH} letters, got one of {longest}"
        )

    limit = longest + 1

    def member(w: str) -> bool:
        return any(is_subsequence(w, g) for g in gens)

    found: list[str] = []
    for length in range(limit + 1):
        for w in all_words(length):
            if member(w):
                continue
            # minimal iff every one-letter deletion is a member
            if all(member(w[:i] + w[i + 1 :]) for i in range(len(w))):
                found.append(w)
    return canonicalize_antichain(found)


@dataclass(frozen=True)
class Language:
    """A subword-closed language given by its canonical obstruction antichain."""

    name: str
    obstructions: tuple[str, ...]

    @classmethod
    def from_forbidden(cls, name: str, words: Iterable[str]) -> "Language":
        return cls(name, canonicalize_antichain(words))

    @classmethod
    def from_closure(cls, name: str, generators: Iterable[str]) -> "Language":
        return cls(name, closure_to_antichain(generators))

    def contains(self, w: str) -> bool:
        """Membership: no obstruction embeds into ``w`` as a subsequence.

        Raises ``LanguageSpecError`` if ``w`` has a letter other than 0 and 1.
        """
        if w.count("0") + w.count("1") != len(w):
            require_word(w)  # raises, naming the word
        return not any(is_subsequence(f, w) for f in self.obstructions)

    def automaton(self) -> "SliceAutomaton":
        return _automaton_for(self.obstructions)

    def slice(self, n: int, max_slice: int | None = None) -> list[str]:
        """All members of exact length ``n``, lexicographically sorted.  The one
        check of the slice cap: raises ``CapExceeded`` past ``max_slice`` words."""
        if max_slice is not None and self.count_slice(n) > max_slice:
            raise CapExceeded(
                f"recognition capped at slices of <= {max_slice} words, got {self.name}({n})"
            )
        return list(self.automaton().iter_words(n))

    def iter_slice(self, n: int) -> Iterator[str]:
        return self.automaton().iter_words(n)

    def slice_splits(
        self, n: int, max_slice: int | None = None
    ) -> tuple[list[str], list[tuple[int, int]]]:
        """The slice in lexicographic order and its splits: ``splits[p - 1]``
        holds the sets of words reading 0 and 1 at position p, bit i standing
        for ``words[i]``.  Raises ``CapExceeded`` as ``slice`` does."""
        words = self.slice(n, max_slice)
        everything = (1 << len(words)) - 1
        letters = "".join(words)  # column p - 1 of the word matrix is letters[p - 1::n]
        ones = [int(letters[p::n][::-1] or "0", 2) for p in range(n)]
        return words, [(c ^ everything, c) for c in ones]

    def count_slice(self, n: int) -> int:
        """``len(slice(n))`` computed by dynamic programming, without enumeration."""
        return self.automaton().count_words(n)

    def first_slice_word(self, n: int) -> str | None:
        """Lexicographically least member of length ``n``, or None."""
        return next(self.iter_slice(n), None)


def agreeing(
    words: list[str], splits: list[tuple[int, int]], i: int, positions: Iterable[int]
) -> int:
    """The word set of the members other than ``words[i]`` that agree with it
    at every one of the 1-based ``positions``: one AND of a split half per
    position.  Empty iff the positions separate ``words[i]``."""
    w = words[i]
    agree = ((1 << len(words)) - 1) ^ 1 << i
    for p in positions:
        agree &= splits[p - 1][int(w[p - 1])]
    return agree


@lru_cache(maxsize=None)
def _automaton_for(obstructions: tuple[str, ...]) -> "SliceAutomaton":
    return SliceAutomaton(obstructions)


class SliceAutomaton:
    """The language's quotient automaton: a state is a left quotient, named by its antichain.

    The left quotient of a subword-closed language by a prefix ``u`` is again
    subword-closed, so it is named by its own obstruction antichain: the
    suffixes of the obstructions that greedy matching leaves after ``u``,
    reduced to the subword-minimal ones.  Reading letter ``b`` strips a
    leading ``b`` from every obstruction that starts with it; the state is
    dead as soon as the empty word is forbidden, and dead is absorbing.  A
    word is a member iff its run ends live.  A language has exactly one
    antichain, so equal quotients share one state and the automaton is
    minimal.

    Deleting a letter keeps membership, so a quotient only shrinks along a
    run: every edge either loops or enters a smaller quotient, and a run
    never returns to a state it has left.  Three passes read the transition
    table: ``_rows`` yields the one backward table row by row, counting per
    state the endings that reach the wanted end; ``count_words`` keeps only
    its last row, and ``_backward`` keeps all of them for ``exists_consistent``
    and for ``find_consistent``, which walks them to the lexicographically
    least witness; ``iter_words`` lists the slice one letter run at a time,
    pruned by that table; and ``truth_table`` builds the slice indicator
    bottom up, one table per state and length.
    Every pass raises ``ValueError`` for a negative length.
    """

    DEAD = 0  # state id reserved for the absorbing dead state

    def __init__(self, obstructions: tuple[str, ...]):
        self.obstructions = obstructions
        ids = {("",): self.DEAD}  # the empty word forbidden: the dead quotient
        quotients: list[tuple[str, ...]] = []  # live quotients, in id order from 1

        def state(quotient: tuple[str, ...]) -> int:
            if quotient not in ids:
                ids[quotient] = len(ids)
                quotients.append(quotient)
            return ids[quotient]

        self.start = state(canonicalize_antichain(obstructions))
        self._trans: list[tuple[int, int]] = [(self.DEAD, self.DEAD)]
        for quotient in quotients:  # grows as new quotients are reached
            self._trans.append(tuple(
                state(canonicalize_antichain(f[1:] if f[0] == b else f for f in quotient))
                for b in ALPHABET
            ))

    def count_words(self, n: int) -> int:
        """The number of members of length ``n``, read off the last backward row alone."""
        for row in self._rows(n, {}, True):
            pass
        return row[self.start]

    count_consistent = count_words  # perfbench/tracer.py wraps both names

    def iter_words(self, n: int) -> Iterator[str]:
        """Members of length ``n`` in lexicographic order, one letter run at a time.

        Every live state other than the obstruction-free start has at most one
        looping letter, and every other edge enters a smaller quotient.  From a
        state looping on ``a`` with ``k`` letters left, the members are ``a^k``
        and, for each ``j``, ``a^j b`` followed by the members of the
        ``b``-successor of length ``k - j - 1``; a successor is entered only
        where the backward table says it is live.  Frames nest once per
        non-looping edge, so the stack depth is bounded by the automaton, not
        by ``n``.
        """
        _check_length(n)
        if self.start == self.DEAD:
            return
        if self._trans[self.start] == (self.start, self.start):  # no obstructions
            yield from all_words(n)
            return
        live = self._backward(n, {}, member=True)
        stack = [self._runs(self.start, n, "", live)]
        while stack:
            for item in stack[-1]:
                if type(item) is str:
                    yield item
                else:
                    stack.append(self._runs(*item, live))
                    break
            else:
                stack.pop()

    def _runs(self, sid: int, k: int, prefix: str, live: list[list[int]]):
        """Members below ``prefix`` in lexicographic order, from state ``sid``
        with ``k`` letters left: finished words, and ``(state, letters left,
        prefix)`` frames for ``iter_words`` to expand in place."""
        t0, t1 = self._trans[sid]
        if t0 == sid:  # 0-loop: 0^k is least, then longer 0-runs before shorter
            yield prefix + "0" * k
            if t1 != self.DEAD:
                for j in range(k - 1, -1, -1):
                    if live[k - j - 1][t1]:
                        yield (t1, k - j - 1, prefix + "0" * j + "1")
        elif t1 == sid:  # 1-loop: every 1^j 0 branch precedes 1^k
            if t0 != self.DEAD:
                for j in range(k):
                    if live[k - j - 1][t0]:
                        yield (t0, k - j - 1, prefix + "1" * j + "0")
            yield prefix + "1" * k
        elif k == 0:
            yield prefix
        else:
            for letter, t in zip(ALPHABET, (t0, t1)):
                if live[k - 1][t]:
                    yield (t, k - 1, prefix + letter)

    def _backward(self, n: int, assignment: dict[int, int], member: bool) -> list[list[int]]:
        """The backward table: ``table[m][sid]`` counts the words of ``m``
        letters that, read from state ``sid`` (dead included) as the last
        ``m`` letters under ``assignment`` (1-based positions to bits), reach
        a member end, or a non-member end if ``member`` is false."""
        return list(self._rows(n, assignment, member))

    def _rows(self, n: int, assignment: dict[int, int], member: bool) -> Iterator[list[int]]:
        """The rows of the backward table, m = 0 to n in order: the one counting pass."""
        _check_length(n)
        trans = self._trans
        row = [int(not member)] + [int(member)] * (len(trans) - 1)  # DEAD is state 0
        yield row
        for pos in range(n, 0, -1):
            forced = assignment.get(pos)
            if forced is None:
                row = [row[t0] + row[t1] for t0, t1 in trans]
            else:
                row = [row[step[forced]] for step in trans]
            yield row

    def find_consistent(self, n: int, assignment: dict[int, int], member: bool) -> str | None:
        """The lexicographically least word matching ``assignment`` (1-based
        positions to bits) with the requested membership, or None."""
        ok = self._backward(n, assignment, member)
        if not ok[n][self.start]:
            return None
        trans = self._trans
        out = []
        sid = self.start
        for pos in range(1, n + 1):
            forced = assignment.get(pos)
            for bit in (0, 1) if forced is None else (forced,):
                t = trans[sid][bit]
                if ok[n - pos][t]:
                    out.append(ALPHABET[bit])
                    sid = t
                    break
        return "".join(out)

    def truth_table(self, n: int) -> int:
        """The slice indicator as a 2^n-bit int: bit x is set iff the word
        ``format(x, f"0{n}b")`` is a member, so position p is index bit n - p.

        The table of the words of length k read from state q is the table of
        its 0-successor for length k - 1, then that of its 1-successor shifted
        past it: ``T_q(k) = T_{q0}(k - 1) | T_{q1}(k - 1) << 2^(k - 1)``.
        Raises ``CapExceeded`` past ``MAX_TABLE_N``.
        """
        _check_table_width(n)
        rows = [0] + [1] * (len(self._trans) - 1)  # length 0: every live state accepts
        for k in range(n):
            rows = [rows[t0] | rows[t1] << (1 << k) for t0, t1 in self._trans]
        return rows[self.start]

    def exists_consistent(self, n: int, assignment: dict[int, int], member: bool) -> bool:
        """Is there a length-n word matching ``assignment`` that is a member (or, if
        ``member`` is false, a non-member)?"""
        return self._backward(n, assignment, member)[n][self.start] > 0


@lru_cache(maxsize=None)  # one entry per table width
def index_masks(k: int) -> tuple[int, ...]:
    """masks[j]: the bits of a 2^k-bit table whose index has bit j clear.

    Mask j is a run of 2^j ones every 2^(j+1) bits; it is built by doubling
    the period-long pattern until it spans the table.
    """
    masks = []
    for j in range(k):
        m = (1 << (1 << j)) - 1
        for s in range(j + 1, k):
            m |= m << (1 << s)
        masks.append(m)
    return tuple(masks)


def cube_splits(n: int) -> list[tuple[int, int]]:
    """The splits of all 2^n words, word x being ``format(x, f"0{n}b")`` as
    in ``truth_table``: ``splits[p - 1]`` holds the sets of indices reading 0
    and 1 at position p, which is index bit n - p.  Raises ``CapExceeded``
    past ``MAX_TABLE_N``."""
    _check_table_width(n)
    ones = (1 << (1 << n)) - 1
    return [(m, m ^ ones) for m in reversed(index_masks(n))]


def _check_length(n: int) -> None:
    if n < 0:
        raise ValueError(f"slice length must be non-negative, got {n}")


def _check_table_width(n: int) -> None:
    _check_length(n)
    if n > MAX_TABLE_N:
        raise CapExceeded(f"truth table capped at n <= {MAX_TABLE_N}, got {n}")


def read_document(path: str, kind: str, error: type[ValueError]) -> str:
    """The text of the UTF-8 file at ``path``, else ``error`` naming the ``kind`` of document."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise error(f"{kind} document is not UTF-8: {exc}") from exc


def decode_document(text: str, kind: str, error: type[ValueError]):
    """The JSON value of ``text``, or else ``error`` worded for the ``kind`` of document."""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the str-digits limit
        raise error(f"malformed {kind} document: {exc}") from exc
    except RecursionError as exc:  # the decoder recurses per nesting level
        raise error(f"{kind} document is nested too deeply") from exc


def parse_language_spec(text: str) -> Language:
    """Parse a language description document.

    The document is a JSON object with a ``name`` and exactly one of
    ``forbidden`` (obstruction words, canonicalized on load) or ``closure_of``
    (generator words, converted to the obstruction antichain of their downward
    closure).  The empty string denotes the empty word.
    """
    doc = decode_document(text, "language", LanguageSpecError)
    if not isinstance(doc, dict):
        raise LanguageSpecError("malformed language document: expected a JSON object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise LanguageSpecError("language document needs a non-empty string 'name'")
    has_forbidden = "forbidden" in doc
    has_closure = "closure_of" in doc
    if has_forbidden and has_closure:
        raise LanguageSpecError("give exactly one of 'forbidden' or 'closure_of', not both")
    if not has_forbidden and not has_closure:
        raise LanguageSpecError("give exactly one of 'forbidden' or 'closure_of'; neither present")
    key = "forbidden" if has_forbidden else "closure_of"
    words = doc[key]
    if not isinstance(words, list) or any(not isinstance(w, str) for w in words):
        raise LanguageSpecError(f"'{key}' must be a list of 0/1 strings")
    if has_forbidden:
        return Language.from_forbidden(name, words)
    return Language.from_closure(name, words)


def load_language(path: str) -> Language:
    return parse_language_spec(read_document(path, "language", LanguageSpecError))


def bundled_path(name: str) -> str:
    """Filesystem path of a bundled language spec (L1..L5)."""
    if name not in BUNDLED_NAMES:
        raise LanguageSpecError(f"no bundled language named {name!r}; known: {BUNDLED_NAMES}")
    return str(resources.files(__package__).joinpath("data", f"{name}.json"))


def bundled_language(name: str) -> Language:
    return load_language(bundled_path(name))
