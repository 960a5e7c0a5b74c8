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


class LanguageSpecError(ValueError):
    """A language description document is malformed."""


def require_word(s: str) -> str:
    """Validate that ``s`` is a word over {0,1}; return it unchanged."""
    if not isinstance(s, str):
        raise LanguageSpecError(f"expected a word string, got {type(s).__name__}")
    if s.strip(ALPHABET):
        raise LanguageSpecError(f"invalid letter in word {s!r}: only '0' and '1' are allowed")
    return s


def is_subsequence(u: str, w: str) -> bool:
    """True iff ``u`` can be obtained from ``w`` by deleting zero or more letters."""
    it = iter(w)
    return all(c in it for c in u)


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
    ws = sorted({require_word(w) for w in words}, key=shortlex_key)
    return tuple(
        w for w in ws if not any(u != w and is_subsequence(u, w) for u in ws)
    )


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
        if w.strip(ALPHABET):
            require_word(w)  # raises, naming the word
        return not any(is_subsequence(f, w) for f in self.obstructions)

    def automaton(self) -> "SliceAutomaton":
        return _automaton_for(self.obstructions)

    def slice(self, n: int) -> list[str]:
        """All members of exact length ``n``, lexicographically sorted."""
        return list(self.automaton().iter_words(n))

    def iter_slice(self, n: int) -> Iterator[str]:
        return self.automaton().iter_words(n)

    def count_slice(self, n: int) -> int:
        """``len(slice(n))`` computed by dynamic programming, without enumeration."""
        return self.automaton().count_words(n)

    def first_slice_word(self, n: int) -> str | None:
        """Lexicographically least member of length ``n``, or None."""
        return self.automaton().first_word(n)


@lru_cache(maxsize=None)
def _automaton_for(obstructions: tuple[str, ...]) -> "SliceAutomaton":
    return SliceAutomaton(obstructions)


class SliceAutomaton:
    """Product automaton tracking, per obstruction, the longest prefix matched so far.

    A state is a tuple of progress counters.  Reading letter ``b`` advances the
    counter of obstruction ``f`` when ``f[counter] == b``.  The state is dead as
    soon as one obstruction is fully matched; dead is absorbing, so all dead
    states collapse into one.  A word is a member iff its run ends live.

    Three passes read the transition table: ``count_consistent`` counts forward
    (``count_words`` is the same pass with no assignment), ``find_consistent``
    builds the one backward table of states that can still reach the wanted end
    and walks it to a witness (``exists_consistent`` and ``first_word`` ask it),
    and ``iter_words`` lists the slice.  Every pass raises ``ValueError`` for a
    negative length.
    """

    DEAD = 0  # state id reserved for the absorbing dead state

    def __init__(self, obstructions: tuple[str, ...]):
        self.obstructions = obstructions
        lens = [len(f) for f in obstructions]
        start = tuple(0 for _ in obstructions)
        self._ids: dict[tuple[int, ...], int] = {}
        self._trans: list[tuple[int, int]] = [(self.DEAD, self.DEAD)]
        if any(l == 0 for l in lens):  # the empty word is forbidden: everything dead
            self.start = self.DEAD
            return
        self._ids[start] = 1
        self._trans.append((0, 0))  # placeholder, filled below
        self.start = 1
        queue = [start]
        while queue:
            state = queue.pop()
            sid = self._ids[state]
            nxt = []
            for bit in (0, 1):
                letter = ALPHABET[bit]
                prog = tuple(
                    c + 1 if f[c] == letter else c
                    for c, f in zip(state, obstructions)
                )
                if any(c == l for c, l in zip(prog, lens)):
                    nxt.append(self.DEAD)
                    continue
                tid = self._ids.get(prog)
                if tid is None:
                    tid = len(self._trans)
                    self._ids[prog] = tid
                    self._trans.append((0, 0))
                    queue.append(prog)
                nxt.append(tid)
            self._trans[sid] = (nxt[0], nxt[1])

    def count_consistent(self, n: int, assignment: dict[int, int] | None = None) -> int:
        """Members of length ``n`` whose letter at each assigned (1-based) position
        matches; with no assignment, the size of the slice."""
        _check_length(n)
        assignment = assignment or {}
        counts = {self.start: 1} if self.start != self.DEAD else {}
        for pos in range(1, n + 1):
            forced = assignment.get(pos)
            bits = (0, 1) if forced is None else (forced,)
            nxt: dict[int, int] = {}
            for sid, c in counts.items():
                for bit in bits:
                    t = self._trans[sid][bit]
                    if t != self.DEAD:
                        nxt[t] = nxt.get(t, 0) + c
            counts = nxt
        return sum(counts.values())

    count_words = count_consistent

    def iter_words(self, n: int) -> Iterator[str]:
        """Members of length ``n`` in lexicographic order, by dead-state-pruned descent."""
        _check_length(n)
        if self.start == self.DEAD:
            return
        if n == 0:
            yield ""
            return
        # explicit stack: one [state, next bit to try] frame per chosen prefix letter
        chars: list[str] = []
        stack: list[list[int]] = [[self.start, 0]]
        while stack:
            frame = stack[-1]
            if frame[1] > 1:
                stack.pop()
                if chars:
                    chars.pop()
                continue
            bit = frame[1]
            frame[1] += 1
            t = self._trans[frame[0]][bit]
            if t == self.DEAD:
                continue
            if len(stack) == n:
                yield "".join(chars) + ALPHABET[bit]
            else:
                chars.append(ALPHABET[bit])
                stack.append([t, 0])

    def find_consistent(
        self, n: int, assignment: dict[int, int], member: bool, prefer: str | None = None
    ) -> str | None:
        """A witness word matching ``assignment`` with the requested membership, or None.

        Without ``prefer`` the witness is the lexicographically least one.  With
        ``prefer`` set, the search tries that word's letter first at every free
        position, so the witness agrees with it as long as possible.
        """
        _check_length(n)
        trans = self._trans
        # backward table: states (dead included) from which the target end is reachable
        ok = [set(range(1, len(trans))) if member else {self.DEAD}]
        for pos in range(n, 0, -1):
            nxt = ok[-1]
            forced = assignment.get(pos)
            if forced is None:
                ok.append({sid for sid, (t0, t1) in enumerate(trans) if t0 in nxt or t1 in nxt})
            else:
                ok.append({sid for sid, step in enumerate(trans) if step[forced] in nxt})
        ok.reverse()  # ok[i] now indexed by letters read
        if self.start not in ok[0]:
            return None
        out = []
        sid = self.start
        for pos in range(1, n + 1):
            forced = assignment.get(pos)
            if forced is not None:
                order = (forced,)
            elif prefer is not None:
                first = int(prefer[pos - 1])
                order = (first, 1 - first)
            else:
                order = (0, 1)
            for bit in order:
                t = trans[sid][bit]
                if t in ok[pos]:
                    out.append(ALPHABET[bit])
                    sid = t
                    break
        return "".join(out)

    def exists_consistent(self, n: int, assignment: dict[int, int], member: bool) -> bool:
        """Is there a length-n word matching ``assignment`` that is a member (or, if
        ``member`` is false, a non-member)?"""
        return self.find_consistent(n, assignment, member) is not None

    def first_word(self, n: int) -> str | None:
        """Lexicographically least member of length ``n``, or None."""
        return self.find_consistent(n, {}, member=True)


def _check_length(n: int) -> None:
    if n < 0:
        raise ValueError(f"slice length must be non-negative, got {n}")


def parse_language_spec(text: str) -> Language:
    """Parse a language description document.

    The document is a JSON object with a ``name`` and exactly one of
    ``forbidden`` (obstruction words, canonicalized on load) or ``closure_of``
    (generator words, converted to the obstruction antichain of their downward
    closure).  The empty string denotes the empty word.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LanguageSpecError(f"malformed language document: {exc}") from exc
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_language_spec(fh.read())


def bundled_path(name: str) -> str:
    """Filesystem path of a bundled language spec (L1..L5)."""
    if name not in BUNDLED_NAMES:
        raise LanguageSpecError(f"no bundled language named {name!r}; known: {BUNDLED_NAMES}")
    return str(resources.files(__package__).joinpath("data", f"{name}.json"))


def bundled_language(name: str) -> Language:
    return load_language(bundled_path(name))
