"""Reference slice enumerator for differential tests.

This is the enumerator that ``SliceAutomaton.iter_words`` used before it
moved to one letter run at a time: a depth-first descent over the transition
table with one explicit stack frame per prefix letter, pruned only at the dead
state, joining every word from scratch.  It walks O(n * |L(n)|) trie nodes,
which is what makes it a simple, independent check.

``brute_slice`` is the ground-truth slice: a filter of all 2^n words by the
membership predicate, independent of the automaton.

``reference_is_subsequence`` is the subsequence test as it was before it
moved to one ``str.find`` scan per letter: one pass of a ``str`` iterator over
``w``, stepped by a generator.

``reference_count_words`` is ``SliceAutomaton.count_words`` as it was before
it read the counting backward table: a forward pass that carries a dict of
per-state counts over the live states, one letter at a time.

``string_truth_table`` and ``division_index_masks`` are how the membership
oracle built its truth table and index masks before ``SliceAutomaton`` took
them over: the table from the slice's word strings, the masks from one
big-int division each.

``reference_canonicalize_antichain`` is ``canonicalize_antichain`` as it was
before it tested each word only against the minimal words kept so far: it
tests every ordered pair of distinct words.

``CounterAutomaton`` is ``SliceAutomaton`` as it was built before its states
became quotients: the product automaton whose state is a tuple of
per-obstruction progress counters.  It recognizes the same language but is
not minimal; its constructor is the old one, verbatim, and every pass is
inherited, so ``reference_iter_words`` and ``reference_count_words`` walk it
as they walk the quotient automaton.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from subword_trees.language import (
    ALPHABET,
    CapExceeded,
    Language,
    SliceAutomaton,
    _check_length,
    is_subsequence,
    require_word,
    shortlex_key,
)

MAX_BRUTE_N = 22


def brute_slice(lang: Language, n: int, max_n: int = MAX_BRUTE_N) -> list[str]:
    """Ground-truth slice: filter all 2^n words by the membership predicate."""
    if n > max_n:
        raise CapExceeded(f"brute_slice capped at n <= {max_n}, got {n}")
    if n == 0:
        return [""] if lang.contains("") else []
    return [w for i in range(1 << n) if lang.contains(w := format(i, f"0{n}b"))]


def reference_is_subsequence(u: str, w: str) -> bool:
    it = iter(w)
    return all(c in it for c in u)


def reference_canonicalize_antichain(words: Iterable[str]) -> tuple[str, ...]:
    """The subword-minimal words of a word set, deduplicated, in shortlex order."""
    ws = sorted({require_word(w) for w in words}, key=shortlex_key)
    return tuple(
        w for w in ws if not any(u != w and is_subsequence(u, w) for u in ws)
    )


def string_truth_table(lang: Language, n: int) -> int:
    """Bit x is set iff ``format(x, f"0{n}b")`` is a member."""
    table = bytearray(max(1, (1 << n) >> 3))
    for w in lang.iter_slice(n):
        x = int(w or "0", 2)
        table[x >> 3] |= 1 << (x & 7)
    return int.from_bytes(table, "little")


def division_index_masks(k: int) -> tuple[int, ...]:
    """masks[j]: the bits of a 2^k-bit table whose index has bit j clear."""
    ones = (1 << (1 << k)) - 1
    return tuple(((1 << (1 << j)) - 1) * (ones // ((1 << (2 << j)) - 1)) for j in range(k))


def reference_iter_words(aut: SliceAutomaton, n: int) -> Iterator[str]:
    """Members of length ``n`` in lexicographic order."""
    trans = aut._trans
    if aut.start == aut.DEAD:
        return
    if n == 0:
        yield ""
        return
    # explicit stack: one [state, next bit to try] frame per chosen prefix letter
    chars: list[str] = []
    stack: list[list[int]] = [[aut.start, 0]]
    while stack:
        frame = stack[-1]
        if frame[1] > 1:
            stack.pop()
            if chars:
                chars.pop()
            continue
        bit = frame[1]
        frame[1] += 1
        t = trans[frame[0]][bit]
        if t == aut.DEAD:
            continue
        if len(stack) == n:
            yield "".join(chars) + ALPHABET[bit]
        else:
            chars.append(ALPHABET[bit])
            stack.append([t, 0])


def reference_count_words(aut: SliceAutomaton, n: int) -> int:
    """The number of members of length ``n``, by a forward pass."""
    _check_length(n)
    counts = {aut.start: 1} if aut.start != aut.DEAD else {}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for sid, c in counts.items():
            for t in aut._trans[sid]:
                if t != aut.DEAD:
                    nxt[t] = nxt.get(t, 0) + c
        counts = nxt
    return sum(counts.values())


class CounterAutomaton(SliceAutomaton):
    """Product automaton tracking, per obstruction, the longest prefix matched so far.

    A state is a tuple of progress counters.  Reading letter ``b`` advances the
    counter of obstruction ``f`` when ``f[counter] == b``.  The state is dead as
    soon as one obstruction is fully matched; dead is absorbing, so all dead
    states collapse into one.  A word is a member iff its run ends live.
    """

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
