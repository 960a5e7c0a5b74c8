"""Reference recognition oracles for differential tests.

The minimax is the subset-bitmask search that ``subword_trees.oracle`` used
before it gained the sensitivity lower bound: a subset stops early only once
it reaches the ``ceil(log2 |S|)`` bound, so it visits nearly every reachable
subset when the optimum is far above that bound.  It tries positions in the
same ascending order and keeps the first optimal one, so its replayed tree is
the one the production oracle must reproduce node for node.

The certificates are the per-word search the oracle used before it read
them off the sensitive positions: one exact hitting-set search per word over
its difference masks with every other member, so the production oracle must
return the identical tuples.
"""

from __future__ import annotations

from subword_trees.language import Language
from subword_trees.oracle import min_hitting_set
from subword_trees.trees import Branch, DecisionTree, Leaf


def reference_recognition_minimax(lang: Language, n: int):
    """Returns (words, optimal depth, split choice per subset, split masks)."""
    words = lang.slice(n)
    k = len(words)
    zero_mask = [0] * n
    for idx, w in enumerate(words):
        for p in range(n):
            if w[p] == "0":
                zero_mask[p] |= 1 << idx
    choices: dict[int, int] = {}
    memo: dict[int, int] = {}

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
                continue
            s1 = S ^ s0
            d0 = h(s0)
            if best is not None and 1 + d0 >= best:
                continue
            cand = 1 + max(d0, h(s1))
            if best is None or cand < best:
                best = cand
                choices[S] = p
                if best == lower:
                    break
        memo[S] = best
        return best

    depth = h((1 << k) - 1) if k > 1 else 0
    return words, depth, choices, zero_mask


def reference_recognition_depth_det(lang: Language, n: int) -> int:
    return reference_recognition_minimax(lang, n)[1]


def reference_optimal_recognition_tree(lang: Language, n: int) -> DecisionTree:
    words, _, choices, zero_mask = reference_recognition_minimax(lang, n)
    if not words:
        return DecisionTree(())

    def build(S: int):
        if S & (S - 1) == 0:
            return Leaf(words[S.bit_length() - 1])
        p = choices[S]
        s0 = S & zero_mask[p]
        return Branch(p + 1, ((0, build(s0)), (1, build(S ^ s0))))

    return DecisionTree((build((1 << len(words)) - 1),))


def reference_recognition_certificates(lang: Language, n: int) -> dict[str, tuple[int, ...]]:
    """Minimum separating position set for every slice word, each by its own
    hitting-set search over all |L(n)| - 1 difference masks."""
    words = lang.slice(n)
    ints = [int(w, 2) for w in words]
    out: dict[str, tuple[int, ...]] = {}
    for w, x in zip(words, ints):
        chosen = min_hitting_set([x ^ y for y in ints if y != x])
        out[w] = tuple(sorted(n - b for b in range(n) if chosen >> b & 1))
    return out


def reference_recognition_depth_nondet(lang: Language, n: int) -> int:
    return max(map(len, reference_recognition_certificates(lang, n).values()), default=0)
