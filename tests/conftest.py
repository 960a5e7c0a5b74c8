import itertools
import random

import pytest

from subword_trees import Language, bundled_language, is_subsequence


def corpus() -> list[Language]:
    """The eight-language test corpus: the five bundled languages plus the
    two-sided avoiders and one closure-defined language."""
    return [
        bundled_language("L1"),
        bundled_language("L2"),
        bundled_language("L3"),
        bundled_language("L4"),
        bundled_language("L5"),
        Language.from_forbidden("avoid-11-00", ["11", "00"]),
        Language.from_forbidden("avoid-010-101", ["010", "101"]),
        Language.from_closure("closure-010", ["010"]),
    ]


def small_languages() -> list[Language]:
    """The bundled languages, three corpus avoiders and ten seeded random antichains."""
    langs = [bundled_language(x) for x in ("L1", "L2", "L3", "L4", "L5")]
    langs.append(Language.from_forbidden("avoid-11-00", ["11", "00"]))
    langs.append(Language.from_forbidden("avoid-010-101", ["010", "101"]))
    langs.append(Language.from_closure("closure-010", ["010"]))
    rng = random.Random(7)
    for i in range(10):
        ws = [
            "".join(rng.choice("01") for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 3))
        ]
        langs.append(Language.from_forbidden(f"rand-{i}", ws))
    return langs


@pytest.fixture(scope="session", name="corpus")
def corpus_fixture() -> list[Language]:
    return corpus()


def words_up_to(max_len: int) -> list[str]:
    """All words of length <= max_len, shortlex order."""
    out = [""]
    for length in range(1, max_len + 1):
        out.extend("".join(p) for p in itertools.product("01", repeat=length))
    return out


def iter_antichains(max_len: int):
    """Every antichain over the words of length <= max_len (including the empty one)."""
    universe = words_up_to(max_len)

    def extend(chosen: list[str], start: int):
        yield tuple(chosen)
        for i in range(start, len(universe)):
            w = universe[i]
            if any(is_subsequence(u, w) or is_subsequence(w, u) for u in chosen):
                continue
            chosen.append(w)
            yield from extend(chosen, i + 1)
            chosen.pop()

    yield from extend([], 0)


def random_antichains(count: int, max_len: int, seed: int) -> list[tuple[str, ...]]:
    """Seeded random antichains, produced by canonicalizing random word sets."""
    from subword_trees import canonicalize_antichain

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(0, 5)
        ws = [
            "".join(rng.choice("01") for _ in range(rng.randint(0, max_len)))
            for _ in range(k)
        ]
        out.append(canonicalize_antichain(ws))
    return out
