import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from subword_trees import (
    Language,
    LanguageSpecError,
    all_words,
    bundled_language,
    canonicalize_antichain,
    closure_to_antichain,
    is_subsequence,
    parse_language_spec,
)
from subword_trees.oracle import brute_slice

from conftest import small_languages, words_up_to

word_st = hs.text(alphabet="01", max_size=10)


# -- subsequence order -------------------------------------------------------


def test_subsequence_examples():
    assert is_subsequence("", "0110")
    assert is_subsequence("11", "0101")
    assert not is_subsequence("001", "010")


def test_subsequence_order_laws_exhaustive():
    # reflexivity and antisymmetry over all pairs of length <= 7
    words = words_up_to(7)
    for w in words:
        assert is_subsequence(w, w)
    for u, w in itertools.combinations(words, 2):
        assert not (is_subsequence(u, w) and is_subsequence(w, u)) or u == w


def test_subsequence_transitive_exhaustive_small():
    words = words_up_to(4)
    for u in words:
        for v in words:
            if not is_subsequence(u, v):
                continue
            for w in words:
                if is_subsequence(v, w):
                    assert is_subsequence(u, w)


@given(u=word_st, v=word_st, w=word_st)
def test_subsequence_transitive_random(u, v, w):
    if is_subsequence(u, v) and is_subsequence(v, w):
        assert is_subsequence(u, w)


@given(w=word_st, mask=hs.lists(hs.booleans(), max_size=10))
def test_deleting_letters_gives_subsequence(w, mask):
    kept = "".join(c for c, keep in zip(w, mask) if keep)
    assert is_subsequence(kept, w)


# -- antichain canonicalization ----------------------------------------------


def test_canonicalize_examples():
    assert canonicalize_antichain(["11", "011"]) == ("11",)
    assert canonicalize_antichain(["10", "10"]) == ("10",)
    assert canonicalize_antichain(["", "0", "1"]) == ("",)


def test_canonicalize_idempotent_and_language_preserving():
    import random

    rng = random.Random(5)
    for _ in range(50):
        ws = [
            "".join(rng.choice("01") for _ in range(rng.randint(0, 5)))
            for _ in range(rng.randint(0, 6))
        ]
        canon = canonicalize_antichain(ws)
        assert canonicalize_antichain(canon) == canon
        raw = Language("raw", tuple(sorted(set(ws), key=lambda w: (len(w), w))))
        cooked = Language("cooked", canon)
        for w in words_up_to(8):
            assert raw.contains(w) == cooked.contains(w)


def test_canonicalize_rejects_bad_letters():
    with pytest.raises(LanguageSpecError):
        canonicalize_antichain(["12"])


# -- downward closure --------------------------------------------------------


def test_closure_examples():
    assert closure_to_antichain(["010"]) == ("11", "000", "001", "100")
    assert closure_to_antichain(["0"]) == ("1", "00")
    assert closure_to_antichain([]) == ("",)


@given(
    gens=hs.lists(hs.text(alphabet="01", max_size=5), max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_closure_round_trip(gens):
    lang = Language.from_closure("c", gens)
    limit = max((len(g) for g in gens), default=0)
    for w in words_up_to(limit + 2):
        expected = any(is_subsequence(w, g) for g in gens)
        assert lang.contains(w) == expected


# -- membership, slices, counting --------------------------------------------


def test_contains_examples():
    assert not Language.from_forbidden("x", ["11"]).contains("0101")
    assert Language.from_forbidden("x", ["10"]).contains("0011")
    assert not Language.from_forbidden("empty", [""]).contains("0")


@pytest.mark.parametrize("word", ["2x", "2", "0a1", "01 ", "１"])
def test_contains_rejects_non_binary_letters(word):
    for obstructions in (["11"], [], [""]):
        with pytest.raises(LanguageSpecError):
            Language.from_forbidden("x", obstructions).contains(word)


def test_slice_examples():
    assert Language.from_forbidden("x", ["10"]).slice(2) == ["00", "01", "11"]
    assert Language.from_forbidden("empty", [""]).slice(3) == []
    assert Language.from_forbidden("full", []).slice(2) == ["00", "01", "10", "11"]


def test_count_slice_examples():
    assert Language.from_forbidden("x", ["11"]).count_slice(3) == 4
    assert Language.from_forbidden("x", ["10"]).count_slice(5) == 6
    assert Language.from_forbidden("full", []).count_slice(10) == 1024


def test_slice_matches_brute_slice(corpus):
    for lang in corpus:
        for n in range(1, 15):
            enumerated = lang.slice(n)
            assert enumerated == brute_slice(lang, n)
            assert lang.count_slice(n) == len(enumerated)


@given(words=hs.lists(hs.text(alphabet="01", max_size=5), max_size=4))
@settings(max_examples=100, deadline=None)
def test_slice_matches_brute_slice_random_languages(words):
    lang = Language.from_forbidden("x", words)
    for n in range(0, 8):
        assert lang.slice(n) == brute_slice(lang, n)
        assert lang.count_slice(n) == len(lang.slice(n))


def test_slices_are_subword_closed(corpus):
    # every subword of a member is a member
    for lang in corpus:
        for n in range(1, 11):
            for w in lang.iter_slice(n):
                for keep in itertools.product((False, True), repeat=n):
                    u = "".join(c for c, k in zip(w, keep) if k)
                    assert lang.contains(u), (lang.name, w, u)


def test_first_slice_word(corpus):
    for lang in corpus:
        for n in range(1, 10):
            words = lang.slice(n)
            assert lang.first_slice_word(n) == (words[0] if words else None)


@pytest.mark.parametrize(
    "call",
    [
        lambda lang: lang.count_slice(-1),
        lambda lang: lang.slice(-1),
        lambda lang: lang.first_slice_word(-1),
        lambda lang: lang.automaton().count_consistent(-1, {1: 0}),
        lambda lang: lang.automaton().exists_consistent(-1, {}, member=False),
        lambda lang: lang.automaton().find_consistent(-1, {}, member=True),
    ],
)
def test_negative_slice_length_is_rejected(call):
    for obstructions in (["11"], [""]):
        with pytest.raises(ValueError, match="non-negative"):
            call(Language.from_forbidden("x", obstructions))


# -- automaton passes against a brute filter of all words --------------------


def assert_automaton_passes_match_brute(lang):
    aut = lang.automaton()
    rng = random.Random(",".join(lang.obstructions))
    for n in range(0, 9):
        words = list(all_words(n))
        is_member = {w: lang.contains(w) for w in words}
        assert aut.first_word(n) == min((w for w in words if is_member[w]), default=None)
        assert aut.count_words(n) == sum(is_member.values())
        for _ in range(6):
            assignment = {p: rng.randint(0, 1) for p in range(1, n + 1) if rng.random() < 0.4}
            prefer = rng.choice(words)
            consistent = [
                w for w in words if all(int(w[p - 1]) == b for p, b in assignment.items())
            ]
            where = (lang.obstructions, n, assignment, prefer)
            assert aut.count_consistent(n, assignment) == sum(
                is_member[w] for w in consistent
            ), where
            for member in (True, False):
                matching = [w for w in consistent if is_member[w] == member]
                assert aut.exists_consistent(n, assignment, member) == bool(matching), where
                assert aut.find_consistent(n, assignment, member) == min(
                    matching, default=None
                ), where
                # distinct matching words first differ at a free position, where
                # exactly one of them agrees with prefer: the maximum is unique
                closest = max(
                    matching, key=lambda w: [a == b for a, b in zip(w, prefer)], default=None
                )
                assert aut.find_consistent(n, assignment, member, prefer=prefer) == closest, where


def test_automaton_passes_match_brute_filter():
    for lang in small_languages() + [
        Language.from_forbidden("empty", [""]),
        Language.from_forbidden("full", []),
    ]:
        assert_automaton_passes_match_brute(lang)


@given(words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=4), max_size=4))
@settings(max_examples=25, deadline=None)
def test_automaton_passes_match_brute_filter_on_drawn_antichains(words):
    assert_automaton_passes_match_brute(Language.from_forbidden("drawn", words))


# -- document parsing ---------------------------------------------------------


def test_parse_forbidden_document():
    lang = parse_language_spec('{"name":"L1","forbidden":["11"]}')
    assert lang.name == "L1" and lang.obstructions == ("11",)


def test_parse_closure_document():
    lang = parse_language_spec('{"name":"X","closure_of":["010"]}')
    assert lang.obstructions == ("11", "000", "001", "100")


@pytest.mark.parametrize(
    "doc,fragment",
    [
        ('{"name":"bad","forbidden":["12"]}', "invalid letter"),
        ('{"name":"bad"}', "neither"),
        ('{"name":"bad","forbidden":[],"closure_of":[]}', "not both"),
        ('{"forbidden":[]}', "name"),
        ("{nonsense", "malformed"),
        ('{"name":"bad","forbidden":"11"}', "list"),
        ('{"name":"bad","closure_of":["0","01010101010101010"]}', "limited to 16 letters"),
    ],
)
def test_parse_errors_are_distinct(doc, fragment):
    with pytest.raises(LanguageSpecError) as err:
        parse_language_spec(doc)
    assert fragment in str(err.value)


def test_bundled_languages_load():
    expected = {
        "L1": ("11",),
        "L2": (),
        "L3": ("10",),
        "L4": ("1",),
        "L5": ("1", "00"),
    }
    for name, obstructions in expected.items():
        lang = bundled_language(name)
        assert lang.name == name
        assert lang.obstructions == obstructions


def test_empty_vs_full_language_edge_cases():
    empty = Language.from_forbidden("empty", [""])
    full = Language.from_forbidden("full", [])
    assert not empty.contains("")
    assert full.contains("")
    assert empty.count_slice(4) == 0
    assert full.count_slice(4) == 16


def test_all_words():
    assert list(all_words(0)) == [""]
    assert list(all_words(2)) == ["00", "01", "10", "11"]
