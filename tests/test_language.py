import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from subword_trees import (
    DecisionTree,
    Language,
    Leaf,
    LanguageSpecError,
    SliceAutomaton,
    all_words,
    bundled_language,
    canonicalize_antichain,
    closure_to_antichain,
    is_subsequence,
    parse_language_spec,
    validate_membership,
)
from subword_trees.language import MAX_TABLE_N, CapExceeded, cube_splits, index_masks

from conftest import iter_antichains, small_languages, words_up_to
from reference_language import (
    CounterAutomaton,
    brute_slice,
    division_index_masks,
    reference_canonicalize_antichain,
    reference_count_words,
    reference_is_subsequence,
    reference_iter_words,
    string_truth_table,
)

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


def test_subsequence_matches_reference_exhaustive():
    words = words_up_to(6)
    for u in words:
        for w in words:
            assert is_subsequence(u, w) == reference_is_subsequence(u, w), (u, w)


@given(
    u=hs.text(alphabet="01", max_size=300),
    w=hs.text(alphabet="01", max_size=300),
    mask=hs.lists(hs.booleans(), max_size=300),
    extra=hs.text(alphabet="01", min_size=1, max_size=3),
    at=hs.integers(0, 300),
)
def test_subsequence_matches_reference_on_long_words(u, w, mask, extra, at):
    # a drawn pair, a subsequence of w, one with letters inserted, one
    # longer than w, and the empty word, each on both sides
    kept = "".join(c for c, keep in zip(w, mask) if keep)
    for v in (u, kept, kept[:at] + extra + kept[at:], w + extra, ""):
        assert is_subsequence(v, w) == reference_is_subsequence(v, w), (v, w)
        assert is_subsequence(w, v) == reference_is_subsequence(w, v), (w, v)


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


def canonical_outcome(canonicalize, words):
    """The antichain, or the message of the ``LanguageSpecError`` raised."""
    try:
        return canonicalize(words)
    except LanguageSpecError as exc:
        return str(exc)


def test_canonicalize_matches_reference():
    # drawn word lists with duplicates and empty words; every tenth holds a bad letter
    rng = random.Random(25)
    for i in range(3000):
        ws = [
            "".join(rng.choice("01") for _ in range(rng.randint(0, 6)))
            for _ in range(rng.randint(0, 8))
        ]
        ws += rng.choices(ws, k=rng.randint(1, 3)) if ws else [""]
        if i % 10 == 0:
            ws.insert(rng.randint(0, len(ws)), "0" * rng.randint(0, 3) + "2")
        want = canonical_outcome(reference_canonicalize_antichain, ws)
        assert canonical_outcome(canonicalize_antichain, ws) == want, ws
        assert isinstance(want, str) == (i % 10 == 0), ws


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


@pytest.mark.parametrize(
    "word",
    [
        "2x",
        "2",
        "0a1",
        "01 ",
        "１",
        pytest.param("2" + "0" * 999, id="2-then-999-zeros"),
        pytest.param("0" * 999 + "2", id="999-zeros-then-2"),
        pytest.param("0" * 500 + " " + "1" * 499, id="space-at-501-of-1000"),
        pytest.param("0" * 500 + "１" + "1" * 499, id="fullwidth-1-at-501-of-1000"),
    ],
)
def test_contains_rejects_non_binary_letters(word):
    for obstructions in (["11"], [], [""]):
        with pytest.raises(LanguageSpecError):
            Language.from_forbidden("x", obstructions).contains(word)


def test_contains_matches_reference_on_long_words():
    rng = random.Random(14)
    for lang in (
        bundled_language("L3"),
        Language.from_forbidden("avoid-010-101", ["010", "101"]),
        Language.from_forbidden("avoid-001-010-0111", ["001", "010", "0111"]),
    ):
        members = rng.sample(lang.slice(1000), 20)
        flipped = []  # one letter of each member flipped: mostly near misses
        for w in members:
            p = rng.randrange(1000)
            flipped.append(w[:p] + "10"[int(w[p])] + w[p + 1 :])
        drawn = ["".join(rng.choice("01") for _ in range(1000)) for _ in range(20)]
        verdicts = set()
        for w in members + flipped + drawn:
            want = not any(reference_is_subsequence(f, w) for f in lang.obstructions)
            assert lang.contains(w) == want, (lang.name, w)
            verdicts.add(want)
        assert verdicts == {True, False}, lang.name


@given(
    obstructions=hs.lists(hs.text(alphabet="01", max_size=5), max_size=6),
    words=hs.lists(hs.text(alphabet="01", max_size=12), max_size=20),
)
@settings(max_examples=200, deadline=None)
def test_contains_matches_the_subsequence_scan_on_raw_word_tuples(obstructions, words):
    # raw tuples: duplicates, the empty word and dominated words are all kept
    for raw in (tuple(obstructions), tuple(obstructions) * 2, ("",), ()):
        lang = Language("raw", raw)
        for w in words + [""]:
            assert lang.contains(w) == (not any(is_subsequence(f, w) for f in raw)), (raw, w)
        with pytest.raises(LanguageSpecError, match="'0a1'"):
            lang.contains("0a1")


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
        lambda lang: lang.automaton().count_consistent(-1),
        lambda lang: lang.automaton().exists_consistent(-1, {}, member=False),
        lambda lang: lang.automaton().find_consistent(-1, {}, member=True),
        lambda lang: lang.automaton().truth_table(-1),
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
        assert lang.first_slice_word(n) == min((w for w in words if is_member[w]), default=None)
        assert aut.count_words(n) == sum(is_member.values())
        for _ in range(6):
            assignment = {p: rng.randint(0, 1) for p in range(1, n + 1) if rng.random() < 0.4}
            consistent = [
                w for w in words if all(int(w[p - 1]) == b for p, b in assignment.items())
            ]
            where = (lang.obstructions, n, assignment)
            for member in (True, False):
                matching = [w for w in consistent if is_member[w] == member]
                assert aut._backward(n, assignment, member)[n][aut.start] == len(matching), where
                assert aut.exists_consistent(n, assignment, member) == bool(matching), where
                assert aut.find_consistent(n, assignment, member) == min(
                    matching, default=None
                ), where


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


# -- the counting backward table against the forward counter -----------------

# far past brute force: the counts reach hundreds of digits
COUNT_LENGTHS = list(range(0, 41)) + [63, 64, 100, 257, 600, 1000]


def assert_count_words_match_reference(lang):
    aut = lang.automaton()
    for n in COUNT_LENGTHS:
        assert aut.count_words(n) == reference_count_words(aut, n), (lang.obstructions, n)


def test_count_words_match_reference():
    for lang in small_languages() + [
        Language.from_forbidden("avoid-001-010-0111", ["001", "010", "0111"]),
        Language.from_forbidden("avoid-001-0000-0111", ["001", "0000", "0111"]),
        Language.from_forbidden("avoid-01-0000", ["01", "0000"]),
        Language.from_forbidden("avoid-0101-1010", ["0101", "1010"]),
        Language.from_forbidden("empty", [""]),
        Language.from_forbidden("full", []),
    ]:
        assert_count_words_match_reference(lang)


@given(words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=5), max_size=5))
@settings(max_examples=25, deadline=None)
def test_count_words_match_reference_on_drawn_antichains(words):
    assert_count_words_match_reference(Language.from_forbidden("drawn", words))


def test_count_words_reads_the_last_row_of_the_backward_table(corpus):
    for lang in corpus:
        aut = lang.automaton()
        for n in range(13):
            assert aut.count_words(n) == aut._backward(n, {}, True)[n][aut.start], (lang.name, n)


def test_count_words_holds_one_row_at_a_time():
    # the whole table of L2(20000) holds 20,001 rows of counts up to 2^20000
    aut = bundled_language("L2").automaton()
    tracemalloc.start()
    try:
        count = aut.count_words(20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 2**20000
    assert peak < 1 << 20, peak


# -- run-length enumeration against the trie walk ----------------------------

# lengths checked against the reference enumerator; slices above the word cap
# are skipped, since the reference walks every trie node
ENUM_LENGTHS = list(range(0, 17)) + [23, 40, 41, 64, 100, 127, 200]
ENUM_WORD_CAP = 4096


def assert_iter_words_match_reference(lang, lengths=ENUM_LENGTHS):
    aut = lang.automaton()
    for n in lengths:
        if aut.count_words(n) > ENUM_WORD_CAP:
            continue
        assert list(aut.iter_words(n)) == list(reference_iter_words(aut, n)), (lang.obstructions, n)


def test_iter_words_match_reference():
    for lang in small_languages() + [
        Language.from_forbidden("avoid-001-010-0111", ["001", "010", "0111"]),
        Language.from_forbidden("avoid-001-0000-0111", ["001", "0000", "0111"]),
        Language.from_forbidden("empty", [""]),
    ]:
        assert_iter_words_match_reference(lang)
    assert_iter_words_match_reference(Language.from_forbidden("full", []), range(0, 13))


@given(words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=4), max_size=4))
@settings(max_examples=25, deadline=None)
def test_iter_words_match_reference_on_drawn_antichains(words):
    assert_iter_words_match_reference(Language.from_forbidden("drawn", words))


@given(words=hs.lists(hs.text(alphabet="01", max_size=5), max_size=6))
@settings(max_examples=100, deadline=None)
def test_horizon_matches_the_backward_table(words):
    # a state reads a member of length k iff k is at most its horizon
    aut = Language.from_forbidden("drawn", words).automaton()
    table = aut._backward(14, {}, member=True)
    for k in range(15):
        assert [bool(c) for c in table[k]] == [k <= h for h in aut.horizon], (words, k)


# -- truth tables against the slice's word strings ------------------------------


def assert_truth_table_matches_strings(lang, lengths=range(0, 13)):
    aut = lang.automaton()
    for n in lengths:
        assert aut.truth_table(n) == string_truth_table(lang, n), (lang.obstructions, n)


def test_truth_table_matches_strings():
    for lang in small_languages() + [
        Language.from_forbidden("empty", [""]),
        Language.from_forbidden("full", []),
    ]:
        assert_truth_table_matches_strings(lang)
    for name in ("L1", "L2", "L3", "L4", "L5"):
        assert_truth_table_matches_strings(bundled_language(name), (16, 20))


@given(words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=4), max_size=4))
@settings(max_examples=25, deadline=None)
def test_truth_table_matches_strings_on_drawn_antichains(words):
    assert_truth_table_matches_strings(Language.from_forbidden("drawn", words))


def test_truth_table_is_capped_at_table_width():
    L1 = bundled_language("L1")
    with pytest.raises(CapExceeded, match="capped at n <= 20"):
        L1.automaton().truth_table(MAX_TABLE_N + 1)
    # the library validator reads the table, so it stops there too
    with pytest.raises(CapExceeded, match="capped at n <= 20"):
        validate_membership(DecisionTree((Leaf("1"),)), L1, 30)


# -- the quotient automaton against the counter automaton ------------------------


def moore_class_count(aut: SliceAutomaton) -> int:
    """The number of classes of states that accept the same words: Moore's
    refinement over the transition table, from dead against live, then by the
    classes of the successors until no class splits."""
    classes = [int(sid != aut.DEAD) for sid in range(len(aut._trans))]
    while True:
        signatures: dict[tuple[int, int, int], int] = {}
        refined = [
            signatures.setdefault((classes[sid], classes[t0], classes[t1]), len(signatures))
            for sid, (t0, t1) in enumerate(aut._trans)
        ]
        if len(signatures) == len(set(classes)):
            return len(signatures)
        classes = refined


def assert_quotient_automaton_matches_counters(obstructions, assignments):
    aut, ref = SliceAutomaton(obstructions), CounterAutomaton(obstructions)
    for n in range(0, 11):
        where = (obstructions, n)
        assert aut.count_words(n) == reference_count_words(ref, n), where
        assert list(aut.iter_words(n)) == list(reference_iter_words(ref, n)), where
        assert aut.truth_table(n) == ref.truth_table(n), where
        for assignment in assignments:
            forced = {p: b for p, b in assignment.items() if p <= n}
            for member in (True, False):
                got = aut.find_consistent(n, forced, member)
                assert got == ref.find_consistent(n, forced, member), (where, forced, member)


def test_quotient_automaton_matches_counter_automaton_on_small_antichains():
    rng = random.Random(24)
    for obstructions in iter_antichains(3):
        assignments = [
            {p: rng.randint(0, 1) for p in range(1, 11) if rng.random() < 0.3} for _ in range(3)
        ]
        assert_quotient_automaton_matches_counters(obstructions, assignments)


@given(
    words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=5), max_size=5),
    assignments=hs.lists(
        hs.dictionaries(hs.integers(1, 10), hs.integers(0, 1), max_size=6), max_size=3
    ),
)
@settings(max_examples=40, deadline=None)
def test_quotient_automaton_matches_counter_automaton_on_drawn_antichains(words, assignments):
    assert_quotient_automaton_matches_counters(tuple(words), assignments)


def test_quotient_automaton_is_minimal():
    for lang in small_languages() + [
        Language.from_forbidden("avoid-001-010-0111", ["001", "010", "0111"]),
        Language.from_forbidden("avoid-001-0000-0111", ["001", "0000", "0111"]),
        Language.from_forbidden("avoid-01-0000", ["01", "0000"]),
        Language.from_forbidden("avoid-0101-1010", ["0101", "1010"]),
        Language.from_forbidden("avoid-0100-1011", ["0100", "1011"]),
        Language.from_forbidden("empty", [""]),
        Language.from_forbidden("full", []),
    ]:
        aut, ref = lang.automaton(), CounterAutomaton(lang.obstructions)
        assert moore_class_count(aut) == len(aut._trans), lang.name
        assert len(aut._trans) <= len(ref._trans), lang.name
    # the refinement sees the counter automaton's equal quotients
    ref = CounterAutomaton(("001", "0000", "0111"))
    assert (len(ref._trans), moore_class_count(ref)) == (11, 7)
    assert len(SliceAutomaton(("001", "0000", "0111"))._trans) == 7


@given(words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=5), max_size=5))
@settings(max_examples=60, deadline=None)
def test_quotient_automaton_is_minimal_on_drawn_antichains(words):
    aut = SliceAutomaton(tuple(words))
    assert moore_class_count(aut) == len(aut._trans)
    assert len(aut._trans) <= len(CounterAutomaton(tuple(words))._trans)


def test_quotient_automaton_of_many_long_obstructions_stays_small():
    # the 252 words of length 10 with five 1s: the counter automaton has
    # 18,410 states, the quotient automaton 36, dead included
    words = tuple(w for w in all_words(10) if w.count("1") == 5)
    aut = SliceAutomaton(words)
    assert len(words) == 252
    assert len(aut._trans) == 36
    assert aut.count_words(20) == 12392


# -- word-set splits against a per-word construction ------------------------------


def assert_splits_match_words(words, splits, n):
    """``splits[p - 1]`` is (words reading 0 at p, words reading 1 at p)."""
    assert len(splits) == n
    for p in range(1, n + 1):
        want = tuple(
            sum(1 << i for i, w in enumerate(words) if w[p - 1] == letter) for letter in "01"
        )
        assert splits[p - 1] == want, (n, p)


def test_slice_splits_match_per_word_construction():
    for lang in small_languages() + [
        Language.from_forbidden("stress", ["001", "010", "0111"]),
        Language.from_forbidden("empty", [""]),
        Language.from_forbidden("full", []),
    ]:
        for n in range(0, 13):
            words, splits = lang.slice_splits(n)
            assert words == lang.slice(n)
            assert_splits_match_words(words, splits, n)
    L3 = bundled_language("L3")
    assert_splits_match_words(*L3.slice_splits(1000), 1000)


def test_slice_holds_the_slice_cap():
    L3 = bundled_language("L3")
    for read in (L3.slice, L3.slice_splits):
        with pytest.raises(CapExceeded) as got:
            read(300, 300)
        assert str(got.value) == "recognition capped at slices of <= 300 words, got L3(300)"
    assert L3.slice(300, 301) == L3.slice(300) == L3.slice_splits(300, 301)[0]


def test_cube_splits_match_per_word_construction():
    for n in range(0, 11):
        words = [format(x, f"0{n}b") if n else "" for x in range(1 << n)]
        assert_splits_match_words(words, cube_splits(n), n)


def test_index_masks_match_division_formula():
    for k in range(0, 21):
        assert index_masks(k) == division_index_masks(k), k


def test_iter_words_opens_only_frames_that_lead_to_words(monkeypatch):
    # the backward table keeps the enumerator linear in its output: every
    # frame it opens leads to a word, and a word lies below one frame per
    # advancing edge of its run plus the root frame.  Without the table,
    # Avoid{10,11} at n = 200 opens a frame for each of the 200 0-runs and
    # only two of them lead to a word.
    opened = []
    runs = SliceAutomaton._runs

    def counting_runs(self, *args):
        opened.append(args[:2])
        return runs(self, *args)

    monkeypatch.setattr(SliceAutomaton, "_runs", counting_runs)
    for lang in small_languages() + [
        Language.from_forbidden("avoid-10-11", ["10", "11"]),
        Language.from_forbidden("avoid-00-01", ["00", "01"]),
        Language.from_forbidden("avoid-00-01-10-11", ["00", "01", "10", "11"]),
        Language.from_forbidden("avoid-001-0000-0111", ["001", "0000", "0111"]),
    ]:
        depth = 1 + sum(len(f) for f in lang.obstructions)
        for n in (0, 1, 5, 40, 200):
            if lang.count_slice(n) > ENUM_WORD_CAP:
                continue
            opened.clear()
            words = sum(1 for _ in lang.iter_slice(n))
            assert len(opened) <= max(words, 1) * depth, (lang.obstructions, n, words, len(opened))


def test_iter_words_long_slice_needs_no_deep_recursion():
    n = 5000
    count = 0
    for j, w in enumerate(bundled_language("L3").iter_slice(n)):
        assert w == "0" * (n - j) + "1" * j
        count += 1
    assert count == n + 1


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
        pytest.param("[" * 200_000, "nested too deeply", id="nested-200000"),
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
