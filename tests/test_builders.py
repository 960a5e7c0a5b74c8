import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from subword_trees import (
    Ask,
    Branch,
    BlockRecognitionStrategy,
    BuilderPreconditionError,
    CapExceeded,
    CertificateError,
    Finish,
    Language,
    QueryStrategy,
    all_words,
    StrategyError,
    block_certificate,
    block_length,
    block_recognition_strategy,
    bundled_language,
    distinguishing_set_tree,
    homogeneity_dimension,
    materialize_strategy,
    membership_tree,
    slice_size_bound,
    trace_strategy,
    tree_from_certificates,
    tree_to_json,
    validate_membership,
    validate_recognition,
)
from subword_trees.builders import (
    MAX_EXACT_DISTINGUISHING,
    DistinguishingSetStrategy,
    worst_case_queries,
)
from subword_trees.dimensions import INFINITY
from subword_trees.oracle import (
    membership_depth_det,
    recognition_depth_det,
    recognition_depth_nondet,
)

from conftest import iter_antichains, small_languages
from reference_strategy import (
    ReferenceBlockStrategy,
    decompose_into_runs,
    reference_block_certificate,
    reference_worst_case_queries,
)
from reference_trees import reference_distinguishing_set_tree


def finite_hom_corpus(corpus):
    return [lang for lang in corpus if homogeneity_dimension(lang) != INFINITY]


def stress_language():
    """Sorted words plus the extra members 10 and 010: homogeneity dimension 1,
    heterogeneity dimension infinite, so the block strategy runs with t=2 on
    slices that keep growing."""
    lang = Language.from_forbidden("stress2", ["100", "101", "110", "0010"])
    assert homogeneity_dimension(lang) == 1
    return lang


# -- run decomposition -----------------------------------------------------------


def test_decompose_examples():
    d = decompose_into_runs(Language.from_forbidden("x", ["11", "00"]), "10")
    assert (d.prefix, d.letter, d.left_run, d.middle, d.right_run, d.suffix) == (
        "",
        1,
        1,
        "",
        1,
        "",
    )
    d = decompose_into_runs(bundled_language("L3"), "000111")
    assert (d.prefix, d.letter, d.left_run, d.middle, d.right_run, d.suffix) == (
        "",
        0,
        3,
        "",
        3,
        "",
    )


def test_decompose_rejects_infinite_dimension():
    with pytest.raises(BuilderPreconditionError):
        decompose_into_runs(bundled_language("L1"), "00")


def test_decompose_rejects_non_members():
    with pytest.raises(BuilderPreconditionError):
        decompose_into_runs(bundled_language("L3"), "10")


def test_decompose_exhaustive(corpus):
    for lang in finite_hom_corpus(corpus):
        bound = 2 * int(homogeneity_dimension(lang))
        for n in range(1, 13):
            for w in lang.iter_slice(n):
                d = decompose_into_runs(lang, w)
                assert d.word == w
                assert len(d.prefix) <= bound
                assert len(d.middle) <= bound
                assert len(d.suffix) <= bound


# -- block strategy ----------------------------------------------------------------


def test_block_length_values(corpus):
    by_name = {lang.name: lang for lang in corpus}
    assert block_length(by_name["L3"]) == 1  # dimension 0 floors to one
    assert block_length(by_name["closure-010"]) == 2
    with pytest.raises(BuilderPreconditionError):
        block_length(by_name["L1"])


def test_strategy_preconditions():
    with pytest.raises(BuilderPreconditionError):
        block_recognition_strategy(bundled_language("L1"), 100)
    with pytest.raises(BuilderPreconditionError):
        block_recognition_strategy(bundled_language("L3"), 9)


def budget(t: int, n: int) -> int:
    return t * math.ceil(math.log2(n / t)) + 7 * t


def run_strategy_over_slice(lang, n, cap=4096):
    strategy = block_recognition_strategy(lang, n)
    t = strategy.t
    worst = 0
    count = 0
    for w in lang.iter_slice(n):
        queried, label = trace_strategy(strategy, w)
        assert label == w, (lang.name, n, w, label)
        assert len(queried) == len(set(queried)), "a position was queried twice"
        worst = max(worst, len(queried))
        count += 1
        if count >= cap:
            break
    assert worst <= budget(t, n), (lang.name, n, worst)
    return worst


def test_strategy_corpus(corpus):
    for lang in finite_hom_corpus(corpus):
        t = block_length(lang)
        for n in {10 * t, 32, 100}:
            if n < 10 * t:
                continue
            run_strategy_over_slice(lang, n)


def test_strategy_case_all_one_letter():
    L3 = bundled_language("L3")
    strategy = block_recognition_strategy(L3, 16)
    queried, label = trace_strategy(strategy, "0" * 16)
    assert label == "0" * 16
    assert len(queried) == 4  # both boundary blocks on each side, nothing else


def test_strategy_stress_language_covers_all_cases():
    lang = stress_language()
    for n in (20, 21, 32, 33, 100):  # odd lengths exercise the remainder block
        run_strategy_over_slice(lang, n)


def test_strategy_exhaustive_small_languages():
    # every antichain over words of length <= 3 with a finite dimension
    rng = random.Random(99)
    checked = 0
    for anti in iter_antichains(3):
        lang = Language("x", anti)
        if homogeneity_dimension(lang) == INFINITY:
            continue
        t = block_length(lang)
        n = 10 * t + rng.choice((0, 1, 3, 7))
        run_strategy_over_slice(lang, n, cap=300)
        checked += 1
    assert checked > 300


def test_strategy_large_n():
    L3 = bundled_language("L3")
    worst = run_strategy_over_slice(L3, 1000, cap=10**9)
    assert worst <= math.ceil(math.log2(1000)) + 7


def assert_strategy_matches_reference(lang, extra_lengths=()):
    if homogeneity_dimension(lang) == INFINITY:
        return
    t = block_length(lang)
    rng = random.Random(",".join(lang.obstructions))
    lengths = {10 * t, 10 * t + 1, 10 * t + 3, 12 * t + 5, 40, *extra_lengths}
    for n in sorted(lengths - set(range(10 * t))):
        strategy = block_recognition_strategy(lang, n)
        reference = ReferenceBlockStrategy(lang, n)
        words = list(lang.iter_slice(n))
        words += ["".join(rng.choice("01") for _ in range(n)) for _ in range(50)]
        for w in words:
            assert trace_strategy(strategy, w) == trace_strategy(reference, w), (lang.name, n, w)
        if n <= 12:
            assert materialize_strategy(strategy) == materialize_strategy(reference), (lang.name, n)


def test_strategy_matches_reference():
    for lang in small_languages() + [stress_language()]:
        assert_strategy_matches_reference(lang)
    # t = 4: at n = 100 the random words compare long labels, and the
    # fallback for transcripts no member produces, with the reference
    for words in (["001", "010", "0111"], ["001", "0000", "0111"]):
        lang = Language.from_forbidden("avoid-" + "-".join(words), words)
        assert_strategy_matches_reference(lang, extra_lengths=(100,))


@given(words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=4), max_size=4))
@settings(max_examples=25, deadline=None)
def test_strategy_matches_reference_on_drawn_antichains(words):
    assert_strategy_matches_reference(Language.from_forbidden("drawn", words))


def test_strategy_advance_answers_only_the_asked_position():
    strategy = block_recognition_strategy(bundled_language("L3"), 10)
    state = strategy.initial_state()
    assert strategy.next_action(state).positions == (1, 2, 9, 10)
    for letters in ("000", "00000"):  # the round asks four positions
        with pytest.raises(StrategyError):
            strategy.advance(state, letters)
    finished = strategy.advance(state, "0000")
    assert strategy.next_action(finished).label == "0" * 10
    with pytest.raises(StrategyError):
        strategy.advance(finished, "0")


# -- worst-case replay against the per-word reference --------------------------------


def replay_languages(corpus):
    return finite_hom_corpus(corpus) + [
        stress_language(),
        Language.from_forbidden("avoid-001-010-0111", ["001", "010", "0111"]),
    ]


def replay_lengths(t):
    return sorted({10 * t, 10 * t + 1, 12 * t + 5, 40, 100} - set(range(10 * t)))


def test_worst_case_queries_matches_reference(corpus):
    for lang in replay_languages(corpus):
        for n in replay_lengths(block_length(lang)):
            strategy = block_recognition_strategy(lang, n)
            want = reference_worst_case_queries(lang, strategy, 10**6)
            assert worst_case_queries(lang, strategy, 10**6) == want, (lang.name, n)
            count = lang.count_slice(n)
            assert worst_case_queries(lang, strategy, count) == want
            if count:
                with pytest.raises(CapExceeded, match=f"slices of <= {count - 1} words"):
                    worst_case_queries(lang, strategy, count - 1)


def test_strategy_never_queries_a_position_twice(corpus):
    # the window round reads around a mixed block, which may overlap blocks
    # that earlier rounds read
    for lang in replay_languages(corpus):
        for n in replay_lengths(block_length(lang)):
            strategy = block_recognition_strategy(lang, n)
            for w in lang.iter_slice(n):
                queried, _ = trace_strategy(strategy, w)
                assert len(queried) == len(set(queried)), (lang.name, n, w, queried)


class ForgetfulStrategy(BlockRecognitionStrategy):
    """Asks what the block strategy asks, then announces the least member."""

    def next_action(self, state):
        act = super().next_action(state)
        return Finish(self.fallback) if isinstance(act, Finish) else act


class OneQueryTooManyStrategy(QueryStrategy):
    """Reads every position, asks position 1 again, then announces the word."""

    def __init__(self, n):
        self.n = n

    def next_action(self, state):
        if len(state) <= self.n:
            return Ask((len(state) % self.n + 1,))
        return Finish(state[: self.n])


def test_worst_case_queries_rejects_wrong_strategies():
    lang = stress_language()
    for n in (20, 33):
        strategy = ForgetfulStrategy(lang, n)
        with pytest.raises(AssertionError) as got:
            worst_case_queries(lang, strategy, 10**6)
        with pytest.raises(AssertionError) as want:
            reference_worst_case_queries(lang, strategy, 10**6)
        assert str(got.value) == str(want.value)
        assert repr(lang.slice(n)[1]) in str(got.value)  # the least misrecognized word
    for replay in (worst_case_queries, reference_worst_case_queries):
        with pytest.raises(StrategyError):
            replay(lang, OneQueryTooManyStrategy(20), 10**6)


def round_transcript(strategy, w):
    """The (positions, letters) answers of each round the strategy asks ``w``."""
    state, rounds = strategy.initial_state(), []
    while isinstance(act := strategy.next_action(state), Ask):
        rounds.append((act.positions, "".join(w[p - 1] for p in act.positions)))
        state = strategy.advance(state, rounds[-1][1])
    return tuple(rounds)


def test_worst_case_queries_advances_once_per_transcript_prefix(corpus):
    # a replay word by word would advance once per (word, round) pair
    for lang in replay_languages(corpus):
        for n in replay_lengths(block_length(lang)):
            strategy = block_recognition_strategy(lang, n)
            counts = {"advance": 0, "next_action": 0}
            for name in counts:
                def counted(*args, _fn=getattr(strategy, name), _name=name):
                    counts[_name] += 1
                    return _fn(*args)

                setattr(strategy, name, counted)
            worst_case_queries(lang, strategy, 10**6)
            prefixes = set()
            plain = block_recognition_strategy(lang, n)
            for w in lang.iter_slice(n):
                answers = round_transcript(plain, w)
                prefixes.update(answers[:k] for k in range(1, len(answers) + 1))
            assert counts["advance"] == len(prefixes), (lang.name, n)
            assert counts["next_action"] == len(prefixes) + 1, (lang.name, n)


def test_worst_case_queries_advances_once_per_round_of_a_long_block():
    # t = 4: a word-by-word replay of one query per round advanced 557 times
    lang = Language.from_forbidden("avoid-001-010-0111", ["001", "010", "0111"])
    strategy = block_recognition_strategy(lang, 76)
    calls = []
    advance = strategy.advance
    strategy.advance = lambda state, letters: calls.append(letters) or advance(state, letters)
    assert worst_case_queries(lang, strategy, 10**6) == 36
    assert lang.count_slice(76) == 79
    assert len(calls) <= 125, len(calls)


def replay_outcome(replay, lang, strategy, cap):
    """The replay's worst case, or the message of the misrecognition it reports."""
    try:
        return replay(lang, strategy, cap)
    except AssertionError as exc:
        return str(exc)


@given(words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=4), max_size=4))
@settings(max_examples=25, deadline=None)
def test_worst_case_queries_matches_reference_on_drawn_antichains(words):
    lang = Language.from_forbidden("drawn", words)
    assume(homogeneity_dimension(lang) != INFINITY)
    t = block_length(lang)
    for n in (10 * t, 10 * t + 1, 12 * t + 5):
        count = lang.count_slice(n)
        for strategy in (block_recognition_strategy(lang, n), ForgetfulStrategy(lang, n)):
            got = replay_outcome(worst_case_queries, lang, strategy, count)
            assert got == replay_outcome(reference_worst_case_queries, lang, strategy, count)
            assert isinstance(got, int) or isinstance(strategy, ForgetfulStrategy)
            if count:
                with pytest.raises(CapExceeded, match=f"slices of <= {count - 1} words"):
                    worst_case_queries(lang, strategy, count - 1)


def test_paper_walks_read_the_slice_words_without_a_split_table(corpus, monkeypatch):
    bounded = [lang for lang in corpus if slice_size_bound(lang) is not None]
    trees = {(lang.name, n): distinguishing_set_tree(lang, n) for lang in bounded for n in (7, 40)}

    def refuse(self, *args):
        raise AssertionError("the split table was built")

    monkeypatch.setattr(Language, "slice_splits", refuse)
    for lang in bounded:
        for n in (7, 40):
            assert distinguishing_set_tree(lang, n) == trees[lang.name, n], (lang.name, n)
    for lang in replay_languages(corpus):
        for n in replay_lengths(block_length(lang)):
            strategy = block_recognition_strategy(lang, n)
            want = reference_worst_case_queries(lang, strategy, 10**6)
            assert worst_case_queries(lang, strategy, 10**6) == want, (lang.name, n)


def test_materialized_strategies_validate(corpus):
    for lang in finite_hom_corpus(corpus):
        t = block_length(lang)
        for n in range(10 * t, 13):
            tree = materialize_strategy(block_recognition_strategy(lang, n))
            assert validate_recognition(tree, lang, n, "det") is None, (lang.name, n)
            assert tree.depth() >= recognition_depth_det(lang, n)


def test_materialized_strategies_validate_exhaustive_small():
    # every unit-block language from the length-3 antichains, including the
    # answer paths no member ever takes (their leaves fall back to a member)
    count = 0
    for anti in iter_antichains(3):
        lang = Language("x", anti)
        if homogeneity_dimension(lang) == INFINITY or block_length(lang) != 1:
            continue
        tree = materialize_strategy(block_recognition_strategy(lang, 10))
        assert validate_recognition(tree, lang, 10, "det") is None, anti
        count += 1
    assert count > 100


def test_materialize_empty_slice():
    L5 = bundled_language("L5")
    tree = materialize_strategy(block_recognition_strategy(L5, 10))
    assert tree.depth() == 0
    assert validate_recognition(tree, L5, 10, "det") is None


# -- bounded certificates -------------------------------------------------------------


def check_certificates(lang, n):
    t = block_length(lang)
    words = lang.slice(n)
    for w in words:
        cert = block_certificate(lang, n, w)
        assert len(cert) <= 7 * t, (lang.name, n, w)
        for u in words:
            if u != w:
                assert any(u[p - 1] != w[p - 1] for p in cert), (lang.name, n, w, u)


def test_certificates_on_corpus(corpus):
    for lang in finite_hom_corpus(corpus):
        t = block_length(lang)
        for n in (10 * t, 10 * t + 5, 32):
            if n < 10 * t:
                continue
            check_certificates(lang, n)


def test_certificates_on_stress_language():
    lang = stress_language()
    for n in (20, 21, 27, 32):
        check_certificates(lang, n)


def test_certificate_pure_word_is_small():
    L3 = bundled_language("L3")
    cert = block_certificate(L3, 20, "0" * 20)
    assert len(cert) <= 4  # boundary blocks only


def test_certificate_preconditions():
    with pytest.raises(BuilderPreconditionError):
        block_certificate(bundled_language("L1"), 20, "0" * 20)
    with pytest.raises(BuilderPreconditionError):
        block_certificate(bundled_language("L3"), 20, "1" + "0" * 19)


def test_certificate_matches_reference(corpus):
    for lang in replay_languages(corpus):
        for n in replay_lengths(block_length(lang)):
            for w in lang.iter_slice(n):
                want = reference_block_certificate(lang, n, w)
                assert block_certificate(lang, n, w) == want, (lang.name, n, w)


def test_block_builders_share_the_slice_length_precondition(corpus):
    for lang in replay_languages(corpus):
        t = block_length(lang)
        n = 10 * t - 1
        want = f"{lang.name}: slice length {n} is below 10*t = {10 * t}"
        with pytest.raises(BuilderPreconditionError) as strategy_error:
            block_recognition_strategy(lang, n)
        with pytest.raises(BuilderPreconditionError) as certificate_error:
            block_certificate(lang, n, "0" * n)
        assert str(strategy_error.value) == str(certificate_error.value) == want


# -- certificate union trees -----------------------------------------------------------


def test_tree_from_certificates_nondeterministic():
    L3 = bundled_language("L3")
    n = 3
    certs = {"000": (3,), "001": (2, 3), "011": (1, 2), "111": (1,)}
    tree = tree_from_certificates(L3, n, certs)
    assert validate_recognition(tree, L3, n, "nondet") is None
    assert tree.depth() == 2
    assert tree.depth() == recognition_depth_nondet(L3, n)


def test_tree_from_certificates_singleton_slice():
    L4 = bundled_language("L4")
    certs = {"00000": ()}
    tree = tree_from_certificates(L4, 5, certs)
    assert tree.depth() == 0
    assert validate_recognition(tree, L4, 5, "nondet") is None


def test_tree_from_certificates_missing_word():
    L3 = bundled_language("L3")
    with pytest.raises(CertificateError):
        tree_from_certificates(L3, 2, {"00": ()})


def test_tree_from_certificates_non_separating():
    L3 = bundled_language("L3")
    certs = {w: () for w in L3.slice(2)}
    with pytest.raises(CertificateError) as err:
        tree_from_certificates(L3, 2, certs)
    # the least word whose certificate fails, then the least member it misses
    assert str(err.value) == "certificate for '00' does not separate it from '01'"
    certs = {"000": (3,), "001": (3,), "011": (1, 2), "111": (1,)}
    with pytest.raises(CertificateError) as err:
        tree_from_certificates(L3, 3, certs)
    assert str(err.value) == "certificate for '001' does not separate it from '011'"


@pytest.mark.parametrize("bad", [(3,), (0,), (-1,), (1, 5)])
def test_tree_from_certificates_rejects_positions_outside_the_slice(bad):
    L3 = bundled_language("L3")  # L3(2) = 00, 01, 11
    certs = {"00": (2,), "01": bad, "11": (1,)}
    with pytest.raises(CertificateError, match=r"certificate for '01' has position -?\d, outside 1\.\.2"):
        tree_from_certificates(L3, 2, certs)


def test_block_certificate_trees_validate(corpus):
    for lang in finite_hom_corpus(corpus):
        t = block_length(lang)
        n = 10 * t
        certs = {w: block_certificate(lang, n, w) for w in lang.iter_slice(n)}
        tree = tree_from_certificates(lang, n, certs)
        assert validate_recognition(tree, lang, n, "nondet") is None
        if n <= 16 and lang.count_slice(n) <= 4096:
            assert tree.depth() >= recognition_depth_nondet(lang, n)


# -- distinguishing-set trees ------------------------------------------------------------


def test_distinguishing_tree_examples():
    from subword_trees import DecisionTree, Leaf

    L4 = bundled_language("L4")
    tree = distinguishing_set_tree(L4, 7)
    assert tree == DecisionTree((Leaf("0000000"),))

    two = Language.from_forbidden("x", ["11", "00"])
    tree = distinguishing_set_tree(two, 2)
    assert tree.depth() == 1
    assert validate_recognition(tree, two, 2, "det") is None

    L3 = bundled_language("L3")
    tree = distinguishing_set_tree(L3, 3)
    # {000,001,011,111}: the pairs (000,001), (001,011), (011,111) differ only
    # at positions 3, 2, 1 respectively, so every fixed distinguishing set
    # needs all three positions (an adaptive tree manages depth 2)
    assert tree.depth() == 3
    assert validate_recognition(tree, L3, 3, "det") is None


def test_distinguishing_tree_empty_slice():
    L5 = bundled_language("L5")
    tree = distinguishing_set_tree(L5, 6)
    assert tree.depth() == 0 and not tree.root_children


def test_distinguishing_trees_validate_and_bound(corpus):
    for lang in corpus:
        bound = slice_size_bound(lang)
        for n in range(1, 13):
            if lang.count_slice(n) > 4096:
                continue
            tree = distinguishing_set_tree(lang, n)
            assert validate_recognition(tree, lang, n, "det") is None, (lang.name, n)
            if n <= 12 and lang.count_slice(n) <= 256:
                assert tree.depth() >= recognition_depth_det(lang, n)
            if bound is not None:
                assert tree.depth() <= bound * bound


# class-4 antichains whose slices pass MAX_EXACT_DISTINGUISHING: from n = 12 on
# they hold 126 and 175 words, distinguished greedily by 8 and 9 positions
CLASS4_GREEDY = {("00001", "111110"): (126, 8), ("11111", "110011", "1000000"): (175, 9)}


def assert_distinguishing_tree_matches_reference(lang, n):
    tree = distinguishing_set_tree(lang, n)
    want = reference_distinguishing_set_tree(lang, n)
    assert tree == want, (lang.name, n)
    assert tree_to_json(tree) == tree_to_json(want), (lang.name, n)
    return tree


def test_distinguishing_tree_matches_reference():
    cases = [(bundled_language(f"L{i}"), n) for i in range(1, 6) for n in range(1, 9)]
    assert bundled_language("L2").count_slice(7) > MAX_EXACT_DISTINGUISHING
    for words in (["01", "0000"], ["001", "0000", "0111"]):
        lang = Language.from_forbidden("avoid-" + "-".join(words), words)
        cases += [(lang, n) for n in (7, 13, 40, 100)]
    for words, (size, depth) in CLASS4_GREEDY.items():
        lang = Language.from_forbidden("avoid-" + "-".join(words), words)
        for n in (12, 60):
            assert lang.count_slice(n) == size and size > MAX_EXACT_DISTINGUISHING
            assert len(DistinguishingSetStrategy(lang, n).positions) == depth
            cases.append((lang, n))
    for lang, n in cases:
        assert_distinguishing_tree_matches_reference(lang, n)


@given(
    extra=hs.lists(hs.text(alphabet="01", min_size=1, max_size=7), max_size=3),
    n=hs.one_of(hs.integers(1, 12), hs.just(40)),
)
@settings(max_examples=40, deadline=None)
def test_distinguishing_strategy_matches_reference_on_drawn_obstructions(extra, n):
    # extra obstructions shrink the language, so both dimensions stay finite
    lang = Language.from_forbidden("drawn", ["00001", "111110", *extra])
    tree = assert_distinguishing_tree_matches_reference(lang, n)
    count = lang.count_slice(n)
    assert worst_case_queries(lang, DistinguishingSetStrategy(lang, n), count) == tree.depth()


# -- membership trees -----------------------------------------------------------------


def test_membership_tree_examples():
    from subword_trees import DecisionTree, Leaf

    assert membership_tree(bundled_language("L2"), 9) == DecisionTree((Leaf("1"),))
    assert membership_tree(bundled_language("L5"), 4) == DecisionTree((Leaf("0"),))
    # every word is a member although the language has obstructions: md = 0
    for lang, n in [
        (bundled_language("L1"), 1),
        (Language.from_forbidden("x", ["1111"]), 3),
        (Language.from_forbidden("x", ["001", "010", "0111"]), 2),
    ]:
        assert membership_tree(lang, n) == DecisionTree((Leaf("1"),)), (lang.obstructions, n)
        assert membership_depth_det(lang, n) == 0
    tree = membership_tree(bundled_language("L1"), 2)
    assert tree.depth() == 2
    assert validate_membership(tree, bundled_language("L1"), 2, "det") is None


def test_membership_tree_leaves_match_contains():
    for lang in small_languages():
        for n in range(1, 11):
            (root,) = membership_tree(lang, n).root_children
            for w in all_words(n):
                node = root
                while isinstance(node, Branch):
                    node = dict(node.edges)[int(w[node.position - 1])]
                assert node.label == ("1" if lang.contains(w) else "0"), (lang.name, w)


def test_membership_trees_validate(corpus):
    for lang in corpus:
        for n in range(1, 11):
            tree = membership_tree(lang, n)
            assert validate_membership(tree, lang, n, "det") is None, (lang.name, n)
            if n <= 10:
                assert tree.depth() >= membership_depth_det(lang, n)
