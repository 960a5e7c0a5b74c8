import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from subword_trees import (
    INFINITY,
    Language,
    classify,
    finiteness_flags,
    heterogeneity_dimension,
    homogeneity_dimension,
    matching_classes,
    slice_size_bound,
)
from subword_trees.dimensions import CLASS_PREDICTIONS

from conftest import iter_antichains, random_antichains


# -- definition-scan oracle ----------------------------------------------------
# Independent of the closed-form thresholds: test membership of the defining
# words for every m up to one past the longest obstruction.


def scan_dimension(lang: Language, hetero: bool) -> float:
    M = max((len(f) for f in lang.obstructions), default=0)

    def test_word(a: str, m: int) -> str:
        other = "1" if a == "0" else "0"
        return a * m + other * m if hetero else a * m + other + a * m

    qualifying = [
        m for m in range(M + 2) if any(lang.contains(test_word(a, m)) for a in "01")
    ]
    if M + 1 in qualifying:
        return INFINITY  # beyond every obstruction the test words stay members
    return max(qualifying, default=0)


def test_hom_examples():
    assert homogeneity_dimension(Language.from_forbidden("L1", ["11"])) == INFINITY
    assert homogeneity_dimension(Language.from_forbidden("L3", ["10"])) == 0
    assert homogeneity_dimension(Language.from_forbidden("L5", ["1", "00"])) == 0
    # a long obstruction costs its length, not its square
    assert homogeneity_dimension(Language.from_forbidden("x", ["0" * 5000, "1"])) == 0


def test_het_examples():
    assert heterogeneity_dimension(Language.from_forbidden("L3", ["10"])) == INFINITY
    assert heterogeneity_dimension(Language.from_forbidden("x", ["11", "00"])) == 1
    assert heterogeneity_dimension(Language.from_forbidden("L4", ["1"])) == 0
    assert heterogeneity_dimension(Language.from_forbidden("x", ["0" * 5000, "1"])) == 0


def test_dimensions_match_scan_oracle_on_corpus(corpus):
    for lang in corpus:
        assert homogeneity_dimension(lang) == scan_dimension(lang, hetero=False)
        assert heterogeneity_dimension(lang) == scan_dimension(lang, hetero=True)


def test_dimensions_match_scan_oracle_exhaustive_small():
    for anti in iter_antichains(3):
        lang = Language("x", anti)
        assert homogeneity_dimension(lang) == scan_dimension(lang, hetero=False), anti
        assert heterogeneity_dimension(lang) == scan_dimension(lang, hetero=True), anti


@given(words=hs.lists(hs.text(alphabet="01", max_size=6), max_size=5))
@settings(max_examples=150, deadline=None)
def test_dimensions_match_scan_oracle_random(words):
    lang = Language.from_forbidden("x", words)
    assert homogeneity_dimension(lang) == scan_dimension(lang, hetero=False)
    assert heterogeneity_dimension(lang) == scan_dimension(lang, hetero=True)


def test_dimension_conventions():
    # the empty language and the language {empty word} both get 0
    empty = Language.from_forbidden("empty", [""])
    only_lambda = Language.from_forbidden("lambda", ["0", "1"])
    for lang in (empty, only_lambda):
        assert homogeneity_dimension(lang) == 0
    assert heterogeneity_dimension(empty) == 0
    assert heterogeneity_dimension(only_lambda) == 0  # the m=0 word is the empty word


# -- finiteness ----------------------------------------------------------------


def test_finiteness_examples():
    assert finiteness_flags(Language.from_forbidden("x", ["1"])) == (False, False, 1)
    assert finiteness_flags(Language.from_forbidden("x", ["1", "00"])) == (True, False, 1)
    assert finiteness_flags(Language.from_forbidden("x", [])) == (False, True, None)


def test_finiteness_against_slice_counts(corpus):
    # a subword-closed language is infinite iff no slice up to the obstruction
    # horizon is empty: slices of an infinite language are never empty
    for lang in corpus:
        finite, comp_empty, shortest = finiteness_flags(lang)
        horizon = sum(len(f) for f in lang.obstructions) + 1
        empties = [n for n in range(1, horizon + 1) if lang.count_slice(n) == 0]
        assert finite == bool(empties)
        assert comp_empty == (not lang.obstructions)
        if shortest is not None:
            assert lang.count_slice(shortest) < 2**shortest or shortest == 0
            assert all(lang.count_slice(k) == 2**k for k in range(1, shortest))


# -- classification ------------------------------------------------------------


def test_classify_bundled(corpus):
    by_name = {lang.name: lang for lang in corpus}
    assert classify(by_name["L1"]).class_index == 1
    assert classify(by_name["L2"]).class_index == 2
    assert classify(by_name["L3"]).class_index == 3
    assert classify(by_name["L4"]).class_index == 4
    assert classify(by_name["L5"]).class_index == 5


def test_classify_prediction_rows(corpus):
    for lang in corpus:
        report = classify(lang)
        assert report.predictions == CLASS_PREDICTIONS[report.class_index]


def test_report_field_consistency(corpus):
    for lang in corpus:
        r = classify(lang)
        assert (r.shortest_complement_word_length is None) == r.complement_empty
        assert r.hom <= INFINITY and r.het <= INFINITY


def exactly_one_row_and_implications(lang: Language) -> None:
    hom = homogeneity_dimension(lang)
    het = heterogeneity_dimension(lang)
    finite, comp_empty, _ = finiteness_flags(lang)
    rows = matching_classes(hom == INFINITY, het == INFINITY, finite, comp_empty)
    assert len(rows) == 1, (lang.obstructions, rows)
    if hom == INFINITY:
        assert not finite
    if het == INFINITY:
        assert not finite
    if hom != INFINITY:
        assert not comp_empty


def test_partition_property_exhaustive_small():
    for anti in iter_antichains(4):
        exactly_one_row_and_implications(Language("x", anti))


def test_partition_property_random():
    for anti in random_antichains(200, 6, seed=20260809):
        exactly_one_row_and_implications(Language("x", anti))


# -- uniform slice bound ---------------------------------------------------------


def test_slice_size_bound_values():
    assert slice_size_bound(Language.from_forbidden("L4", ["1"])) == 32  # t=0
    assert slice_size_bound(Language.from_forbidden("x", ["11", "00"])) == 4096  # t=2
    assert slice_size_bound(Language.from_forbidden("L3", ["10"])) is None
    assert slice_size_bound(Language.from_forbidden("L2", [])) is None


def test_slice_size_bound_holds(corpus):
    for lang in corpus:
        bound = slice_size_bound(lang)
        if bound is None:
            continue
        for n in range(1, 21):
            assert lang.count_slice(n) <= bound, (lang.name, n)


@given(words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=5), max_size=4))
@settings(max_examples=100, deadline=None)
def test_slice_size_bound_holds_random(words):
    lang = Language.from_forbidden("x", words)
    bound = slice_size_bound(lang)
    if bound is not None:
        for n in range(1, 16):
            assert lang.count_slice(n) <= bound
