"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
All tolerances are exact (integer equality or stated inequality bounds).
"""

import math
import time

import pytest

from subword_trees import (
    INFINITY,
    Language,
    block_recognition_strategy,
    bundled_language,
    classify,
    heterogeneity_dimension,
    homogeneity_dimension,
    finiteness_flags,
    matching_classes,
    trace_strategy,
    validate_membership,
    validate_recognition,
)
from subword_trees.dimensions import CLASS_PREDICTIONS
from subword_trees.oracle import (
    membership_depth_det,
    membership_depth_nondet,
    recognition_depth_det,
    recognition_depth_nondet,
)

from conftest import corpus, iter_antichains, random_antichains
from reference_language import brute_slice
from reference_strategy import decompose_into_runs

CORPUS = corpus()
BY_NAME = {lang.name: lang for lang in CORPUS}


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: PASS  {detail}")


def test_criterion_01_classification_reproduces_growth_table():
    started = time.time()
    expected_rows = {
        "L1": (1, {"rd": "LINEAR", "ra": "LINEAR", "md": "LINEAR", "ma": "LINEAR"}),
        "L2": (2, {"rd": "LINEAR", "ra": "LINEAR", "md": "CONSTANT", "ma": "CONSTANT"}),
        "L3": (3, {"rd": "LOG", "ra": "CONSTANT", "md": "LINEAR", "ma": "LINEAR"}),
        "L4": (4, {"rd": "CONSTANT", "ra": "CONSTANT", "md": "LINEAR", "ma": "LINEAR"}),
        "L5": (5, {"rd": "CONSTANT", "ra": "CONSTANT", "md": "CONSTANT", "ma": "CONSTANT"}),
    }
    for name, (cls, row) in expected_rows.items():
        got = classify(BY_NAME[name])
        assert got.class_index == cls, name
        assert got.predictions == row, name
    elapsed = time.time() - started
    assert elapsed < 1.0
    report(1, f"L1..L5 classes 1..5 with exact growth rows ({elapsed:.2f}s)")


def test_criterion_02_linear_recognition_depths():
    for name in ("L1", "L2"):
        lang = BY_NAME[name]
        for n in range(1, 9):
            assert recognition_depth_det(lang, n) == n, (name, n)
            assert recognition_depth_nondet(lang, n) == n, (name, n)
    report(2, "L1, L2: deterministic and nondeterministic recognition depth = n, n=1..8")


def test_criterion_03_logarithmic_recognition_for_sorted_words():
    started = time.time()
    L3 = BY_NAME["L3"]
    for n in range(1, 13):
        assert recognition_depth_det(L3, n) == math.ceil(math.log2(n + 1)), n
    assert recognition_depth_nondet(L3, 1) == 1
    for n in range(2, 13):
        assert recognition_depth_nondet(L3, n) == 2, n
    worsts = {}
    for n in (100, 1000, 10000):
        strategy = block_recognition_strategy(L3, n)
        bound = math.ceil(math.log2(n)) + 7  # block length is 1 here
        worst = 0
        for i in range(n + 1):  # the slice is exactly the sorted words
            w = "0" * i + "1" * (n - i)
            queried, label = trace_strategy(strategy, w)
            assert label == w, (n, w)
            worst = max(worst, len(queried))
        assert worst <= bound, (n, worst, bound)
        worsts[n] = (worst, bound)
    elapsed = time.time() - started
    assert elapsed < 30.0
    detail = ", ".join(f"n={n}: {w}<={b}" for n, (w, b) in worsts.items())
    report(3, f"L3 depths exact; full-slice strategy queries {detail} ({elapsed:.1f}s)")


def test_criterion_04_constant_recognition_depth():
    for name in ("L4", "L5", "avoid-11-00"):
        lang = BY_NAME[name]
        hom = homogeneity_dimension(lang)
        het = heterogeneity_dimension(lang)
        assert hom != INFINITY and het != INFINITY
        t = 2 * int(max(hom, het))
        p = 2 ** (3 * t + 3) * (2 * t + 4)
        values = {recognition_depth_det(lang, n) for n in range(3, 13)}
        assert len(values) == 1, (name, values)
        assert values.pop() <= p * p, name
    report(4, "L4, L5, avoid-11-00: recognition depth constant on n=3..12 and within p^2")


def test_criterion_05_membership_lower_bound():
    for name in ("L1", "L3", "L4"):
        lang = BY_NAME[name]
        finite, comp_empty, shortest = finiteness_flags(lang)
        assert not finite and not comp_empty
        for n in range(2, 13):
            ma = membership_depth_nondet(lang, n)
            md = membership_depth_det(lang, n)
            assert ma > n - shortest, (name, n, ma)
            assert md >= ma, (name, n)
    report(5, "L1, L3, L4: membership depth exceeds n - |shortest obstruction|, n=2..12")


def test_criterion_06_constant_membership_depth():
    L2 = BY_NAME["L2"]
    for n in range(1, 13):
        assert membership_depth_det(L2, n) == 0, n
        assert membership_depth_nondet(L2, n) == 0, n
    L5 = BY_NAME["L5"]
    for n in range(2, 13):
        assert membership_depth_det(L5, n) == 0, n
        assert membership_depth_nondet(L5, n) == 0, n
    report(6, "L2: membership depths 0 for n=1..12; L5: 0 for n=2..12")


def test_criterion_07_run_decomposition_exhaustive():
    checked = 0
    for lang in CORPUS:
        hom = homogeneity_dimension(lang)
        if hom == INFINITY:
            continue
        bound = 2 * int(hom)
        for n in range(1, 13):
            for w in lang.iter_slice(n):
                d = decompose_into_runs(lang, w)
                assert d.word == w
                assert max(len(d.prefix), len(d.middle), len(d.suffix)) <= bound
                checked += 1
    report(7, f"run decomposition holds for all {checked} members, n<=12")


def test_criterion_08_uniform_slice_bound():
    checked = 0
    for lang in CORPUS:
        hom = homogeneity_dimension(lang)
        het = heterogeneity_dimension(lang)
        if hom == INFINITY or het == INFINITY:
            continue
        t = 2 * int(max(hom, het))
        p = 2 ** (3 * t + 3) * (2 * t + 4)
        for n in range(1, 21):
            assert lang.count_slice(n) <= p, (lang.name, n)
            checked += 1
    report(8, f"slice counts within 2^(3t+3)(2t+4) for {checked} (language, n) pairs")


def test_criterion_09_oracle_and_builder_cross_checks():
    from subword_trees import (
        block_certificate,
        block_length,
        distinguishing_set_tree,
        materialize_strategy,
        membership_tree,
        tree_from_certificates,
    )
    from subword_trees.oracle import optimal_membership_tree, optimal_recognition_tree

    for lang in CORPUS:
        for n in range(1, 15):
            assert lang.slice(n) == brute_slice(lang, n), (lang.name, n)
    checks = 0
    for lang in CORPUS:
        hom_finite = homogeneity_dimension(lang) != INFINITY
        for n in range(1, 9):
            count = lang.count_slice(n)
            rd = recognition_depth_det(lang, n)
            ra = recognition_depth_nondet(lang, n)
            md = membership_depth_det(lang, n)
            ma = membership_depth_nondet(lang, n)
            assert ra <= rd <= n and ma <= md <= n, (lang.name, n)
            assert rd >= math.ceil(math.log2(max(count, 1))), (lang.name, n)

            exact_tree = optimal_recognition_tree(lang, n)
            assert validate_recognition(exact_tree, lang, n, "det") is None
            assert exact_tree.depth() == rd
            mem_exact = optimal_membership_tree(lang, n)
            assert validate_membership(mem_exact, lang, n, "det") is None
            assert mem_exact.depth() == md

            fixed = distinguishing_set_tree(lang, n)
            assert validate_recognition(fixed, lang, n, "det") is None
            assert fixed.depth() >= rd

            mem = membership_tree(lang, n)
            assert validate_membership(mem, lang, n, "det") is None
            assert mem.depth() >= ma

            if hom_finite:
                t = block_length(lang)
                if n >= 10 * t:
                    certs = {w: block_certificate(lang, n, w) for w in lang.iter_slice(n)}
                    cert_tree = tree_from_certificates(lang, n, certs)
                    assert validate_recognition(cert_tree, lang, n, "nondet") is None
                    assert cert_tree.depth() >= ra
                    if n <= 12:
                        strat_tree = materialize_strategy(
                            block_recognition_strategy(lang, n)
                        )
                        assert validate_recognition(strat_tree, lang, n, "det") is None
                        assert strat_tree.depth() >= rd
            checks += 1
    report(9, f"slice==brute (n<=14); sandwich/log bounds and builder trees over {checks} cells")


def test_criterion_10_partition_property():
    started = time.time()
    count = 0
    antichains = list(iter_antichains(4)) + random_antichains(200, 6, seed=20260809)
    for anti in antichains:
        lang = Language("x", anti)
        hom = homogeneity_dimension(lang)
        het = heterogeneity_dimension(lang)
        finite, comp_empty, _ = finiteness_flags(lang)
        rows = matching_classes(hom == INFINITY, het == INFINITY, finite, comp_empty)
        assert len(rows) == 1, anti
        got = classify(lang)
        assert got.class_index == rows[0]
        assert got.predictions == CLASS_PREDICTIONS[rows[0]]
        if hom == INFINITY:
            assert not finite, anti
        if het == INFINITY:
            assert not finite, anti
        if hom != INFINITY:
            assert not comp_empty, anti
        count += 1
    elapsed = time.time() - started
    report(10, f"exactly one class row + implications for {count} antichains ({elapsed:.1f}s)")
