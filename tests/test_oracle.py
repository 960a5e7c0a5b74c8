import functools
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from reference_language import brute_slice
from reference_membership import (
    reference_membership_certificate,
    reference_membership_depth_det,
    reference_membership_depth_nondet,
    reference_optimal_membership_tree,
)
from reference_recognition import (
    reference_optimal_recognition_tree,
    reference_recognition_certificates,
    reference_recognition_depth_det,
    reference_recognition_depth_nondet,
)

from subword_trees import (
    Language,
    bundled_language,
    oracle,
    validate_membership,
    validate_recognition,
)
from subword_trees.oracle import (
    MAX_TABLE_N,
    CapExceeded,
    depth_profile,
    greedy_hitting_set,
    membership_certificate,
    membership_certificates,
    membership_depth_det,
    membership_depth_nondet,
    min_hitting_set,
    optimal_membership_tree,
    optimal_recognition_tree,
    recognition_certificates,
    recognition_depth_det,
    recognition_depth_nondet,
)

from conftest import random_antichains, small_languages


# -- naive reference oracles ---------------------------------------------------
# Written independently of the production code paths: plain minimax over
# explicit word sets and exhaustive certificate search by subset size.


def naive_h_rd(lang, n):
    words = tuple(lang.slice(n))

    @functools.lru_cache(maxsize=None)
    def h(ws):
        if len(ws) <= 1:
            return 0
        best = None
        for p in range(1, n + 1):
            w0 = tuple(w for w in ws if w[p - 1] == "0")
            w1 = tuple(w for w in ws if w[p - 1] == "1")
            if not w0 or not w1:
                continue
            d = 1 + max(h(w0), h(w1))
            best = d if best is None else min(best, d)
        return best

    return h(words)


def naive_min_separating(words, w, n):
    others = [u for u in words if u != w]
    for size in range(n + 1):
        for P in itertools.combinations(range(1, n + 1), size):
            if all(any(u[p - 1] != w[p - 1] for p in P) for u in others):
                return size
    raise AssertionError("unreachable")


def naive_h_ra(lang, n):
    words = lang.slice(n)
    return max((naive_min_separating(words, w, n) for w in words), default=0)


def naive_h_md(lang, n):
    words = ["".join(p) for p in itertools.product("01", repeat=n)]
    value = {w: lang.contains(w) for w in words}

    @functools.lru_cache(maxsize=None)
    def h(assign):
        consistent = [w for w in words if all(int(w[p - 1]) == b for p, b in assign)]
        if len({value[w] for w in consistent}) <= 1:
            return 0
        assigned = {p for p, _ in assign}
        best = None
        for p in range(1, n + 1):
            if p in assigned:
                continue
            d = 1 + max(
                h(assign | frozenset({(p, 0)})), h(assign | frozenset({(p, 1)}))
            )
            best = d if best is None else min(best, d)
        return best

    return h(frozenset())


def naive_h_ma(lang, n):
    words = ["".join(p) for p in itertools.product("01", repeat=n)]
    value = {w: lang.contains(w) for w in words}
    best = 0
    for w in words:
        for size in range(n + 1):
            done = False
            for P in itertools.combinations(range(1, n + 1), size):
                if all(
                    value[u] == value[w]
                    for u in words
                    if all(u[p - 1] == w[p - 1] for p in P)
                ):
                    done = True
                    break
            if done:
                best = max(best, size)
                break
    return best


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_recognition_oracles_match_naive(n):
    for lang in small_languages():
        assert recognition_depth_det(lang, n) == naive_h_rd(lang, n), lang.name
        assert recognition_depth_nondet(lang, n) == naive_h_ra(lang, n), lang.name


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_membership_oracles_match_naive(n):
    for lang in small_languages():
        assert membership_depth_det(lang, n) == naive_h_md(lang, n), lang.name
        assert membership_depth_nondet(lang, n) == naive_h_ma(lang, n), lang.name


@given(words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=4), max_size=4))
@settings(max_examples=25, deadline=None)
def test_membership_depths_are_ordered_on_drawn_antichains(words):
    lang = Language.from_forbidden("drawn", words)
    for n in range(1, 8):
        ma, md = membership_depth_nondet(lang, n), membership_depth_det(lang, n)
        assert ma <= md <= n, (lang.obstructions, n, ma, md)


# -- truth-table membership oracles against the partial-assignment reference ---


def membership_differential_languages():
    return small_languages() + [
        Language.from_forbidden("avoid-001-010-0111", ["001", "010", "0111"]),  # class 3, t = 4
        Language.from_forbidden("avoid-001-0000-0111", ["001", "0000", "0111"]),  # class 4
    ]


def assert_membership_matches_reference(lang, n):
    where = (lang.name, lang.obstructions, n)
    assert membership_depth_det(lang, n) == reference_membership_depth_det(lang, n), where
    assert membership_depth_nondet(lang, n) == reference_membership_depth_nondet(lang, n), where
    # dataclass equality compares the trees node by node
    assert optimal_membership_tree(lang, n) == reference_optimal_membership_tree(lang, n), where


@pytest.mark.parametrize("n", range(1, 9))
def test_membership_oracles_match_reference(n):
    for lang in membership_differential_languages():
        assert_membership_matches_reference(lang, n)


@given(words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=4), max_size=4))
@settings(max_examples=25, deadline=None)
def test_membership_oracles_match_reference_on_drawn_antichains(words):
    lang = Language.from_forbidden("drawn", words)
    for n in range(1, 9):
        assert_membership_matches_reference(lang, n)


def assert_membership_certificates_match_reference(lang, n):
    certs = membership_certificates(lang, n)
    assert list(certs) == [format(x, f"0{n}b") for x in range(1 << n)]
    for w, cert in certs.items():
        assert cert == reference_membership_certificate(lang, n, w), (lang.obstructions, n, w)
    for w in list(certs)[:: max(1, len(certs) // 4)]:
        assert membership_certificate(lang, n, w) == certs[w], (lang.obstructions, n, w)


@pytest.mark.parametrize("n", range(1, 9))
def test_membership_certificates_match_reference(n):
    for lang in membership_differential_languages() + [
        Language.from_forbidden("empty", [""]),
        Language.from_forbidden("full", []),
    ]:
        assert_membership_certificates_match_reference(lang, n)


@given(words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=4), max_size=4))
@settings(max_examples=25, deadline=None)
def test_membership_certificates_match_reference_on_drawn_antichains(words):
    lang = Language.from_forbidden("drawn", words)
    for n in range(1, 9):
        assert_membership_certificates_match_reference(lang, n)


@pytest.mark.parametrize("w", ["00", "0000", "0a1"])
def test_membership_certificate_rejects_malformed_words(w):
    with pytest.raises(ValueError):
        membership_certificate(bundled_language("L1"), 3, w)


# -- pruned recognition minimax against the log2-only reference -----------------


def recognition_differential_languages():
    return membership_differential_languages() + [
        Language.from_forbidden("avoid-1111", ["1111"]),
        Language.from_forbidden("avoid-0101", ["0101"]),
        Language.from_forbidden("avoid-1001", ["1001"]),
        Language.from_forbidden("avoid-0101-1010", ["0101", "1010"]),
    ]


def assert_recognition_matches_reference(lang, n):
    where = (lang.name, lang.obstructions, n)
    assert recognition_depth_det(lang, n) == reference_recognition_depth_det(lang, n), where
    # the pruning must not change which optimal position each node queries
    assert optimal_recognition_tree(lang, n) == reference_optimal_recognition_tree(lang, n), where


@pytest.mark.parametrize("n", range(1, 11))
def test_recognition_minimax_matches_reference(n):
    for lang in recognition_differential_languages():
        assert_recognition_matches_reference(lang, n)


@given(words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=4), max_size=4))
@settings(max_examples=25, deadline=None)
def test_recognition_minimax_matches_reference_on_drawn_antichains(words):
    lang = Language.from_forbidden("drawn", words)
    for n in range(1, 11):
        assert_recognition_matches_reference(lang, n)


# -- certificates from sensitive positions against the per-word search ----------


def assert_recognition_certificates_match_reference(lang, n):
    where = (lang.name, lang.obstructions, n)
    certs = recognition_certificates(lang, n)
    # items, not sizes: the same words in the same order with the same tuples
    assert list(certs.items()) == list(reference_recognition_certificates(lang, n).items()), where
    assert recognition_depth_nondet(lang, n) == reference_recognition_depth_nondet(lang, n), where


def test_recognition_certificates_match_reference(monkeypatch):
    search, fallbacks = oracle.min_hitting_set, []

    def counted_search(masks):
        fallbacks.append(len(masks))
        return search(masks)

    monkeypatch.setattr(oracle, "min_hitting_set", counted_search)
    langs = recognition_differential_languages() + [
        Language.from_forbidden(f"seeded-{i}", ws)
        for i, ws in enumerate(random_antichains(30, 4, seed=23))
    ]
    for lang in langs:
        for n in range(1, 11):
            if lang.count_slice(n) <= 256:  # the reference is quadratic in the slice
                assert_recognition_certificates_match_reference(lang, n)
    # Avoid{001,010,0111} has words whose sensitive positions do not
    # separate them from n = 3 on, so the hitting-set fallback is covered
    assert fallbacks


def slice_sensitivity(words):
    """Most slice neighbours at Hamming distance 1 that any slice word has."""
    members = set(words)
    flip = {"0": "1", "1": "0"}
    return max(
        (sum(w[:p] + flip[w[p]] + w[p + 1 :] in members for p in range(len(w))) for w in words),
        default=0,
    )


@given(words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=4), max_size=4))
@settings(max_examples=40, deadline=None)
def test_sensitivity_lower_bounds_the_recognition_depths(words):
    lang = Language.from_forbidden("drawn", words)
    for n in range(1, 10):
        sens = slice_sensitivity(lang.slice(n))
        ra = recognition_depth_nondet(lang, n)
        rd = recognition_depth_det(lang, n)
        assert sens <= ra <= rd <= n, (lang.obstructions, n, sens, ra, rd)


# -- certificates that close a node without searching it --------------------------


def flip_count_sensitivity(table, n):
    """s(f) of a 2^n-bit table, input by input: the flips that change its bit."""
    return max(
        sum((table >> x ^ table >> (x ^ 1 << b)) & 1 for b in range(n)) for x in range(1 << n)
    )


def parity_coefficient(lang, n):
    """Slice members of even weight minus those of odd weight: the top Fourier
    coefficient of the slice indicator, up to a factor of 2^n."""
    return sum((-1) ** w.count("1") for w in brute_slice(lang, n))


def root_recognition_bounds(lang, n):
    """(lower, k) for the whole slice: max(ceil(log2 |L(n)|), slice
    sensitivity) and the number of positions whose letter varies in it."""
    words = lang.slice(n)
    k = sum(len({w[p] for w in words}) == 2 for p in range(n))
    return max(max(len(words) - 1, 0).bit_length(), slice_sensitivity(words)), k


def assert_certificates_hold(lang, n):
    """Checks each certificate's bound against the reference oracles and
    returns which of them close the root: ``md`` for a nonzero parity
    coefficient, ``rd`` for a recognition lower bound that meets k."""
    where = (lang.name, lang.obstructions, n)
    table = lang.automaton().truth_table(n)
    s = oracle._sensitivity(table, n)
    assert s == flip_count_sensitivity(table, n), where
    assert s <= reference_membership_depth_nondet(lang, n), where
    closed = set()
    if parity_coefficient(lang, n):
        assert reference_membership_depth_det(lang, n) == n, where
        closed.add("md")
    lower, k = root_recognition_bounds(lang, n)
    assert lower <= k, where
    if lower == k:
        assert reference_recognition_depth_det(lang, n) == k, where
        closed.add("rd")
    return closed


def test_certificates_hold_against_the_reference_oracles():
    closed = {"md": 0, "rd": 0}
    for lang in small_languages():
        for n in range(1, 11):
            for measure in assert_certificates_hold(lang, n):
                closed[measure] += 1
    # both certificates close roots here, so neither check is vacuous
    assert all(closed.values()), closed


@given(words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=4), max_size=4))
@settings(max_examples=25, deadline=None)
def test_certificates_hold_on_drawn_antichains(words):
    lang = Language.from_forbidden("drawn", words)
    for n in range(1, 9):
        assert_certificates_hold(lang, n)


def test_table_sensitivity_matches_flip_count_on_random_tables():
    rng = random.Random(19)
    for n in range(1, 9):
        tables = [0, (1 << (1 << n)) - 1] + [rng.getrandbits(1 << n) for _ in range(20)]
        for table in tables:
            assert oracle._sensitivity(table, n) == flip_count_sensitivity(table, n), (n, table)


@pytest.mark.parametrize("n", [11, 12])
@pytest.mark.parametrize("forbidden", ["1111", "0101", "1001"])
def test_recognition_tree_below_a_certified_root_matches_reference(forbidden, n):
    lang = Language.from_forbidden(f"avoid-{forbidden}", [forbidden])
    # the root is certified, so each node below it is searched only as the
    # tree is replayed
    assert root_recognition_bounds(lang, n) == (n, n)
    assert optimal_recognition_tree(lang, n) == reference_optimal_recognition_tree(lang, n)


def test_membership_tree_with_certified_subfunctions_matches_reference():
    # the search certifies subfunctions by parity at widths 2..10 here
    L3 = bundled_language("L3")
    assert optimal_membership_tree(L3, 11) == reference_optimal_membership_tree(L3, 11)


def test_certified_membership_depths_past_the_default_cap():
    # the parity coefficient closes the md root and s(f) = 18 the ma sweep,
    # so n = 18 needs no search
    L4 = bundled_language("L4")
    assert membership_depth_det(L4, 18, max_n=18) == 18
    assert membership_depth_nondet(L4, 18, max_n=18) == 18


def test_membership_table_width_is_capped_whatever_max_n():
    L3 = bundled_language("L3")
    n = MAX_TABLE_N + 1
    for oracle_call in (membership_depth_det, membership_depth_nondet, optimal_membership_tree):
        with pytest.raises(CapExceeded):
            oracle_call(L3, n, max_n=30)
    with pytest.raises(CapExceeded):
        membership_certificate(L3, n, "0" * n, max_n=30)


# -- the one minimax on synthetic problems -------------------------------------------


def synthetic_problem(nodes, edges):
    """(split, child, calls) for a problem given as tables: ``nodes[x]`` is
    (cuts, lower bound), a node not listed is a leaf, ``edges[x, cut, bit]``
    is a child, and ``calls`` records every child asked for."""
    calls = []

    def split(x):
        return nodes.get(x, ((), 0))

    def child(x, cut, bit):
        calls.append((x, cut, bit))
        return edges[x, cut, bit]

    return split, child, calls


def test_minimax_closes_a_node_whose_bound_is_its_cut_count():
    def child(x, cut, bit):
        raise AssertionError("a closed node has no child searched")

    depth, choice = oracle._minimax("r", lambda x: (("a", "b", "c"), 3), child)
    assert depth == 3
    assert choice("r") == "a"


def test_minimax_keeps_the_first_optimal_cut():
    nodes = {
        "r": (("x", "y", "z"), 1),
        "two": (("p", "q"), 2),  # closed at depth 2
        "one": (("p",), 1),  # closed at depth 1
    }
    edges = {
        ("r", "x", 0): "two", ("r", "x", 1): "leaf",  # depth 3
        ("r", "y", 0): "one", ("r", "y", 1): "one",  # depth 2: strictly better
        ("r", "z", 0): "one", ("r", "z", 1): "leaf",  # depth 2: a tie
    }
    split, child, _ = synthetic_problem(nodes, edges)
    depth, choice = oracle._minimax("r", split, child)
    assert depth == 2
    assert choice("r") == "y"


def test_minimax_leaf_has_depth_zero_and_no_choice():
    split, child, calls = synthetic_problem({}, {})
    depth, choice = oracle._minimax("leaf", split, child)
    assert (depth, choice("leaf"), calls) == (0, None, [])


def test_minimax_searches_below_a_closed_root_on_demand():
    nodes = {
        "r": (("x", "y"), 2),  # closed at its first cut
        "a": (("p", "q"), 1),
        "one": (("s",), 1),
    }
    edges = {
        ("r", "x", 0): "a", ("r", "x", 1): "leaf",
        ("a", "p", 0): "one", ("a", "p", 1): "one",  # depth 2, a's start
        ("a", "q", 0): "leaf", ("a", "q", 1): "leaf",  # depth 1
    }
    split, child, calls = synthetic_problem(nodes, edges)
    depth, choice = oracle._minimax("r", split, child)
    assert (depth, choice("r"), calls) == (2, "x", [])
    assert choice("a") == "q"
    assert {x for x, _, _ in calls} == {"a"}


# -- frozen example values -----------------------------------------------------


def test_brute_slice_examples():
    assert brute_slice(Language.from_forbidden("x", ["10"]), 2) == ["00", "01", "11"]
    assert brute_slice(Language.from_forbidden("x", [""]), 4) == []
    assert len(brute_slice(Language.from_forbidden("x", []), 3)) == 8


def test_brute_slice_cap():
    with pytest.raises(CapExceeded):
        brute_slice(bundled_language("L3"), 23)


def test_h_rd_examples():
    assert recognition_depth_det(bundled_language("L3"), 3) == 2
    assert recognition_depth_det(bundled_language("L1"), 3) == 3
    assert recognition_depth_det(bundled_language("L4"), 5) == 0


def test_h_ra_examples():
    assert recognition_depth_nondet(bundled_language("L3"), 3) == 2
    assert recognition_depth_nondet(bundled_language("L1"), 2) == 2
    assert recognition_depth_nondet(bundled_language("L4"), 9) == 0


def test_h_md_examples():
    assert membership_depth_det(bundled_language("L3"), 2) == 2
    assert membership_depth_det(bundled_language("L2"), 6) == 0
    assert membership_depth_det(bundled_language("L4"), 4) == 4


def test_h_ma_examples():
    assert membership_depth_nondet(bundled_language("L4"), 4) == 4
    assert membership_depth_nondet(bundled_language("L1"), 3) == 2
    assert membership_depth_nondet(bundled_language("L2"), 8) == 0


def test_recognition_oracles_at_the_slice_cap():
    # the full language at n=12 has exactly 4096 slice words: the cap boundary
    L2 = bundled_language("L2")
    assert recognition_depth_det(L2, 12) == 12
    assert recognition_depth_nondet(L2, 12) == 12


def test_oracle_caps():
    L2 = bundled_language("L2")
    with pytest.raises(CapExceeded):
        recognition_depth_det(L2, 17)
    with pytest.raises(CapExceeded):
        recognition_depth_det(L2, 13)  # slice has 8192 > 4096 words
    with pytest.raises(CapExceeded):
        membership_depth_det(L2, 15)


# -- cross-measure invariants ----------------------------------------------------


def test_sandwich_and_leaf_count_bounds(corpus):
    for lang in corpus:
        for n in range(1, 9):
            count = lang.count_slice(n)
            rd = recognition_depth_det(lang, n)
            ra = recognition_depth_nondet(lang, n)
            md = membership_depth_det(lang, n)
            ma = membership_depth_nondet(lang, n)
            assert ra <= rd <= n, (lang.name, n)
            assert ma <= md <= n, (lang.name, n)
            assert rd >= math.ceil(math.log2(max(count, 1))), (lang.name, n)


def test_membership_lower_bound_all_infinite_corpus_languages(corpus):
    # every infinite language with a nonempty complement forces membership
    # certificates longer than n minus its shortest obstruction
    from subword_trees import finiteness_flags

    for lang in corpus:
        finite, comp_empty, shortest = finiteness_flags(lang)
        if finite or comp_empty:
            continue
        for n in range(2, 11):
            assert membership_depth_nondet(lang, n) > n - shortest, (lang.name, n)


def test_constructed_rd_dominates_exact(corpus):
    # the measured strategy worst case can never beat the true optimum
    from subword_trees import block_length, block_recognition_strategy, trace_strategy
    from subword_trees.dimensions import INFINITY, homogeneity_dimension

    for lang in corpus:
        if homogeneity_dimension(lang) == INFINITY:
            continue
        t = block_length(lang)
        for n in range(10 * t, 13):
            strategy = block_recognition_strategy(lang, n)
            worst = 0
            for w in lang.iter_slice(n):
                queried, _ = trace_strategy(strategy, w)
                worst = max(worst, len(queried))
            assert worst >= recognition_depth_det(lang, n), (lang.name, n)


# -- optimal trees and certificates ----------------------------------------------


def test_optimal_recognition_tree_is_valid_and_optimal(corpus):
    for lang in corpus:
        for n in range(1, 9):
            tree = optimal_recognition_tree(lang, n)
            assert validate_recognition(tree, lang, n, "det") is None, (lang.name, n)
            assert tree.depth() == recognition_depth_det(lang, n)


def test_optimal_membership_tree_is_valid_and_optimal(corpus):
    for lang in corpus:
        for n in range(1, 8):
            tree = optimal_membership_tree(lang, n)
            assert validate_membership(tree, lang, n, "det") is None, (lang.name, n)
            assert tree.depth() == membership_depth_det(lang, n)


def test_recognition_certificates_are_minimal_and_separating(corpus):
    for lang in corpus:
        for n in range(1, 7):
            words = lang.slice(n)
            certs = recognition_certificates(lang, n)
            assert set(certs) == set(words)
            for w, positions in certs.items():
                assert len(positions) == naive_min_separating(words, w, n)
                for u in words:
                    if u != w:
                        assert any(u[p - 1] != w[p - 1] for p in positions)


@given(words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=4), max_size=4))
@settings(max_examples=25, deadline=None)
def test_sensitive_positions_lie_in_every_recognition_certificate(words):
    # a certificate that left out a position whose flip stays in the slice
    # would not separate the word from that neighbour
    lang = Language.from_forbidden("drawn", words)
    flip = {"0": "1", "1": "0"}
    for n in range(1, 10):
        for w, positions in recognition_certificates(lang, n).items():
            flips = {p: w[: p - 1] + flip[w[p - 1]] + w[p:] for p in range(1, n + 1)}
            sensitive = {p for p, u in flips.items() if lang.contains(u)}
            assert sensitive <= set(positions), (lang.obstructions, w, positions)


def test_membership_certificate_single_words():
    L1 = bundled_language("L1")
    cert = membership_certificate(L1, 3, "000")
    # every word agreeing with 000 on the certificate has at most one 1
    assert len(cert) == 2
    cert = membership_certificate(L1, 3, "111")
    assert len(cert) == 2


# -- hitting-set search -----------------------------------------------------------


def naive_min_hitting_size(masks):
    bits = set()
    for m in masks:
        b = 0
        while m:
            low = m & -m
            bits.add(low)
            m ^= low
    for size in range(len(bits) + 1):
        for combo in itertools.combinations(sorted(bits), size):
            chosen = 0
            for b in combo:
                chosen |= b
            if all(m & chosen for m in masks):
                return size
    raise AssertionError("unreachable")


def test_min_hitting_set_random():
    # no mask, or only the empty one, needs no bit
    assert min_hitting_set([]) == 0
    assert min_hitting_set([0]) == 0
    rng = random.Random(11)
    for _ in range(60):
        masks = [rng.randint(1, 1 << 8) for _ in range(rng.randint(1, 10))]
        chosen = min_hitting_set(masks)
        assert all(m & chosen for m in masks)
        assert chosen.bit_count() == naive_min_hitting_size(masks)


def test_greedy_hitting_set_is_a_cover():
    rng = random.Random(12)
    for _ in range(40):
        masks = [rng.randint(1, 1 << 10) for _ in range(rng.randint(1, 12))]
        chosen = greedy_hitting_set(masks)
        assert all(m & chosen for m in masks)


# -- depth profiles ----------------------------------------------------------------


def test_depth_profile_examples():
    L3 = bundled_language("L3")
    profile = depth_profile(L3, 1, 6)
    assert [r.values["rd"] for r in profile.rows] == [1, 2, 2, 3, 3, 3]
    assert [r.values["ra"] for r in profile.rows] == [1, 2, 2, 2, 2, 2]
    assert all(r.sources["rd"] == "EXACT" for r in profile.rows)

    L5 = bundled_language("L5")
    profile = depth_profile(L5, 1, 5, measures=("md",))
    # empty slices decide membership with zero queries
    assert [r.values["md"] for r in profile.rows] == [1, 0, 0, 0, 0]
    assert [r.values["rd"] for r in profile.rows] == [None] * 5
    assert all(r.sources["rd"] == "SKIPPED" for r in profile.rows)

    L2 = bundled_language("L2")
    profile = depth_profile(L2, 1, 4, measures=("rd",))
    assert [r.values["rd"] for r in profile.rows] == [1, 2, 3, 4]


def test_depth_profile_constructed_cells():
    # a profile holds exact values only: past the caps the cell is skipped,
    # and filling it from the block strategy is left to the CLI
    L3 = bundled_language("L3")
    profile = depth_profile(L3, 40, 40, measures=("rd",))
    assert profile.rows[0].sources["rd"] == "SKIPPED"
    assert profile.rows[0].values["rd"] is None


def test_depth_profile_max_n_caps_both_problems():
    L3 = bundled_language("L3")
    (row,) = depth_profile(L3, 3, 3, max_n=2).rows
    assert set(row.sources.values()) == {"SKIPPED"}
    # None keeps each problem's own cap: 16 for recognition, 14 for membership
    (row,) = depth_profile(L3, 15, 15, measures=("rd", "md")).rows
    assert (row.sources["rd"], row.sources["md"]) == ("EXACT", "SKIPPED")
    (row,) = depth_profile(L3, 15, 15, measures=("rd", "md"), max_n=15).rows
    assert (row.sources["rd"], row.sources["md"]) == ("EXACT", "EXACT")
    assert row.values["md"] == membership_depth_det(L3, 15, max_n=15)


def test_rd_builds_a_neighbour_row_only_where_a_scan_reaches(monkeypatch):
    flips, built = oracle._one_letter_flips, []

    def counted(ints, n):
        row = flips(ints, n)

        def counted_row(i):
            built.append(i)
            return row(i)

        return counted_row

    monkeypatch.setattr(oracle, "_one_letter_flips", counted)
    lang = Language.from_forbidden("avoid-1001", ["1001"])
    (row,) = depth_profile(lang, 13, 13, ("rd",)).rows
    assert row.values["rd"] == reference_recognition_depth_det(lang, 13) == 13
    assert 0 < len(built) == len(set(built)) < lang.count_slice(13)


def test_depth_profile_builds_one_recognition_table_per_length(monkeypatch):
    build, calls = Language.slice_splits, []

    def counted_build(self, n, *args):
        calls.append(n)
        return build(self, n, *args)

    monkeypatch.setattr(Language, "slice_splits", counted_build)
    L3 = bundled_language("L3")
    profile = depth_profile(L3, 1, 16, ("rd", "ra"))
    assert calls == list(range(1, 17))
    for row in profile.rows:
        assert row.values["rd"] == recognition_depth_det(L3, row.n)
        assert row.values["ra"] == recognition_depth_nondet(L3, row.n)
    # a table past the slice cap leaves both recognition cells SKIPPED
    calls.clear()
    (row,) = depth_profile(bundled_language("L2"), 13, 13, ("rd", "ra"), max_n=13).rows
    assert calls == [13]
    assert (row.sources["rd"], row.sources["ra"]) == ("SKIPPED", "SKIPPED")


def test_depth_profile_rejects_bad_input():
    L3 = bundled_language("L3")
    with pytest.raises(ValueError):
        depth_profile(L3, 3, 2)
    with pytest.raises(ValueError):
        depth_profile(L3, 1, 2, measures=("bogus",))
