import json
import re
import shlex
import sys
import tracemalloc
from pathlib import Path

import pytest

from subword_trees import (
    DecisionTree,
    Language,
    builders,
    bundled_path,
    cli,
    slice_size_bound,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
)
from subword_trees.cli import main
from subword_trees.oracle import optimal_recognition_tree
from subword_trees.language import bundled_language

from conftest import corpus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- classify ---------------------------------------------------------------------


def test_classify_line_output(capsys):
    code, out, _ = run(capsys, "classify", bundled_path("L1"))
    assert code == 0
    assert "class=1" in out and "hom=inf" in out
    assert "rd=LINEAR ra=LINEAR md=LINEAR ma=LINEAR" in out


def test_classify_l3_predictions(capsys):
    code, out, _ = run(capsys, "classify", "L3")
    assert code == 0
    assert "class=3" in out
    assert "rd=LOG" in out and "ra=CONSTANT" in out and "md=LINEAR" in out


def test_classify_all_bundled(capsys):
    code, out, _ = run(capsys, "classify", "L1", "L2", "L3", "L4", "L5")
    assert code == 0
    lines = out.strip().splitlines()
    assert [f"class={i}" in line for i, line in enumerate(lines, start=1)] == [True] * 5


def test_classify_json_format(capsys):
    code, out, _ = run(capsys, "classify", "L5", "--format", "json")
    assert code == 0
    (doc,) = json.loads(out)
    assert doc["class"] == 5 and doc["hom"] == "0"
    assert doc["predictions"]["ma"] == "CONSTANT"


def test_classify_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    documents = [
        (b'{"name":"bad","forbidden":["12"]}', "invalid letter"),
        (b"\xff\xfe{\x00}\x00", "language document is not UTF-8"),
        (b"[" * 200_000, "nested too deeply"),
    ]
    for content, fragment in documents:
        bad.write_bytes(content)
        for argv in (["classify", str(bad)], ["enumerate", str(bad), "-n", "3"]):
            code, _, err = run(capsys, *argv)
            assert code == 2, (argv, fragment)
            assert fragment in err


def test_classify_missing_file(capsys):
    code, _, err = run(capsys, "classify", "/nonexistent/lang.json")
    assert code == 2


needs_int_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int-to-str digits"
)
HUGE_INT = "1" * 5000  # past the default limit of 4300 digits


@needs_int_digit_limit
def test_language_document_holding_a_huge_integer_is_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(f'{{"name": "x", "forbidden": ["11"], "pad": {HUGE_INT}}}')
    code, out, err = run(capsys, "classify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed language document: ")


# -- enumerate ---------------------------------------------------------------------


def test_enumerate_words(capsys):
    code, out, _ = run(capsys, "enumerate", "L3", "-n", "3")
    assert code == 0
    assert out.strip().splitlines() == ["000", "001", "011", "111"]


def test_enumerate_empty_slice(capsys):
    code, out, _ = run(capsys, "enumerate", "L5", "-n", "4")
    assert code == 0
    assert out.strip() == ""
    code, out, _ = run(capsys, "enumerate", "L5", "-n", "4", "--count-only")
    assert code == 0
    assert out.strip() == "0"


@pytest.mark.parametrize(
    "lang, n, stdout, file",
    [("L3", 3, "000\n001\n011\n111\n", "000\n001\n011\n111"), ("L5", 4, "\n", "")],
)
def test_enumerate_bytes(tmp_path, capsys, lang, n, stdout, file):
    # stdout ends each word with a newline; --out separates them, no final one
    assert run(capsys, "enumerate", lang, "-n", str(n)) == (0, stdout, "")
    out = tmp_path / "words.txt"
    assert run(capsys, "enumerate", lang, "-n", str(n), "--out", str(out)) == (0, "", "")
    assert out.read_bytes() == file.encode()


def test_enumerate_streams_the_slice(tmp_path, monkeypatch, capsys):
    def no_list(self, n):
        raise AssertionError("enumerate holds the whole slice in memory")

    monkeypatch.setattr(Language, "slice", no_list)
    assert run(capsys, "enumerate", "L3", "-n", "3") == (0, "000\n001\n011\n111\n", "")
    out = tmp_path / "words.txt"
    assert run(capsys, "enumerate", "L3", "-n", "3", "--out", str(out))[0] == 0
    assert out.read_text() == "000\n001\n011\n111"


def test_enumerate_count_only(capsys):
    code, out, _ = run(capsys, "enumerate", "L2", "-n", "2", "--count-only")
    assert code == 0
    assert out.strip() == "4"


def test_enumerate_count_only_prints_counts_past_the_digit_limit(capsys):
    # 2^15000 has 4516 digits, past the default int-to-str limit of 4300
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    code, out, err = run(capsys, "enumerate", "L2", "-n", "15000", "--count-only")
    assert (code, err) == (0, "")
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
    try:
        expected = str(2**15000)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert out == expected + "\n"


# -- depths ------------------------------------------------------------------------


def test_depths_csv(capsys):
    code, out, _ = run(capsys, "depths", "L3", "-n", "1..6")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split(",")
    assert header == [
        "language", "n", "h_rd", "h_ra", "h_md", "h_ma", "class",
        "source_rd", "source_ra", "source_md", "source_ma",
    ]
    rd_column = [line.split(",")[2] for line in lines[1:]]
    assert rd_column == ["1", "2", "2", "3", "3", "3"]


def test_depths_linear_class_rows(capsys):
    code, out, _ = run(capsys, "depths", "L1", "-n", "1..6")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(r[2] == r[3] == r[1] for r in rows)  # h_rd = h_ra = n

    code, out, _ = run(capsys, "depths", "L2", "-n", "1..6", "--measures", "md,ma")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert all(r[4] == "0" and r[5] == "0" for r in rows)


def test_depths_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "depths", "L4", "L5", "-n", "1..8", "--format", "csv")
    code2, out2, _ = run(capsys, "depths", "L4", "L5", "-n", "1..8", "--format", "csv")
    assert code1 == code2 == 0
    assert out1 == out2


def test_depths_skipped_cells_render_empty(capsys):
    code, out, _ = run(capsys, "depths", "L3", "-n", "18..18")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[2] == "" and row[7] == "SKIPPED"


def test_depths_certified_membership_cells_at_n_18(capsys):
    code, out, _ = run(capsys, "depths", "L4", "-n", "18", "--measures", "md,ma", "--max-n", "18")
    assert code == 0
    assert out.splitlines()[1] == "L4,18,,,18,18,4,SKIPPED,SKIPPED,EXACT,EXACT"


def test_depths_paper_algorithm_fills_rd(capsys):
    code, out, _ = run(capsys, "depths", "L3", "-n", "40..40", "--algorithm", "paper")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[7] == "CONSTRUCTED"
    assert int(row[2]) <= 13  # ceil(log2 40) + 7


def test_depths_paper_fill_honours_max_slice(capsys):
    # L(40) of L3 has 41 words, more than the strategy may be played over
    code, out, _ = run(
        capsys, "depths", "L3", "-n", "40", "--algorithm", "paper", "--max-slice", "5"
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[2] == "" and row[7] == "SKIPPED"


def test_depths_paper_requires_rd(capsys):
    code, _, err = run(
        capsys, "depths", "L3", "-n", "1..2", "--algorithm", "paper", "--measures", "md"
    )
    assert code == 1


# classes 4 and 5 (slices stay bounded): the paper's distinguishing-set tree
BOUNDED_AVOIDERS = {"avoid-01-0000": ["01", "0000"], "avoid-001-0000-0111": ["001", "0000", "0111"]}


def bounded_slice_docs(tmp_path) -> dict[str, str]:
    """Documents for the corpus languages with a finite slice-size bound and
    two class-4 avoiders whose slices have more than one word."""
    docs = {
        lang.name: list(lang.obstructions)
        for lang in corpus()
        if slice_size_bound(lang) is not None
    }
    docs.update(BOUNDED_AVOIDERS)
    paths = {}
    for name, forbidden in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"name": name, "forbidden": forbidden}))
        paths[name] = str(path)
    return paths


def paper_rd_cell(capsys, path, n, *flags):
    code, out, _ = run(
        capsys, "depths", path, "-n", str(n), "--algorithm", "paper", "--measures", "rd", *flags
    )
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    return row[2], row[7]


def test_depths_paper_rd_is_constant_for_bounded_slices(tmp_path, capsys):
    paths = bounded_slice_docs(tmp_path)
    assert {"L4", "L5", "avoid-01-0000"} <= set(paths)
    for name, path in paths.items():
        cells = {paper_rd_cell(capsys, path, n) for n in (40, 100, 1000)}
        assert len(cells) == 1 and cells.pop()[1] == "CONSTRUCTED", name
    # the block strategy printed 8, 10, 11, 14 and SKIPPED, 20, 20, 20 here
    for name, rd in (("avoid-01-0000", "3"), ("avoid-001-0000-0111", "5")):
        for n in (17, 40, 100, 1000):
            assert paper_rd_cell(capsys, paths[name], n) == (rd, "CONSTRUCTED"), (name, n)


def test_paper_rd_of_bounded_slices_is_measured_on_every_word(tmp_path, capsys, monkeypatch):
    path = bounded_slice_docs(tmp_path)["avoid-001-0000-0111"]

    def refuse(self):
        raise AssertionError("a tree depth was read")

    monkeypatch.setattr(DecisionTree, "depth", refuse)
    assert paper_rd_cell(capsys, path, 40) == ("5", "CONSTRUCTED")
    lang = Language.from_forbidden("avoid-001-0000-0111", BOUNDED_AVOIDERS["avoid-001-0000-0111"])
    strategy = builders.DistinguishingSetStrategy(lang, 40)
    strategy.positions = strategy.positions[:-1]
    with pytest.raises(AssertionError, match="'1111111111111111111111111111111111110100'"):
        builders.worst_case_queries(lang, strategy, 40)


def test_paper_distinguishing_set_honours_max_slice(tmp_path, capsys):
    path = bounded_slice_docs(tmp_path)["avoid-001-0000-0111"]  # 10 words at n = 40
    assert paper_rd_cell(capsys, path, 40, "--max-slice", "10") == ("5", "CONSTRUCTED")
    assert paper_rd_cell(capsys, path, 40, "--max-slice", "9") == ("", "SKIPPED")
    code, out, err = run(
        capsys, "build-tree", path, "-n", "40", "--algorithm", "paper", "--max-slice", "9"
    )
    assert code == 3 and out == ""
    assert "recognition capped at slices of <= 9 words, got avoid-001-0000-0111(40)" in err


def test_build_tree_paper_bounded_slices_validate(tmp_path, capsys):
    for name, path in bounded_slice_docs(tmp_path).items():
        for n in (13, 40):
            out = tmp_path / f"{name}-{n}.json"
            code, _, err = run(
                capsys, "build-tree", path, "-n", str(n), "--algorithm", "paper", "--out", str(out)
            )
            assert code == 0, (name, n, err)
            code, _, err = run(capsys, "validate", str(out), path, "-n", str(n))
            assert code == 0, (name, n, err)
            depth = tree_from_json(out.read_text()).depth()
            assert (str(depth), "CONSTRUCTED") == paper_rd_cell(capsys, path, 40), (name, n)


def test_depths_table_format(capsys):
    code, out, _ = run(capsys, "depths", "L3", "-n", "1..2", "--format", "table")
    assert code == 0
    assert out.splitlines()[0].startswith("language")


def test_depths_bad_range(capsys):
    code, _, _ = run(capsys, "depths", "L3", "-n", "6..2")
    assert code == 1


def test_depths_non_numeric_range_is_usage_error(capsys):
    code, _, err = run(capsys, "depths", "L1", "-n", "a..b")
    assert code == 1
    assert "invalid range" in err


def test_depths_membership_past_table_width_is_skipped(capsys):
    # --max-n cannot lift membership past the truth-table width cap
    code, out, _ = run(capsys, "depths", "L3", "-n", "21", "--measures", "md", "--max-n", "30")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[4] == "" and row[9] == "SKIPPED"


# -- build-tree ---------------------------------------------------------------------


def test_build_tree_exact_recognition(tmp_path, capsys):
    out_path = tmp_path / "tree.json"
    code, _, _ = run(
        capsys,
        "build-tree", "L3", "-n", "3",
        "--problem", "recognition", "--mode", "det", "--algorithm", "exact",
        "--out", str(out_path),
    )
    assert code == 0
    tree = tree_from_json(out_path.read_text())
    assert tree.depth() == 2
    code, out, _ = run(
        capsys, "validate", str(out_path), "L3", "-n", "3", "--problem", "recognition"
    )
    assert code == 0 and "pass" in out


def test_build_tree_membership_defaults_to_constant_leaf(capsys):
    code, out, _ = run(capsys, "build-tree", "L2", "-n", "5", "--problem", "membership")
    assert code == 0
    assert json.loads(out) == {"children": [{"leaf": "1"}]}
    # a constant answer keeps its one leaf past the complete tree's cap
    code, out, _ = run(capsys, "build-tree", "L2", "-n", "40", "--problem", "membership")
    assert code == 0
    assert json.loads(out) == {"children": [{"leaf": "1"}]}


@pytest.mark.parametrize("n", ["21", "40"])
def test_build_tree_paper_membership_past_table_width_is_exit_3(capsys, n):
    # the complete membership tree has 2^n leaves, so n is capped before building it
    code, _, err = run(capsys, "build-tree", "L1", "-n", n, "--problem", "membership")
    assert code == 3
    assert "capped at n <= 20" in err


def test_build_tree_paper_infinite_dimension_exits_3(capsys):
    code, _, err = run(capsys, "build-tree", "L1", "-n", "20", "--algorithm", "paper")
    assert code == 3
    assert "infinite" in err


def test_build_tree_paper_materializes_small_n(tmp_path, capsys):
    out_path = tmp_path / "t.json"
    code, _, _ = run(
        capsys, "build-tree", "L3", "-n", "10", "--algorithm", "paper",
        "--out", str(out_path),
    )
    assert code == 0
    code, out, _ = run(capsys, "validate", str(out_path), "L3", "-n", "10")
    assert code == 0


def test_build_tree_paper_large_n_reports_bound(capsys):
    code, out, _ = run(capsys, "build-tree", "L3", "-n", "200", "--algorithm", "paper")
    assert code == 0
    doc = json.loads(out)
    assert doc["algorithm"] == "paper" and doc["n"] == 200
    assert doc["words_simulated"] == 201
    assert doc["max_queries_observed"] <= doc["query_budget"]


def test_build_tree_nondet_paper_certificates(tmp_path, capsys):
    out_path = tmp_path / "nd.json"
    code, _, _ = run(
        capsys, "build-tree", "L3", "-n", "12", "--mode", "nondet",
        "--algorithm", "paper", "--out", str(out_path),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "validate", str(out_path), "L3", "-n", "12", "--mode", "nondet"
    )
    assert code == 0


def test_build_tree_exact_nondet_membership(tmp_path, capsys):
    out_path = tmp_path / "m.json"
    code, _, _ = run(
        capsys, "build-tree", "L1", "-n", "4", "--problem", "membership",
        "--mode", "nondet", "--algorithm", "exact", "--out", str(out_path),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "validate", str(out_path), "L1", "-n", "4",
        "--problem", "membership", "--mode", "nondet",
    )
    assert code == 0


def test_build_tree_exact_nondet_recognition_at_slice_cap(tmp_path, capsys):
    # L2 at n = 12 is the 4096-word slice at the default cap: one exact
    # certificate per word, each read off its sensitive positions
    out_path = tmp_path / "r.json"
    code, _, err = run(
        capsys, "build-tree", "L2", "-n", "12", "--problem", "recognition",
        "--mode", "nondet", "--algorithm", "exact", "--out", str(out_path),
    )
    assert code == 0, err
    code, out, err = run(
        capsys, "validate", str(out_path), "L2", "-n", "12",
        "--problem", "recognition", "--mode", "nondet",
    )
    assert code == 0, (out, err)
    tree = tree_from_json(out_path.read_text())
    assert len(tree.root_children) == 4096 and tree.depth() == 12


def test_build_tree_dot_export(tmp_path, capsys):
    out_path = tmp_path / "t.json"
    dot_path = tmp_path / "t.dot"
    code, _, _ = run(
        capsys, "build-tree", "L3", "-n", "2", "--algorithm", "exact",
        "--out", str(out_path), "--dot", str(dot_path),
    )
    assert code == 0
    assert dot_path.read_text().startswith("digraph decision_tree")


NONDET_PAPER_TREE = ["-n", "100", "--problem", "recognition", "--mode", "nondet", "--algorithm", "paper"]


def class3_doc(tmp_path) -> str:
    """Avoid{001,010,0111}: class 3 with block length 4, so its certificate chains run deep."""
    path = tmp_path / "avoid-001-010-0111.json"
    path.write_text(json.dumps({"name": "avoid-001-010-0111", "forbidden": ["001", "010", "0111"]}))
    return str(path)


@pytest.mark.parametrize("lang, args", [
    ("L2", ["-n", "8", "--algorithm", "exact"]),
    (None, NONDET_PAPER_TREE),
])
def test_build_tree_streams_identical_documents(tmp_path, capsys, lang, args):
    lang = lang or class3_doc(tmp_path)
    code, stdout, _ = run(capsys, "build-tree", lang, *args)
    assert code == 0
    out, dot = tmp_path / "t.json", tmp_path / "t.dot"
    assert run(capsys, "build-tree", lang, *args, "--out", str(out), "--dot", str(dot)) == (0, "", "")
    text = out.read_text()
    assert stdout == text + "\n"
    tree = tree_from_json(text)
    assert tree_to_json(tree) == text
    assert dot.read_text() == tree_to_dot(tree)


def test_build_tree_holds_less_than_its_document(tmp_path):
    """The deep nondet document is streamed into its file, never held whole."""
    lang, out = class3_doc(tmp_path), tmp_path / "t.json"
    tracemalloc.start()
    try:
        code = main(["build-tree", lang, *NONDET_PAPER_TREE, "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < out.stat().st_size, (peak, out.stat().st_size)


def test_paper_report_holds_little_more_than_its_slice_words(tmp_path):
    """The block strategy is measured on the slice words: no table beside them."""
    out = tmp_path / "report.json"
    argv = ["build-tree", "L3", "-n", "1000", "--algorithm", "paper", "--out", str(out)]
    assert main(argv) == 0  # the parser and the automaton are built once, before the trace
    word_bytes = sum(sys.getsizeof(w) for w in bundled_language("L3").slice(1000))
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 1.5 * word_bytes, (peak, word_bytes)
    assert json.loads(out.read_text())["max_queries_observed"] == 14


def test_nondet_paper_build_honours_max_slice(tmp_path, capsys):
    out = tmp_path / "t.json"
    argv = ["build-tree", "L3", "-n", "300", "--mode", "nondet", "--algorithm", "paper"]
    code, stdout, err = run(capsys, *argv, "--max-slice", "100", "--out", str(out))
    assert code == 3 and stdout == ""
    assert "recognition capped at slices of <= 100 words, got L3(300)" in err
    assert not out.exists()
    code, _, _ = run(capsys, *argv, "--max-slice", "301", "--out", str(out))  # 301 words
    assert code == 0 and out.exists()


def test_block_report_past_max_slice_exits_3(tmp_path, capsys):
    # L3(5000) holds 5,001 words, past the default cap of 4,096
    out = tmp_path / "t.json"
    argv = ["build-tree", "L3", "-n", "5000", "--algorithm", "paper", "--out", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (3, "")
    assert err == "error: recognition capped at slices of <= 4096 words, got L3(5000)\n"
    assert not out.exists()
    code, _, _ = run(capsys, *argv, "--max-slice", "6000")
    assert code == 0
    doc = json.loads(out.read_text())
    assert (doc["max_queries_observed"], doc["words_simulated"], doc["query_budget"]) == (
        17, 5001, 20
    )
    assert paper_rd_cell(capsys, "L3", 5000) == ("", "SKIPPED")


def test_build_tree_dot_with_query_bound_report_is_usage_error(tmp_path, capsys):
    dot_path = tmp_path / "x.dot"
    code, out, err = run(capsys, "build-tree", "L3", "-n", "40", "--dot", str(dot_path))
    assert code == 1
    assert out == "" and "--dot" in err
    assert not dot_path.exists()


def test_build_tree_round_trip_all_modes(tmp_path, capsys):
    cases = [
        ("L3", 3, "recognition", "det", "exact"),
        ("L3", 3, "recognition", "nondet", "exact"),
        ("L4", 10, "recognition", "det", "paper"),
        ("L3", 10, "recognition", "nondet", "paper"),
        ("L5", 4, "recognition", "det", "exact"),  # empty slice: empty tree
        ("L5", 10, "recognition", "det", "paper"),
        ("L1", 3, "membership", "det", "exact"),
        ("L1", 3, "membership", "nondet", "exact"),
        ("L5", 4, "membership", "det", "paper"),
        ("L2", 6, "membership", "det", "paper"),
    ]
    for name, n, problem, mode, algorithm in cases:
        out_path = tmp_path / f"{name}-{n}-{problem}-{mode}-{algorithm}.json"
        code, _, _ = run(
            capsys, "build-tree", name, "-n", str(n), "--problem", problem,
            "--mode", mode, "--algorithm", algorithm, "--out", str(out_path),
        )
        assert code == 0, (name, problem, mode, algorithm)
        code, _, _ = run(
            capsys, "validate", str(out_path), name, "-n", str(n),
            "--problem", problem, "--mode", mode,
        )
        assert code == 0, (name, problem, mode, algorithm)


def test_build_tree_validate_round_trip_full_corpus(tmp_path, capsys):
    """Every corpus language x every supported (problem, mode, algorithm) combo
    builds a tree that its own validator accepts."""
    import json as json_mod

    from subword_trees import block_length
    from subword_trees.dimensions import INFINITY, homogeneity_dimension

    for lang in corpus():
        doc = {"name": lang.name, "forbidden": list(lang.obstructions)}
        lang_path = tmp_path / f"{lang.name}.json"
        lang_path.write_text(json_mod.dumps(doc))
        hom_finite = homogeneity_dimension(lang) != INFINITY
        combos = []
        for problem in ("recognition", "membership"):
            for mode in ("det", "nondet"):
                for algorithm in ("exact", "paper"):
                    if problem == "membership" and mode == "nondet" and algorithm == "paper":
                        continue  # unsupported by design
                    if problem == "recognition" and algorithm == "paper":
                        if not hom_finite:
                            continue  # builder precondition cannot hold
                        n = 10 * block_length(lang)
                        if n > 12 and mode == "det":
                            continue  # explicit strategy trees stay within n <= 12
                    else:
                        n = 4
                    combos.append((problem, mode, algorithm, n))
        for problem, mode, algorithm, n in combos:
            out = tmp_path / f"{lang.name}-{problem}-{mode}-{algorithm}.json"
            code, _, err = run(
                capsys, "build-tree", str(lang_path), "-n", str(n),
                "--problem", problem, "--mode", mode, "--algorithm", algorithm,
                "--out", str(out),
            )
            assert code == 0, (lang.name, problem, mode, algorithm, err)
            code, _, err = run(
                capsys, "validate", str(out), str(lang_path), "-n", str(n),
                "--problem", problem, "--mode", mode,
            )
            assert code == 0, (lang.name, problem, mode, algorithm, err)


# -- validate -----------------------------------------------------------------------


def test_validate_detects_swapped_leaves(tmp_path, capsys):
    tree = optimal_recognition_tree(bundled_language("L3"), 3)
    doc = json.loads(tree_to_json(tree))

    def swap_two_leaves(node):
        # swap the labels of the first branch that has two leaf children
        edges = node.get("edges", [])
        kids = [e["child"] for e in edges]
        if len(kids) == 2 and all("leaf" in k for k in kids):
            kids[0]["leaf"], kids[1]["leaf"] = kids[1]["leaf"], kids[0]["leaf"]
            return True
        return any(swap_two_leaves(k) for k in kids if "edges" in k or "query" in k)

    assert swap_two_leaves(doc["children"][0])
    bad = tmp_path / "swapped.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", str(bad), "L3", "-n", "3")
    assert code == 4
    assert "witness" in err


def test_validate_position_out_of_range_is_exit_2(tmp_path, capsys):
    tree = optimal_recognition_tree(bundled_language("L3"), 4)
    path = tmp_path / "tree-n4.json"
    path.write_text(tree_to_json(tree))
    code, _, err = run(capsys, "validate", str(path), "L3", "-n", "3")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("query, bit", [("true", "0"), ("1", "1.0")])
def test_validate_rejects_bool_and_float_positions_and_bits(tmp_path, capsys, query, bit):
    path = tmp_path / "typed.json"
    path.write_text(
        f'{{"children": [{{"query": {query}, "edges": [{{"bit": {bit}, "child": {{"leaf": "0"}}}}]}}]}}'
    )
    code, _, err = run(capsys, "validate", str(path), "L3", "-n", "3", "--problem", "membership")
    assert code == 2
    assert "must be" in err


@pytest.mark.parametrize("n", ["21", "40"])
def test_validate_membership_past_table_width_is_exit_3(tmp_path, capsys, n):
    # the membership validator walks all 2^n words, so n is capped before the walk
    path = tmp_path / "leaf.json"
    path.write_text('{"children": [{"leaf": "1"}]}')
    code, _, err = run(capsys, "validate", str(path), "L2", "-n", n, "--problem", "membership")
    assert code == 3
    assert "capped at n <= 20" in err


@pytest.mark.parametrize("n, code", [("12", 4), ("13", 3), ("40", 3)])
def test_validate_recognition_past_slice_cap_is_exit_3(tmp_path, capsys, n, code):
    # the recognition validator walks the whole slice, so its size is capped
    # before the walk: |L2(12)| = 4096 is still walked (and the leaf fails)
    path = tmp_path / "leaf.json"
    path.write_text('{"children": [{"leaf": "1"}]}')
    rc, _, err = run(capsys, "validate", str(path), "L2", "-n", n)
    assert rc == code
    assert ("slices of <= 4096 words" in err) == (code == 3)


def test_validate_malformed_tree_document(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "validate", str(path), "L3", "-n", "3")
    assert code == 2
    # bytes that are not UTF-8, as the tree and as the language document
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    code, _, err = run(capsys, "validate", str(utf16), "L3", "-n", "3")
    assert code == 2 and "tree document is not UTF-8" in err
    path.write_text('{"children": [{"leaf": "000"}]}')
    code, _, err = run(capsys, "validate", str(path), str(utf16), "-n", "3")
    assert code == 2 and "language document is not UTF-8" in err


@needs_int_digit_limit
def test_validate_tree_document_holding_a_huge_integer_is_exit_2(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(f'{{"children": [{{"query": {HUGE_INT}, "edges": []}}]}}')
    code, out, err = run(capsys, "validate", str(path), "L3", "-n", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed tree document: ")
    # the decoder's own errors keep their words
    path.write_text('{"children": [{"query": true, "edges": []}]}')
    code, _, err = run(capsys, "validate", str(path), "L3", "-n", "3")
    assert (code, err) == (2, "error: 'query' must be an integer position\n")


def test_validate_deeply_nested_tree_document_is_exit_2(tmp_path, capsys):
    depth = 3000
    opening = '{"query": 1, "edges": [{"bit": 0, "child": '
    node = opening * depth + '{"leaf": "0"}' + "}]}" * depth
    path = tmp_path / "deep.json"
    path.write_text(f'{{"children": [{node}]}}')
    code, _, err = run(capsys, "validate", str(path), "L3", "-n", "3")
    assert code == 2
    assert "nested too deeply" in err


# -- misc --------------------------------------------------------------------------


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as err:
        main(["depths", "L3"])  # missing -n
    assert err.value.code == 1


PARSER_SEQUENCE = [
    ["classify", "L3", "L5"],
    ["enumerate", "L3", "-n", "3"],
    ["depths", "L3"],  # missing -n: argparse exits 1
    ["depths", "L4", "-n", "1..3", "--measures", "rd,md"],
    ["build-tree", "L3", "-n", "3", "--algorithm", "exact"],
    ["build-tree", "L3", "-n", "3", "--bogus"],
    ["enumerate", "L2", "-n", "5", "--count-only"],
    ["validate", "--help"],
]


def outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_reuses_one_parser(capsys):
    fresh = []
    for argv in PARSER_SEQUENCE:
        cli._shared_parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    cli._shared_parser.cache_clear()
    reused = [outcome(capsys, argv) for argv in PARSER_SEQUENCE]
    assert cli._shared_parser.cache_info().misses == 1
    assert [code for code, _, _ in reused] == [0, 0, 1, 0, 0, 1, 0, 0]
    assert reused == fresh


def test_unknown_measure_is_usage_error(capsys):
    code, _, _ = run(capsys, "depths", "L3", "-n", "1..2", "--measures", "xx")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["depths", "L3", "-n", "3", "--max-n", "0"],
        ["depths", "L3", "-n", "3", "--max-n", "-1"],
        ["depths", "L3", "-n", "3", "--max-slice", "0"],
        ["build-tree", "L3", "-n", "3", "--algorithm", "exact", "--max-n", "0"],
        ["build-tree", "L3", "-n", "3", "--algorithm", "exact", "--max-slice", "-5"],
        ["enumerate", "L3", "-n", "0"],
        ["enumerate", "L3", "-n", "-1"],
        ["build-tree", "L3", "-n", "0"],
        ["build-tree", "L3", "-n", "-1"],
        ["validate", "tree.json", "L3", "-n", "0"],
        ["validate", "tree.json", "L3", "-n", "-1"],
    ],
)
def test_cap_flags_below_one_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    assert "must be at least 1" in capsys.readouterr().err


def test_non_integer_cap_flag_keeps_argparse_wording(capsys):
    with pytest.raises(SystemExit) as err:
        main(["depths", "L3", "-n", "3", "--max-slice", "many"])
    assert err.value.code == 1
    assert "argument --max-slice: invalid int value: 'many'" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["language", "tree", "out"])
def test_paths_under_a_regular_file_are_exit_2(tmp_path, capsys, role):
    plain = tmp_path / "plain.txt"
    plain.write_text("not a directory")
    tree = tmp_path / "tree.json"
    tree.write_text('{"children": [{"leaf": "000"}]}')
    argv = {
        "language": ["classify", str(plain / "x.json")],
        "tree": ["validate", str(plain / "tree.json"), "L3", "-n", "3"],
        "out": ["enumerate", "L3", "-n", "3", "--out", str(plain / "out.txt")],
    }[role]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "Not a directory" in err


def test_out_files_are_written(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code, _, _ = run(capsys, "depths", "L4", "-n", "1..3", "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("language,n,")


def readme_commands():
    """The ``subword-trees`` lines of the README's ``sh`` blocks, comments cut."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("subword-trees ")]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # the README's CLI examples, in order: build-tree writes what validate reads
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert commands
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
