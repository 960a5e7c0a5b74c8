import json

import pytest

from subword_trees import (
    Ask,
    Branch,
    DecisionTree,
    Finish,
    Language,
    Leaf,
    QueryStrategy,
    StrategyError,
    TreeFormatError,
    bundled_language,
    materialize_strategy,
    trace_strategy,
    tree_from_certificates,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    validate_membership,
    validate_recognition,
)
from subword_trees.oracle import (
    optimal_membership_tree,
    optimal_recognition_tree,
    recognition_certificates,
)


def leaf_chain(word, positions, label):
    node = Leaf(label)
    for p in reversed(positions):
        node = Branch(p, ((int(word[p - 1]), node),))
    return node


# -- depth ---------------------------------------------------------------------


def test_depth_examples():
    assert DecisionTree((Leaf("0"),)).depth() == 0
    chain2 = Branch(1, ((0, Branch(2, ((1, Leaf("01")),))),))
    assert DecisionTree((chain2,)).depth() == 2
    tree = optimal_recognition_tree(bundled_language("L3"), 3)
    assert tree.depth() == 2


def test_depth_of_empty_tree():
    assert DecisionTree(()).depth() == 0


# -- recognition validation ------------------------------------------------------


def full_read_tree(lang, n):
    def build(pos, prefix):
        if pos > n:
            return Leaf(prefix)
        return Branch(pos, tuple((b, build(pos + 1, prefix + "01"[b])) for b in (0, 1)))

    return DecisionTree((build(1, ""),))


def test_recognition_det_pass():
    L3 = bundled_language("L3")
    tree = optimal_recognition_tree(L3, 3)
    assert validate_recognition(tree, L3, 3, "det") is None


def test_recognition_swapped_leaves_fails_consistency():
    L3 = bundled_language("L3")
    # read both relevant positions but label two leaves the wrong way round
    tree = DecisionTree(
        (
            Branch(
                1,
                (
                    (0, Branch(2, (
                        (0, Branch(3, (((0, Leaf("001")), (1, Leaf("000")))))),
                        (1, Leaf("011")),
                    ))),
                    (1, Leaf("111")),
                ),
            ),
        )
    )
    violation = validate_recognition(tree, L3, 3, "det")
    assert violation is not None and violation.bullet == 3
    assert violation.witness in ("000", "001")


def test_recognition_missing_word_fails_coverage():
    L3 = bundled_language("L3")
    tree = DecisionTree((Branch(1, ((1, Leaf("111")),)),))
    violation = validate_recognition(tree, L3, 3, "det")
    assert violation is not None and violation.bullet == 2


def test_recognition_alien_leaf_fails_labels():
    L3 = bundled_language("L3")
    tree = full_read_tree(L3, 2)  # leaves include the non-member "10"
    violation = validate_recognition(tree, L3, 2, "det")
    assert violation is not None and violation.bullet == 1


def test_recognition_nondet_union_of_paths():
    L1 = bundled_language("L1")
    words = L1.slice(2)  # 00, 01, 10
    certs = {"00": (1, 2), "01": (2,), "10": (1,)}
    tree = DecisionTree(tuple(leaf_chain(w, certs[w], w) for w in words))
    assert validate_recognition(tree, L1, 2, "nondet") is None
    # the same tree is not deterministic: three root children
    violation = validate_recognition(tree, L1, 2, "det")
    assert violation is not None and violation.bullet == 0


def test_recognition_duplicate_edge_bits_rejected_in_det_mode():
    L4 = bundled_language("L4")
    tree = DecisionTree((Branch(1, ((0, Leaf("00")), (0, Leaf("00")))),))
    violation = validate_recognition(tree, L4, 2, "det")
    assert violation is not None and violation.bullet == 0
    assert validate_recognition(tree, L4, 2, "nondet") is None


def test_empty_tree_valid_only_for_empty_slice():
    L5 = bundled_language("L5")
    assert validate_recognition(DecisionTree(()), L5, 4, "det") is None
    L3 = bundled_language("L3")
    violation = validate_recognition(DecisionTree(()), L3, 3, "det")
    assert violation is not None and violation.bullet == 2


def test_position_out_of_range_raises():
    L3 = bundled_language("L3")
    tree = DecisionTree((Branch(4, ((0, Leaf("000")), (1, Leaf("111")))),))
    with pytest.raises(TreeFormatError):
        validate_recognition(tree, L3, 3, "det")


def test_contradictory_repeated_query_accepts_nothing():
    # a path querying position 1 twice with different bits accepts no word, so
    # its mislabeled leaf never fires; the two honest chains carry the slice
    L2 = bundled_language("L2")
    contradiction = Branch(1, ((0, Branch(1, ((1, Leaf("1")),))),))
    tree = DecisionTree(
        (
            contradiction,
            leaf_chain("0", (1,), "0"),
            leaf_chain("1", (1,), "1"),
        )
    )
    assert validate_recognition(tree, L2, 1, "nondet") is None


# -- membership validation ---------------------------------------------------------


def test_membership_full_read_tree():
    L1 = bundled_language("L1")

    def build(pos, prefix):
        if pos > 2:
            return Leaf("1" if L1.contains(prefix) else "0")
        return Branch(pos, tuple((b, build(pos + 1, prefix + "01"[b])) for b in (0, 1)))

    tree = DecisionTree((build(1, ""),))
    assert validate_membership(tree, L1, 2, "det") is None


def test_membership_constant_leaf():
    L2 = bundled_language("L2")
    assert validate_membership(DecisionTree((Leaf("1"),)), L2, 5, "det") is None
    L1 = bundled_language("L1")
    violation = validate_membership(DecisionTree((Leaf("1"),)), L1, 2, "det")
    assert violation is not None and violation.bullet == 3
    assert violation.witness == "11"


def test_membership_label_must_be_bit():
    L1 = bundled_language("L1")
    violation = validate_membership(DecisionTree((Leaf("yes"),)), L1, 2, "det")
    assert violation is not None and violation.bullet == 1


# -- strategies ----------------------------------------------------------------------


class FixedOrderStrategy(QueryStrategy):
    """Reads positions 1..n in order, then announces the word it saw."""

    def __init__(self, n):
        self.n = n

    def next_action(self, state):
        if len(state) == self.n:
            return Finish("".join("01"[b] for _, b in sorted(state)))
        return Ask(len(state) + 1)


def test_trace_strategy_replays_answers():
    s = FixedOrderStrategy(4)
    queried, label = trace_strategy(s, "0110")
    assert queried == [1, 2, 3, 4]
    assert label == "0110"


def test_trace_strategy_length_mismatch():
    with pytest.raises(StrategyError):
        trace_strategy(FixedOrderStrategy(8), "01010")


def test_trace_strategy_budget():
    with pytest.raises(StrategyError):
        trace_strategy(FixedOrderStrategy(4), "0110", budget=3)


def test_materialize_fixed_strategy():
    s = FixedOrderStrategy(2)
    tree = materialize_strategy(s)
    assert tree.depth() == 2
    L2 = bundled_language("L2")
    assert validate_recognition(tree, L2, 2, "det") is None


# -- serialization ----------------------------------------------------------------


def test_json_round_trip():
    L3 = bundled_language("L3")
    tree = optimal_recognition_tree(L3, 4)
    again = tree_from_json(tree_to_json(tree))
    assert again == tree


def test_json_format_shape():
    tree = DecisionTree((Branch(2, ((0, Leaf("00")), (1, Leaf("01")))),))
    doc = json.loads(tree_to_json(tree))
    assert doc == {
        "children": [
            {
                "query": 2,
                "edges": [
                    {"bit": 0, "child": {"leaf": "00"}},
                    {"bit": 1, "child": {"leaf": "01"}},
                ],
            }
        ]
    }


def reference_tree_json(tree):
    """The document through the standard library's indented encoder."""

    def encode(node):
        if isinstance(node, Leaf):
            return {"leaf": node.label}
        return {
            "query": node.position,
            "edges": [{"bit": bit, "child": encode(child)} for bit, child in node.edges],
        }

    return json.dumps({"children": [encode(c) for c in tree.root_children]}, indent=2)


def json_trees():
    L1, L3 = bundled_language("L1"), bundled_language("L3")
    return [
        DecisionTree(()),
        DecisionTree((Leaf("0110"),)),
        DecisionTree((Leaf('a"b\\c\n\u00e9\u2603'),)),  # needs escaping
        DecisionTree((Branch(1, ()), Leaf("1"))),
        tree_from_certificates(L3, 5, recognition_certificates(L3, 5)),
        optimal_recognition_tree(L3, 6),
        optimal_recognition_tree(bundled_language("L2"), 4),
        optimal_membership_tree(L1, 7),
    ]


@pytest.mark.parametrize("index", range(8))
def test_tree_to_json_matches_indented_json_dumps(index):
    tree = json_trees()[index]
    assert tree_to_json(tree) == reference_tree_json(tree)


def test_json_empty_tree():
    assert tree_from_json(tree_to_json(DecisionTree(()))) == DecisionTree(())


@pytest.mark.parametrize(
    "doc",
    [
        "{nonsense",
        '{"children": [{"query": "x", "edges": []}]}',
        '{"children": [{"query": 1, "edges": []}]}',
        '{"children": [{"query": 1, "edges": [{"bit": 2, "child": {"leaf": "0"}}]}]}',
        '{"children": [{"bogus": 1}]}',
        '{"leaf": "0"}',
        '{"children": [{"query": true, "edges": [{"bit": 0, "child": {"leaf": "0"}}]}]}',
        '{"children": [{"query": 1.0, "edges": [{"bit": 0, "child": {"leaf": "0"}}]}]}',
        '{"children": [{"query": 1, "edges": [{"bit": false, "child": {"leaf": "0"}}]}]}',
        '{"children": [{"query": 1, "edges": [{"bit": 1.0, "child": {"leaf": "0"}}]}]}',
    ],
)
def test_json_malformed_documents(doc):
    with pytest.raises(TreeFormatError):
        tree_from_json(doc)


def test_dot_output():
    tree = DecisionTree((Branch(1, ((0, Leaf("00")), (1, Leaf("11")))),))
    dot = tree_to_dot(tree)
    assert dot.startswith("digraph decision_tree {")
    assert 'label="x_1"' in dot
    assert "shape=box" in dot
    assert '[label="0"]' in dot and '[label="1"]' in dot
