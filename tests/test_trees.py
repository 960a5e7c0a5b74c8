import argparse
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

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
    block_certificate,
    block_length,
    block_recognition_strategy,
    bundled_language,
    cli,
    distinguishing_set_tree,
    homogeneity_dimension,
    materialize_strategy,
    membership_tree,
    trace_strategy,
    tree_from_certificates,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    validate_membership,
    validate_recognition,
    write_tree_dot,
    write_tree_json,
)
from subword_trees.dimensions import INFINITY
from subword_trees.language import MAX_SLICE, CapExceeded
from subword_trees.oracle import (
    membership_certificates,
    optimal_membership_tree,
    optimal_recognition_tree,
    recognition_certificates,
    recognition_depth_det,
)

from conftest import small_languages
from reference_trees import reference_validate_membership, reference_validate_recognition


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


def test_recognition_validation_is_capped_at_max_slice(capsys):
    # L2 is every word: |L2(12)| = 4096 is still walked, |L2(13)| is not
    L2 = bundled_language("L2")
    assert L2.count_slice(12) == MAX_SLICE

    def read(prefix):
        if len(prefix) == 12:
            return Leaf(prefix)
        return Branch(len(prefix) + 1, ((0, read(prefix + "0")), (1, read(prefix + "1"))))

    assert validate_recognition(DecisionTree((read(""),)), L2, 12) is None
    leaf = DecisionTree((Leaf("1"),))
    assert validate_recognition(leaf, L2, 12).bullet == 1
    # the validator, the exact oracles and the CLI all stop with one message
    cap_message = "slices of <= 4096 words, got L2[(]13[)]"
    with pytest.raises(CapExceeded, match=cap_message):
        validate_recognition(leaf, L2, 13)
    with pytest.raises(CapExceeded, match=cap_message):
        recognition_depth_det(L2, 13, max_n=13)
    with pytest.raises(CapExceeded, match=cap_message):
        recognition_certificates(L2, 13, max_n=13)
    args = ["build-tree", "L2", "-n", "13", "--algorithm", "exact", "--max-n", "13"]
    assert cli.main(args) == 3
    assert re.search(cap_message, capsys.readouterr().err)


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


# -- set replay against the per-word reference validators ------------------------------


def rebuild(tree, replace):
    """The tree with every node whose id is a key of ``replace`` swapped for its
    value; the replacement's children are rebuilt in turn."""

    def walk(node):
        node = replace.get(id(node), node)
        if isinstance(node, Leaf):
            return node
        return Branch(node.position, tuple((bit, walk(child)) for bit, child in node.edges))

    return DecisionTree(tuple(walk(child) for child in tree.root_children))


def flaws(tree, n, alien):
    """Replacement maps for ``rebuild``, each breaking a non-empty tree in one
    place (or harmlessly); ``alien`` is an inadmissible leaf label."""
    nodes = list(tree.iter_nodes())
    leaves = [node for node in nodes if isinstance(node, Leaf)]
    branches = [node for node in nodes if isinstance(node, Branch)]
    # inadmissible labels at two leaves, so a pair shows which one is reported
    out = [{id(leaves[0]): Leaf(alien)}, {id(leaves[-1]): Leaf(alien * 2)}]
    other = next((leaf for leaf in leaves if leaf.label != leaves[0].label), None)
    if other is not None:  # swapped leaves
        out.append({id(leaves[0]): Leaf(other.label), id(other): leaves[0]})
    wide = next((b for b in branches if len(b.edges) > 1), None)
    if wide is not None:  # a dropped edge
        out.append({id(wide): Branch(wide.position, wide.edges[:1])})
    if branches:
        first, last = branches[0], branches[-1]
        # duplicate edge bits: the first edge's bit on every edge, or the first edge twice
        for b in (first,) if first is last else (first, last):
            bit = b.edges[0][0]
            out.append({id(b): Branch(b.position, ((bit, b.edges[0][1]), (bit, b.edges[-1][1])))})
        if other is not None:
            # two more edges on the first edge's bit, to leaves with different
            # labels: a word reading that bit may be wrong at both, and the
            # first one its replay meets names the label
            bit = first.edges[0][0]
            extra = ((bit, Leaf(leaves[0].label)), (bit, Leaf(other.label)))
            out.append({id(first): Branch(first.position, first.edges + extra)})
        # a repeated query whose contradictory edge ends in a wrong label no word reaches
        repeated = tuple(
            (bit, Branch(first.position, ((bit, child), (1 - bit, Leaf(leaves[0].label)))))
            for bit, child in first.edges
        )
        out.append({id(first): Branch(first.position, repeated)})
        # malformed: a position past n, no edges, an edge bit that is not 0 or 1
        out.append({id(first): Branch(n + 1, first.edges)})
        out.append({id(last): Branch(last.position, ())})
        out.append({id(last): Branch(last.position, ((2, last.edges[0][1]),) + last.edges[1:])})
    return out


def mutants(tree, n, alien):
    """Broken and harmless variants of a non-empty tree: the empty tree, one
    flaw, and every pair of flaws that touch different nodes."""
    maps = flaws(tree, n, alien)
    out = [DecisionTree(())]
    if len(tree.root_children) > 1:
        out.append(DecisionTree(tree.root_children[1:]))
    out.extend(rebuild(tree, m) for m in maps)
    for i, a in enumerate(maps):
        for b in maps[i + 1 :]:
            if not a.keys() & b.keys():
                out.append(rebuild(tree, {**a, **b}))
    return out


def outcome(validate, tree, lang, n, mode):
    """The violation (or None), or the message of the ``TreeFormatError`` raised."""
    try:
        return validate(tree, lang, n, mode)
    except TreeFormatError as exc:
        return f"TreeFormatError: {exc}"


def assert_validators_match_reference(lang, n):
    """Equal violations (or None, or format errors) from the one-walk
    validators and the per-word reference, for optimal and certificate trees
    of both problems and their mutants, in both modes."""
    recognition = [optimal_recognition_tree(lang, n)]
    recognition.append(tree_from_certificates(lang, n, recognition_certificates(lang, n)))
    membership = [optimal_membership_tree(lang, n)]
    membership.append(
        DecisionTree(
            tuple(
                leaf_chain(w, cert, "1" if lang.contains(w) else "0")
                for w, cert in membership_certificates(lang, n).items()
            )
        )
    )
    checks = [
        (validate_recognition, reference_validate_recognition, recognition, "2" * n),
        (validate_membership, reference_validate_membership, membership, "2"),
    ]
    for validate, reference, trees, alien in checks:
        for tree in trees:
            variants = [tree] + (mutants(tree, n, alien) if tree.root_children else [])
            for variant in variants:
                for mode in ("det", "nondet"):
                    got = outcome(validate, variant, lang, n, mode)
                    want = outcome(reference, variant, lang, n, mode)
                    assert got == want, (lang.name, n, mode, variant)


def test_validators_match_reference():
    for lang in small_languages():
        for n in range(1, 9):
            assert_validators_match_reference(lang, n)


@given(
    words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=4), max_size=4),
    n=hs.integers(1, 8),
)
@settings(max_examples=25, deadline=None)
def test_validators_match_reference_on_drawn_antichains(words, n):
    assert_validators_match_reference(Language.from_forbidden("drawn", words), n)


@given(
    words=hs.lists(hs.text(alphabet="01", min_size=1, max_size=4), max_size=4),
    n=hs.integers(1, 7),
    m=hs.integers(10, cli.MATERIALIZE_LIMIT),
)
@settings(max_examples=30, deadline=None)
# few drawn languages have block length 1 and more than one word per slice
@example(words=["10"], n=7, m=10)
@example(words=["010", "101"], n=6, m=12)
def test_validators_accept_every_built_tree(words, n, m):
    """Every tree the package builds passes its validator: the exact and the
    constructive trees of both problems at length n, and, where the block
    strategy applies (m >= 10t), its materialized tree and certificate union."""
    lang = Language.from_forbidden("drawn", words)
    exact_chains = argparse.Namespace(
        problem="membership", mode="nondet", algorithm="exact", max_n=None, max_slice=MAX_SLICE
    )
    built = [
        (validate_recognition, n, "det", optimal_recognition_tree(lang, n)),
        (validate_recognition, n, "nondet",
         tree_from_certificates(lang, n, recognition_certificates(lang, n))),
        (validate_recognition, n, "det", distinguishing_set_tree(lang, n)),
        (validate_membership, n, "det", optimal_membership_tree(lang, n)),
        (validate_membership, n, "det", membership_tree(lang, n)),
        (validate_membership, n, "nondet", cli._build_tree(exact_chains, lang, n)),
    ]
    if homogeneity_dimension(lang) != INFINITY and m >= 10 * block_length(lang):
        certs = {w: block_certificate(lang, m, w) for w in lang.iter_slice(m)}
        built += [
            (validate_recognition, m, "det",
             materialize_strategy(block_recognition_strategy(lang, m))),
            (validate_recognition, m, "nondet", tree_from_certificates(lang, m, certs)),
        ]
    for validate, length, mode, tree in built:
        assert validate(tree, lang, length, mode) is None, (lang.name, length, mode)


def test_validators_reject_what_the_reference_rejects():
    # the mutants are not all harmless: each validator and problem sees failures
    # of every solving bullet, and format errors, across the small languages
    def kind(v):
        return "format" if isinstance(v, str) else v and v.bullet

    seen = set()
    for lang in small_languages()[:8]:
        for n in (3, 5):
            tree = optimal_recognition_tree(lang, n)
            if tree.root_children:
                for variant in mutants(tree, n, "2" * n):
                    for mode in ("det", "nondet"):
                        v = outcome(validate_recognition, variant, lang, n, mode)
                        seen.add(("rec", kind(v)))
            for variant in mutants(optimal_membership_tree(lang, n), n, "2"):
                for mode in ("det", "nondet"):
                    v = outcome(validate_membership, variant, lang, n, mode)
                    seen.add(("mem", kind(v)))
    for problem in ("rec", "mem"):
        for bullet in (None, 0, 1, 2, 3, "format"):
            assert (problem, bullet) in seen, (problem, bullet)


def test_malformed_node_that_no_word_reaches_raises():
    # the contradictory edge of a repeated query carries no word, yet its
    # malformed branch is still checked
    L2 = bundled_language("L2")
    hidden = Branch(1, ((0, Branch(1, ((1, Branch(3, ((0, Leaf("1")),))),))),))
    tree = DecisionTree((hidden, leaf_chain("0", (1,), "1"), leaf_chain("1", (1,), "1")))
    for validate in (validate_recognition, validate_membership):
        with pytest.raises(TreeFormatError, match="position 3, outside 1..1"):
            validate(tree, L2, 1, "nondet")


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


def reference_tree_dot(tree):
    """The DOT rendering as one list of lines, numbered in preorder."""
    lines = ["digraph decision_tree {", '  root [shape=point, label=""];']

    def emit(node, parent, edge):
        name = f"n{len(lines) // 2 - 1}"
        if isinstance(node, Leaf):
            label = node.label.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {name} [shape=box, label="{label}"];')
        else:
            lines.append(f'  {name} [shape=circle, label="x_{node.position}"];')
        lines.append(f"  {parent} -> {name}{edge};")
        if isinstance(node, Branch):
            for bit, child in node.edges:
                emit(child, name, f' [label="{bit}"]')

    for child in tree.root_children:
        emit(child, "root", "")
    return "\n".join(lines + ["}"]) + "\n"


def deep_chain(args):
    node, path = args
    for position, bit in path:
        node = Branch(position, ((bit, node),))
    return node


# any label, branches with no edges or repeated edge bits, and chains deep
# enough that one document spans many pieces
drawn_nodes = hs.recursive(
    hs.builds(Leaf, hs.text()),
    lambda kids: hs.builds(
        Branch,
        hs.integers(1, 99),
        hs.lists(hs.tuples(hs.sampled_from((0, 1)), kids), max_size=3).map(tuple),
    ),
    max_leaves=8,
)
drawn_trees = hs.lists(
    hs.one_of(
        drawn_nodes,
        hs.tuples(
            drawn_nodes,
            hs.lists(hs.tuples(hs.integers(1, 99), hs.sampled_from((0, 1))), min_size=30, max_size=80),
        ).map(deep_chain),
    ),
    max_size=4,
).map(lambda children: DecisionTree(tuple(children)))


@given(drawn_trees)
@settings(max_examples=60, deadline=None)
@example(DecisionTree(()))
@example(DecisionTree((Branch(3, ()),)))
@example(DecisionTree(tuple(deep_chain((Leaf('"\\\x00\u00e9'), [(i, i % 2)] * 100)) for i in (1, 2, 3))))
def test_streamed_documents_match_the_reference(tree):
    want = reference_tree_json(tree)
    assert tree_to_json(tree) == want
    pieces, dot = [], []
    write_tree_json(tree, pieces.append)
    assert all(pieces) and "".join(pieces) == want
    write_tree_dot(tree, dot.append)
    assert all(dot) and "".join(dot) == tree_to_dot(tree) == reference_tree_dot(tree)
    if sum(1 for _ in tree.iter_nodes()) > 256:  # past one piece of either writer
        assert len(pieces) > 1 and len(dot) > 1


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
    # leaf labels are escaped inside the quoted DOT string
    tree = DecisionTree((Branch(1, ((0, Leaf('a"b')), (1, Leaf("c\\d")))),))
    dot = tree_to_dot(tree)
    assert r'[shape=box, label="a\"b"];' in dot
    assert r'[shape=box, label="c\\d"];' in dot
