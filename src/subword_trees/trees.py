"""Decision trees over length-n slices: model, solving-condition validators, serialization.

A tree has an unlabeled root with one or more children (exactly one in the
deterministic case).  Interior nodes query a 1-based letter position and carry
bit-labeled edges; terminal nodes carry either a word (recognition) or a bit
rendered as ``"0"``/``"1"`` (membership).  Depth counts query nodes on a
root-to-leaf path.  A complete path accepts exactly the words that agree with
every (position, bit) constraint along it; repeated contradictory queries on
one path simply accept nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Union

from .language import MAX_SLICE, Language, cube_splits, decode_document

DET = "det"
NONDET = "nondet"

BULLET_LEAF_LABELS = 1
BULLET_COVERAGE = 2
BULLET_CONSISTENCY = 3
BULLET_DETERMINISM = 0  # structural, outside the three solving bullets


class TreeFormatError(ValueError):
    """A tree document or tree structure is malformed for the requested use."""


class StrategyError(RuntimeError):
    """A query strategy was driven outside its contract."""


@dataclass(frozen=True)
class Leaf:
    label: str


@dataclass(frozen=True)
class Branch:
    position: int  # 1-based letter index
    edges: tuple[tuple[int, "Node"], ...]


Node = Union[Leaf, Branch]


@dataclass(frozen=True)
class DecisionTree:
    """Root children of the (unlabeled) root.  Empty tuple is the distinguished
    empty tree used when there is nothing to recognize."""

    root_children: tuple[Node, ...]

    def depth(self) -> int:
        best = 0
        stack: list[tuple[Node, int]] = [(c, 0) for c in self.root_children]
        while stack:
            node, d = stack.pop()
            if isinstance(node, Leaf):
                best = max(best, d)
            else:
                for _, child in node.edges:
                    stack.append((child, d + 1))
        return best

    def iter_nodes(self) -> Iterator[Node]:
        seen: set[int] = set()
        stack = list(self.root_children)
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            yield node
            if isinstance(node, Branch):
                stack.extend(child for _, child in node.edges)


@dataclass(frozen=True)
class Violation:
    """One failed solving condition, with the bullet it violates and a witness."""

    bullet: int
    message: str
    witness: str | None = None

    def __str__(self) -> str:
        where = "determinism" if self.bullet == BULLET_DETERMINISM else f"bullet {self.bullet}"
        tail = f" (witness: {self.witness!r})" if self.witness is not None else ""
        return f"{where}: {self.message}{tail}"


def chain(word: str, positions: tuple[int, ...], label: str) -> Node:
    """Single-path certificate chain: query each position, follow the word's bit."""
    node: Node = Leaf(label)
    for p in reversed(positions):
        node = Branch(p, ((int(word[p - 1]), node),))
    return node


def _validate(
    tree: DecisionTree,
    mode: str,
    size: int,
    splits: list[tuple[int, int]],
    rejects: Callable[[str], int | None],
    word_of: Callable[[int], tuple[str, str]],
) -> Violation | None:
    """Check the structure and the solving conditions over a universe of ``size`` words.

    A word set is an int whose bit i stands for the i-th universe word.
    ``splits[p - 1]`` holds the sets of words reading 0 and 1 at position p,
    for the word length n = ``len(splits)``;
    ``rejects`` maps an admissible label to the set of words that want another
    label (None for an inadmissible label); ``word_of(i)`` is the i-th word
    and the label it wants.

    The tree is walked once with a stack, each node carrying the words that
    satisfy its path.  Every node is visited, also when no word reaches it,
    so a malformed node raises ``TreeFormatError`` wherever it sits.  Children
    are pushed in edge order, so the walk restricted to the nodes one word
    reaches is that word's own depth-first replay: the first leaf the walk
    finds rejecting the least wrongly labelled word is the first one its
    replay would meet.  The result is what a word-by-word scan reports:
    determinism, then the empty tree, then an inadmissible label, then the
    least universe word that reaches a wrongly labelled leaf or no leaf.
    """
    if mode not in (DET, NONDET):
        raise ValueError(f"mode must be {DET!r} or {NONDET!r}, got {mode!r}")
    n = len(splits)
    everything = (1 << size) - 1
    covered = wrong = 0  # wrong: the lowest bit of the least wrongly labelled word
    repeated: Branch | None = None
    alien = wrong_label = None
    stack = [(child, everything) for child in tree.root_children]
    while stack:
        node, words = stack.pop()
        if isinstance(node, Leaf):
            covered |= words
            reject = rejects(node.label)
            if reject is None:
                if alien is None:
                    alien = node.label
            else:
                bad = words & reject
                bad &= -bad
                if bad and (not wrong or bad < wrong):
                    wrong, wrong_label = bad, node.label
            continue
        if not 1 <= node.position <= n:
            raise TreeFormatError(f"branch queries position {node.position}, outside 1..{n}")
        if not node.edges:
            raise TreeFormatError("branch with no outgoing edges")
        split = splits[node.position - 1]
        for bit, child in node.edges:
            if bit not in (0, 1):
                raise TreeFormatError(f"edge bit {bit!r} is not 0 or 1")
            stack.append((child, words & split[bit]))
        if repeated is None and len(node.edges) > len({bit for bit, _ in node.edges}):
            repeated = node
    if mode == DET and tree.root_children:
        if len(tree.root_children) != 1:
            return Violation(
                BULLET_DETERMINISM,
                f"deterministic tree needs exactly one root child, found {len(tree.root_children)}",
            )
        if repeated is not None:
            return Violation(
                BULLET_DETERMINISM, f"branch at position {repeated.position} repeats an edge bit"
            )
    if not tree.root_children:
        # distinguished empty tree: valid only when there is nothing to solve
        if size == 0:
            return None
        return Violation(BULLET_COVERAGE, "empty tree but the problem has words to solve")
    if alien is not None:
        return Violation(
            BULLET_LEAF_LABELS, f"terminal label {alien!r} is not admissible", witness=alien
        )
    missed = everything ^ covered
    missed &= -missed
    if wrong and (not missed or wrong < missed):
        w, want = word_of(wrong.bit_length() - 1)
        return Violation(
            BULLET_CONSISTENCY,
            f"a path accepting {w!r} ends with label {wrong_label!r}, expected {want!r}",
            witness=w,
        )
    if missed:
        w, _ = word_of(missed.bit_length() - 1)
        return Violation(BULLET_COVERAGE, f"no complete path accepts {w!r}", witness=w)
    return None


def validate_recognition(
    tree: DecisionTree, lang: Language, n: int, mode: str = DET
) -> Violation | None:
    """Check the recognition solving conditions for L(n) by exhaustive replay.

    Passes (returns None) iff every terminal label is a member of the slice,
    every slice word is accepted by some complete path, and every path
    accepting a slice word ends with exactly that word.  ``det`` mode adds the
    structural single-root-child and distinct-edge-bits requirements.  The
    universe is the slice in lexicographic order; a slice of more than
    ``MAX_SLICE`` words raises ``CapExceeded``.
    """
    words, splits = lang.slice_splits(n, MAX_SLICE)
    index = {w: i for i, w in enumerate(words)}
    everything = (1 << len(words)) - 1

    def rejects(label: str) -> int | None:
        i = index.get(label)
        return None if i is None else everything ^ (1 << i)

    return _validate(tree, mode, len(words), splits, rejects, lambda i: (words[i], words[i]))


def validate_membership(
    tree: DecisionTree, lang: Language, n: int, mode: str = DET
) -> Violation | None:
    """Check the membership solving conditions over all 2^n words of length n.

    Word x of the universe is ``format(x, f"0{n}b")``, so the word sets are
    read off the slice truth table and ``cube_splits(n)``.
    """
    table = lang.automaton().truth_table(n)
    rejects = {"0": table, "1": ((1 << (1 << n)) - 1) ^ table}

    def word_of(x: int) -> tuple[str, str]:
        word = format(x, f"0{n}b") if n else ""
        return word, "1" if table >> x & 1 else "0"

    return _validate(tree, mode, 1 << n, cube_splits(n), rejects.get, word_of)


# ---------------------------------------------------------------------------
# Interactive strategies: an implicit tree form for constructions whose
# explicit tree would be exponentially large in the depth.


@dataclass(frozen=True)
class Ask:
    position: int


@dataclass(frozen=True)
class Finish:
    label: str | None


class QueryStrategy:
    """Value-state recognizer protocol.

    Subclasses expose ``n`` and implement ``next_action(state)`` returning
    ``Ask`` or ``Finish``.  States are immutable values: ``advance(state,
    position, bit)`` returns the state after the asked ``position`` was
    answered with ``bit``, so one state can be advanced along both bits.  By
    default a state is the transcript of ``(position, bit)`` answers.
    """

    n: int

    def initial_state(self):
        return ()

    def next_action(self, state):  # pragma: no cover - interface
        raise NotImplementedError

    def advance(self, state, position: int, bit: int):
        return state + ((position, bit),)


def trace_strategy(
    strategy: QueryStrategy, w: str, budget: int | None = None
) -> tuple[list[int], str | None]:
    """Replay a strategy against a word, answering every query truthfully.

    Returns the queried positions in order and the final label.  Raises
    ``StrategyError`` when the word length does not match or the strategy
    exceeds the query budget (default: one query per letter), which would
    indicate a non-terminating strategy.
    """
    if len(w) != strategy.n:
        raise StrategyError(
            f"word length {len(w)} does not match strategy length {strategy.n}"
        )
    if budget is None:
        budget = strategy.n
    state = strategy.initial_state()
    queried: list[int] = []
    while True:
        act = strategy.next_action(state)
        if isinstance(act, Finish):
            return queried, act.label
        if len(queried) >= budget:
            raise StrategyError(f"query budget {budget} exceeded at position {act.position}")
        queried.append(act.position)
        state = strategy.advance(state, act.position, int(w[act.position - 1]))


def materialize_strategy(strategy: QueryStrategy) -> DecisionTree:
    """Exhaustively play out a strategy into an explicit deterministic tree.

    Exponential in the strategy depth; intended for small n only.
    """
    first = strategy.next_action(strategy.initial_state())
    if isinstance(first, Finish) and first.label is None:
        return DecisionTree(())

    def expand(state) -> Node:
        act = strategy.next_action(state)
        if isinstance(act, Finish):
            if act.label is None:
                raise StrategyError("strategy finished without a label")
            return Leaf(act.label)
        return Branch(
            act.position,
            tuple((bit, expand(strategy.advance(state, act.position, bit))) for bit in (0, 1)),
        )

    return DecisionTree((expand(strategy.initial_state()),))


# ---------------------------------------------------------------------------
# Serialization: JSON tree documents and DOT rendering.


#: parts joined into one piece for ``write``: deep chain parts carry long
#: indentation, so a piece stays small only if it holds few of them
_PIECE_PARTS = 256


def _json_frame(depth: int) -> tuple[str, ...]:
    """The text around the fields of a tree document node at ``depth`` (0 for a
    root child): leaf opening and closing, query opening, first edge opening,
    child key, edge separator, edge list closing, and empty edge list."""
    pad = "\n" + " " * (4 + 6 * depth)  # the line of the node's closing brace
    inner, edge_pad, edge_inner = pad + "  ", pad + "    ", pad + "      "
    open_edge = "{" + edge_inner + '"bit": '
    return (
        "{" + inner + '"leaf": ',
        pad + "}",
        "{" + inner + '"query": ',
        "," + inner + '"edges": [' + edge_pad + open_edge,
        "," + edge_inner + '"child": ',
        edge_pad + "}," + edge_pad + open_edge,
        edge_pad + "}" + inner + "]" + pad + "}",
        "," + inner + '"edges": []' + pad + "}",
    )


def write_tree_json(tree: DecisionTree, write: Callable[[str], object]) -> None:
    """Pass the tree document to ``write`` in pieces whose join is ``tree_to_json(tree)``.

    The bytes are those of ``json.dumps(doc, indent=2)``.  CPython's C
    encoder does not indent, so the layout is written here directly, one
    call per node, with the indentation of each depth built once; labels
    are escaped by the function ``json.dumps`` uses for a ``str``.  Only
    the tree and one piece of the document are held at a time.
    """
    parts: list[str] = []
    put = parts.append
    frames: list[tuple[str, ...]] = []  # _json_frame(depth) for each depth reached

    def node(nd: Node, depth: int) -> None:
        if len(parts) >= _PIECE_PARTS:
            write("".join(parts))
            parts.clear()
        if depth == len(frames):  # a child is one deeper than its parent
            frames.append(_json_frame(depth))
        leaf, close, query, first_edge, child, next_edge, end, no_edges = frames[depth]
        if isinstance(nd, Leaf):
            put(leaf)
            put(encode_basestring_ascii(nd.label))
            put(close)
            return
        put(query)
        put(str(nd.position))
        if not nd.edges:
            put(no_edges)
            return
        between = first_edge
        for bit, sub in nd.edges:
            put(between)
            put(str(bit))
            put(child)
            node(sub, depth + 1)
            between = next_edge
        put(end)

    if tree.root_children:
        between = '{\n  "children": [\n    '
        for nd in tree.root_children:
            put(between)
            node(nd, 0)
            between = ",\n    "
        put("\n  ]\n}")
    else:
        put('{\n  "children": []\n}')
    write("".join(parts))


def tree_to_json(tree: DecisionTree) -> str:
    """The tree document, byte for byte as ``json.dumps(doc, indent=2)`` writes it."""
    pieces: list[str] = []
    write_tree_json(tree, pieces.append)
    return "".join(pieces)


def tree_from_json(text: str) -> DecisionTree:
    """The tree of a tree document; raises ``TreeFormatError`` where it is malformed."""
    def decode(obj) -> Node:
        if not isinstance(obj, dict):
            raise TreeFormatError("tree node must be an object")
        if "leaf" in obj:
            label = obj["leaf"]
            if not isinstance(label, str):
                raise TreeFormatError("leaf label must be a string")
            return Leaf(label)
        if "query" in obj:
            pos = obj["query"]
            edges = obj.get("edges")
            if type(pos) is not int:  # bool is an int subclass; floats compare equal
                raise TreeFormatError("'query' must be an integer position")
            if not isinstance(edges, list) or not edges:
                raise TreeFormatError("'edges' must be a non-empty list")
            decoded = []
            for e in edges:
                if not isinstance(e, dict) or "bit" not in e or "child" not in e:
                    raise TreeFormatError("edge needs 'bit' and 'child'")
                if type(e["bit"]) is not int or e["bit"] not in (0, 1):
                    raise TreeFormatError("edge 'bit' must be 0 or 1")
                decoded.append((e["bit"], decode(e["child"])))
            return Branch(pos, tuple(decoded))
        raise TreeFormatError("tree node needs 'leaf' or 'query'")

    doc = decode_document(text, "tree", TreeFormatError)
    if not isinstance(doc, dict) or "children" not in doc or not isinstance(doc["children"], list):
        raise TreeFormatError("tree document must be an object with a 'children' list")
    try:
        return DecisionTree(tuple(decode(c) for c in doc["children"]))
    except RecursionError as exc:  # decode recurses once per node
        raise TreeFormatError("tree document is nested too deeply") from exc


def write_tree_dot(tree: DecisionTree, write: Callable[[str], object]) -> None:
    """Pass the GraphViz rendering to ``write`` in pieces whose join is ``tree_to_dot(tree)``.

    Query nodes are circles labeled x_i; leaves are boxed, with their labels
    escaped for a quoted DOT string.
    """
    parts = ['digraph decision_tree {\n  root [shape=point, label=""];\n']
    put = parts.append
    counter = 0

    def emit(node: Node, parent: str, edge: str) -> None:
        nonlocal counter
        if len(parts) >= _PIECE_PARTS:
            write("".join(parts))
            parts.clear()
        name = f"n{counter}"
        counter += 1
        if isinstance(node, Leaf):
            label = node.label.replace("\\", "\\\\").replace('"', '\\"')
            put(f'  {name} [shape=box, label="{label}"];\n  {parent} -> {name}{edge};\n')
            return
        put(f'  {name} [shape=circle, label="x_{node.position}"];\n  {parent} -> {name}{edge};\n')
        for bit, child in node.edges:
            emit(child, name, f' [label="{bit}"]')

    for child in tree.root_children:
        emit(child, "root", "")
    put("}\n")
    write("".join(parts))


def tree_to_dot(tree: DecisionTree) -> str:
    """The GraphViz rendering of the tree (see ``write_tree_dot``)."""
    pieces: list[str] = []
    write_tree_dot(tree, pieces.append)
    return "".join(pieces)
