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

import json
from dataclasses import dataclass
from typing import Callable, Iterator, Union

from .language import MAX_SLICE, Language, cube_splits

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


def tree_to_json(tree: DecisionTree) -> str:
    """The tree document, byte for byte as ``json.dumps(doc, indent=2)`` writes it.

    CPython's C encoder does not indent, so the layout is written here
    directly; labels are escaped by ``json.dumps``.
    """
    parts: list[str] = []
    put = parts.append

    def items(nodes, pad: str, write) -> None:
        """A JSON list whose items open at ``pad`` (a newline plus indentation)."""
        if not nodes:
            put("[]")
            return
        put("[")
        for i, node in enumerate(nodes):
            put(pad if i == 0 else "," + pad)
            write(node, pad)
        put(pad[:-2] + "]")

    def node(nd: Node, pad: str) -> None:
        inner = pad + "  "
        if isinstance(nd, Leaf):
            put(f'{{{inner}"leaf": {json.dumps(nd.label)}{pad}}}')
            return
        put(f'{{{inner}"query": {nd.position},{inner}"edges": ')
        items(nd.edges, inner + "  ", edge)
        put(pad + "}")

    def edge(e: tuple[int, Node], pad: str) -> None:
        inner = pad + "  "
        put(f'{{{inner}"bit": {e[0]},{inner}"child": ')
        node(e[1], inner)
        put(pad + "}")

    put('{\n  "children": ')
    items(tree.root_children, "\n    ", node)
    put("\n}")
    return "".join(parts)


def tree_from_json(text: str) -> DecisionTree:
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

    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or "children" not in doc or not isinstance(doc["children"], list):
            raise TreeFormatError("tree document must be an object with a 'children' list")
        return DecisionTree(tuple(decode(c) for c in doc["children"]))
    except json.JSONDecodeError as exc:
        raise TreeFormatError(f"malformed tree document: {exc}") from exc
    except RecursionError as exc:  # json.loads and decode both recurse per level
        raise TreeFormatError("tree document is nested too deeply") from exc


def tree_to_dot(tree: DecisionTree) -> str:
    """GraphViz rendering: query nodes as circles labeled x_i, leaves boxed."""
    lines = ["digraph decision_tree {", '  root [shape=point, label=""];']
    counter = 0

    def emit(node: Node, parent: str, edge_label: str | None) -> None:
        nonlocal counter
        name = f"n{counter}"
        counter += 1
        if isinstance(node, Leaf):
            lines.append(f'  {name} [shape=box, label="{node.label}"];')
        else:
            lines.append(f'  {name} [shape=circle, label="x_{node.position}"];')
        if edge_label is None:
            lines.append(f"  {parent} -> {name};")
        else:
            lines.append(f'  {parent} -> {name} [label="{edge_label}"];')
        if isinstance(node, Branch):
            for bit, child in node.edges:
                emit(child, name, str(bit))

    for child in tree.root_children:
        emit(child, "root", None)
    lines.append("}")
    return "\n".join(lines) + "\n"
