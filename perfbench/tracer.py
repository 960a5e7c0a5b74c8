"""Wrap the package's public functions from outside and aggregate per-layer metrics.

Every wrapped call pushes a frame, so a function's self time is its duration
minus the time of the wrapped calls below it.  Op and oracle/builder entry
points also record parent-linked spans (kept in memory, written once per
pass); hot functions such as ``exists_consistent`` only aggregate a count and
a total time.  A wrapper replaces the function in every package namespace
that holds it (``dimensions.homogeneity_dimension`` is also
``builders.homogeneity_dimension``), and methods are replaced on their class.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute path, records a span)
TARGETS = [
    ("cli", "main", True),
    ("language", "parse_language_spec", False),
    ("language", "Language.contains", False),
    ("language", "SliceAutomaton.__init__", False),
    ("language", "SliceAutomaton.count_words", False),
    ("language", "SliceAutomaton.count_consistent", False),
    ("language", "SliceAutomaton.exists_consistent", False),
    ("language", "SliceAutomaton.find_consistent", False),
    ("dimensions", "classify", True),
    ("dimensions", "homogeneity_dimension", False),
    ("dimensions", "heterogeneity_dimension", False),
    ("oracle", "depth_profile", True),
    ("oracle", "recognition_depth_det", True),
    ("oracle", "recognition_depth_nondet", True),
    ("oracle", "membership_depth_det", True),
    ("oracle", "membership_depth_nondet", True),
    ("oracle", "optimal_recognition_tree", True),
    ("oracle", "optimal_membership_tree", True),
    ("oracle", "recognition_certificates", True),
    ("oracle", "membership_certificate", True),
    ("oracle", "min_hitting_set", False),
    ("oracle", "greedy_hitting_set", False),
    ("builders", "block_recognition_strategy", True),
    ("builders", "BlockRecognitionStrategy.next_action", False),
    ("builders", "block_certificate", True),
    ("builders", "tree_from_certificates", True),
    ("trees", "trace_strategy", False),
    ("trees", "materialize_strategy", True),
    ("trees", "validate_recognition", True),
    ("trees", "validate_membership", True),
    ("trees", "tree_to_json", True),
    ("trees", "tree_from_json", True),
]

GENERATORS = [("language", "SliceAutomaton.iter_words")]


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.active: Counter = Counter()
        self.extra: Counter = Counter()
        self.frames: list[list[float]] = [[0.0]]  # child time of each open call
        self.span_stack: list[int] = []
        self.spans: list[tuple] = []  # (id, parent id, name, op index, start, end)
        self.span_ids = 0
        self.op_index = -1
        self.languages: set[tuple[str, ...]] = set()
        self.queries: list[int] = []
        self.pending_masks = None
        self._cap_exceeded = RuntimeError

    # -- installation ---------------------------------------------------------

    def install(self, package) -> None:
        """Replace every target in the package's modules.  Nothing is restored:
        each pass runs in its own interpreter."""
        modules = {name: getattr(package, name)
                   for name in ("cli", "language", "dimensions", "oracle", "builders", "trees")}
        self._cap_exceeded = modules["oracle"].CapExceeded
        namespaces = [vars(package)] + [vars(m) for m in modules.values()]
        for mod, path, span in TARGETS + [(m, p, None) for m, p in GENERATORS]:
            owner, attr = modules[mod], path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            name = f"{mod}.{path}"
            if span is None:
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original, span)
            setattr(owner, attr, wrapper)
            if owner is modules[mod]:  # a function: also rebind every import of it
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            ns[key] = wrapper

    def _wrap(self, name: str, fn, span: bool):
        tracer = self
        before = getattr(self, "_before_" + name.split(".")[-1], None)
        after = getattr(self, "_after_" + name.split(".")[-1], None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0]
            tracer.frames.append(frame)
            tracer.active[name] += 1
            if span:
                sid = tracer.span_ids
                tracer.span_ids += 1
                parent = tracer.span_stack[-1] if tracer.span_stack else None
                tracer.span_stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except tracer._cap_exceeded as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    tracer.extra["cap_exceeded"] += 1
                raise
            finally:
                end = perf_counter()
                dt = end - start
                tracer.frames.pop()
                tracer.frames[-1][0] += dt
                tracer.active[name] -= 1
                tracer.calls[name] += 1
                tracer.total_s[name] += dt
                tracer.self_s[name] += dt - frame[0]
                if span:
                    tracer.span_stack.pop()
                    tracer.spans.append((sid, parent, name, tracer.op_index, start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        """Time only the generator's own resumptions; the consumer keeps the rest."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                start = perf_counter()
                try:
                    word = next(it)
                except StopIteration:
                    tracer._charge(name, perf_counter() - start)
                    return
                tracer._charge(name, perf_counter() - start)
                tracer.extra["iter_words"] += 1
                yield word

        return wrapper

    def _charge(self, name: str, dt: float) -> None:
        self.total_s[name] += dt
        self.self_s[name] += dt
        self.frames[-1][0] += dt

    # -- hooks for the ratio metrics -------------------------------------------

    def _before_contains(self, args) -> None:
        if self.active["dimensions.classify"]:
            self.extra["contains_in_classify"] += 1

    def _before_greedy_hitting_set(self, args) -> None:
        if not self.active["oracle.min_hitting_set"]:
            # a pre-check: it avoided the exact search unless min_hitting_set
            # is called next on the same mask list
            self.extra["greedy_prechecks"] += 1
            self.pending_masks = args[0]

    def _before_min_hitting_set(self, args) -> None:
        if self.pending_masks is not None and args[0] is self.pending_masks:
            self.extra["greedy_followed"] += 1
        self.pending_masks = None

    def _after_parse_language_spec(self, args, lang) -> None:
        self.languages.add(lang.obstructions)

    def _after_trace_strategy(self, args, result) -> None:
        self.queries.append(len(result[0]))

    def _after_tree_to_json(self, args, text) -> None:
        self.extra["serialize_bytes"] += len(text.encode("utf-8"))

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, s = self.calls, self.total_s

        def both(metric: str, *names: str) -> dict[str, float]:
            return {f"{metric}.calls": sum(c[n] for n in names),
                    f"{metric}.s": sum(s[n] for n in names)}

        dim_calls = c["dimensions.homogeneity_dimension"] + c["dimensions.heterogeneity_dimension"]
        prechecks = self.extra["greedy_prechecks"]
        return {
            "cli.self_s": self.self_s["cli.main"],
            **both("language.parse_language_spec", "language.parse_language_spec"),
            **both("language.automaton_init", "language.SliceAutomaton.__init__"),
            **both("language.contains", "language.Language.contains"),
            "language.iter_slice.words": self.extra["iter_words"],
            "language.iter_slice.s": s["language.SliceAutomaton.iter_words"],
            **both("language.count", "language.SliceAutomaton.count_words",
                   "language.SliceAutomaton.count_consistent"),
            **both("language.exists_consistent", "language.SliceAutomaton.exists_consistent"),
            **both("language.find_consistent", "language.SliceAutomaton.find_consistent"),
            **both("dimensions.classify", "dimensions.classify"),
            "dimensions.dimension.calls": dim_calls,
            "dimensions.dimension_per_language": dim_calls / max(len(self.languages), 1),
            "dimensions.contains_per_classify":
                self.extra["contains_in_classify"] / max(c["dimensions.classify"], 1),
            "oracle.rd.self_s": self.self_s["oracle.recognition_depth_det"],
            "oracle.ra.self_s": self.self_s["oracle.recognition_depth_nondet"],
            "oracle.md.self_s": self.self_s["oracle.membership_depth_det"],
            "oracle.ma.self_s": self.self_s["oracle.membership_depth_nondet"],
            "oracle.optimal_tree.s":
                s["oracle.optimal_recognition_tree"] + s["oracle.optimal_membership_tree"],
            **both("oracle.membership_certificate", "oracle.membership_certificate"),
            **both("oracle.min_hitting_set", "oracle.min_hitting_set"),
            **both("oracle.greedy_hitting_set", "oracle.greedy_hitting_set"),
            "oracle.greedy_skip_ratio":
                (prechecks - self.extra["greedy_followed"]) / max(prechecks, 1),
            "oracle.cap_exceeded.count": self.extra["cap_exceeded"],
            **both("builders.next_action", "builders.BlockRecognitionStrategy.next_action"),
            **both("builders.block_certificate", "builders.block_certificate"),
            "builders.tree_from_certificates.s": s["builders.tree_from_certificates"],
            **both("trees.trace_strategy", "trees.trace_strategy"),
            "trees.queries_per_word.max": max(self.queries, default=0),
            "trees.queries_per_word.mean": sum(self.queries) / max(len(self.queries), 1),
            "trees.materialize.s": s["trees.materialize_strategy"],
            "trees.validate.s": s["trees.validate_recognition"] + s["trees.validate_membership"],
            "trees.serialize.s": s["trees.tree_to_json"],
            "trees.serialize.bytes": self.extra["serialize_bytes"],
        }

    def write_spans(self, path: str) -> None:
        keys = ("id", "parent", "name", "op", "start", "end")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)
