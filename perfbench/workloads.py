"""Seeded op lists for the two benchmark workloads.

One op is one ``subword_trees.cli.main(argv)`` call.  Ops that must run in
order (a ``build-tree --out`` and the ``validate`` that reads its file) form a
group; the seed shuffles the groups, never the ops inside one.  The seed also
draws the random antichains of the classify family.  Everything here is
plain data: the package under test only ever sees the language documents
written from ``Plan.docs`` and the argv lists.

Each workload joins two op families:

* ``exact``: the membership family (``md``/``ma`` cells, exact membership
  trees) and the recognition family (``rd``/``ra`` cells, exact recognition
  trees).  The oracle does the work; ``dimensions`` and ``builders`` idle.
* ``constructive``: the paper family (block strategy, certificate trees,
  materialize) and the classify family (random antichains through
  ``classify`` and ``enumerate --count-only``).  The oracle idles.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("exact", "constructive")

# name -> forbidden subsequences
LANGUAGES: dict[str, list[str]] = {
    "L1": ["11"],
    "L2": [],
    "L3": ["10"],
    "L4": ["1"],
    "avoid-010-101": ["010", "101"],
    "avoid-001-010-0111": ["001", "010", "0111"],  # class 3, block length t = 4
    "avoid-001-0000-0111": ["001", "0000", "0111"],  # class 4, t = 4
    "avoid-1111": ["1111"],
    "avoid-0101": ["0101"],
    "avoid-1001": ["1001"],
    "avoid-0101-1010": ["0101", "1010"],
}

CLASSIFY_LANGUAGES = 300
CLASSIFY_BATCH = 100
TINY_CLASSIFY_LANGUAGES = 100


@dataclass
class Op:
    argv: list[str]
    check: dict  # what checks.check_op verifies beyond the exit code and digest
    out: str | None = None  # file the op writes with --out, folded into its digest
    seeded: bool = False  # reads seed-drawn documents, so its output depends on the seed

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass
class Plan:
    workload: str
    seed: int
    docs: dict[str, list[str]]  # document name (without .json) -> forbidden words
    ops: list[Op]


#: (kept in the tiny plan, ops that must run in this order)
Groups = list[tuple[bool, list[Op]]]


def _doc(name: str) -> str:
    return f"{name}.json"


def _depths(lang: str, n: int, measures: str, source: str = "EXACT", paper: bool = False) -> Op:
    argv = ["depths", _doc(lang), "-n", str(n), "--measures", measures]
    if paper:
        argv += ["--algorithm", "paper"]
    return Op(argv, {"kind": "depths", "lang": lang, "measures": measures.split(","), "source": source})


def _build_and_validate(lang: str, n: int, problem: str, mode: str, algorithm: str) -> list[Op]:
    """A tree written to a file, then validated: the group every built tree goes through."""
    out = f"tree-{algorithm}-{problem}-{mode}-{lang}-{n}.json"
    build = Op(
        ["build-tree", _doc(lang), "-n", str(n), "--problem", problem, "--mode", mode,
         "--algorithm", algorithm, "--out", out],
        {"kind": "build", "lang": lang},
        out=out,
    )
    validate = Op(
        ["validate", out, _doc(lang), "-n", str(n), "--problem", problem, "--mode", mode],
        {"kind": "validate", "lang": lang},
    )
    return [build, validate]


def _paper_report(lang: str, n: int) -> Op:
    """Deterministic block strategy past the materialize limit: a JSON query report."""
    return Op(
        ["build-tree", _doc(lang), "-n", str(n), "--algorithm", "paper"],
        {"kind": "paper-report", "lang": lang, "n": n},
    )


def _exact_membership() -> tuple[list[str], Groups]:
    langs = ["L1", "L3", "L4", "avoid-010-101", "avoid-001-010-0111", "avoid-001-0000-0111"]
    groups: Groups = []
    for lang in langs:
        for n in range(1, 10):
            groups.append((n <= 4 and lang in ("L1", "L3"), [_depths(lang, n, "md,ma")]))
    for lang, n in [("L1", 11), ("L3", 10), ("L4", 12), ("L4", 13), ("avoid-010-101", 10)]:
        groups.append((False, [_depths(lang, n, "md,ma")]))
    for lang in langs:
        for n in (5, 7, 9):
            groups.append((n == 5 and lang == "L3",
                           _build_and_validate(lang, n, "membership", "det", "exact")))
        for n in (4, 6):
            groups.append((n == 4 and lang == "L1",
                           _build_and_validate(lang, n, "membership", "nondet", "exact")))
    return langs, groups


def _exact_recognition() -> tuple[list[str], Groups]:
    class1 = ["L1", "avoid-1111", "avoid-0101", "avoid-1001", "avoid-0101-1010"]
    blocky = ["avoid-001-010-0111", "avoid-001-0000-0111"]  # class 3 and 4, t = 4
    groups: Groups = []
    for lang in class1:
        for n in (12, 13):
            groups.append((n == 12 and lang == "L1", [_depths(lang, n, "rd,ra")]))
    for lang, n in [("L1", 14), ("L1", 15), ("L1", 16)]:
        groups.append((False, [_depths(lang, n, "rd,ra")]))
    for lang in blocky:
        for n in range(12, 17):
            groups.append((False, [_depths(lang, n, "rd,ra")]))
    for n in range(9, 13):  # L2 up to the 4096-word slice cap
        groups.append((False, [_depths("L2", n, "rd,ra")]))
    for lang in class1 + blocky:
        for n, mode in [(8, "det"), (8, "nondet"), (10, "det"), (10, "nondet"), (12, "det")]:
            groups.append((n == 8 and lang == "avoid-1111",
                           _build_and_validate(lang, n, "recognition", mode, "exact")))
    for n, mode in [(6, "det"), (6, "nondet"), (8, "det")]:
        groups.append((False, _build_and_validate("L2", n, "recognition", mode, "exact")))
    return class1 + blocky + ["L2"], groups


def _paper_strategy() -> tuple[list[str], Groups]:
    langs = ["L3", "avoid-010-101", "avoid-001-010-0111"]
    groups: Groups = [
        (False, [_paper_report("L3", 1000)]),
        (False, [_paper_report("avoid-001-010-0111", 600)]),
    ]
    for lang in langs:
        for n in range(40, 102, 3):
            groups.append((n == 40 and lang == "L3", [_paper_report(lang, n)]))
        for n in range(40, 101, 10):
            groups.append((False, [_depths(lang, n, "rd", source="CONSTRUCTED", paper=True)]))
    for lang, n in [("L3", 300), ("avoid-001-010-0111", 100)]:
        groups.append((False, _build_and_validate(lang, n, "recognition", "nondet", "paper")))
    for lang in ("L3", "avoid-010-101"):  # t = 1, so n = 10..12 materializes
        for n in (10, 11, 12):
            groups.append((n == 12 and lang == "L3",
                           _build_and_validate(lang, n, "recognition", "det", "paper")))
        groups.append((False, [_depths(lang, 12, "rd", paper=True)]))
    return langs, groups


def random_antichain_words(rng: random.Random, max_len: int = 6) -> list[str]:
    """One random word set in the shape of the test suite's ``random_antichains``.

    The set is left raw: canonicalizing it is the program's job on load.
    """
    k = rng.randint(0, 5)
    return ["".join(rng.choice("01") for _ in range(rng.randint(0, max_len))) for _ in range(k)]


def _classify_sweep(seed: int, tiny: bool) -> tuple[dict[str, list[str]], Groups]:
    rng = random.Random(seed)
    count = TINY_CLASSIFY_LANGUAGES if tiny else CLASSIFY_LANGUAGES
    docs: dict[str, list[str]] = {}
    groups: Groups = []
    for i in range(count):
        name = f"rand-{i:05d}"
        docs[name] = random_antichain_words(rng)
        n = rng.randint(4, 10)
        groups.append((True, [Op(["enumerate", _doc(name), "-n", str(n), "--count-only"],
                                 {"kind": "count", "lang": name, "n": n}, seeded=True)]))
    names = list(docs)
    for start in range(0, count, CLASSIFY_BATCH):
        batch = names[start : start + CLASSIFY_BATCH]
        groups.append((True, [Op(["classify", *map(_doc, batch), "--format", "csv"],
                                 {"kind": "classify", "langs": batch}, seeded=True)]))
    return docs, groups


def _fixed(family) -> tuple[dict[str, list[str]], Groups]:
    langs, groups = family()
    return {name: LANGUAGES[name] for name in langs}, groups


def make_plan(workload: str, seed: int, size: str = "full") -> Plan:
    """The op list of one pass: identical for equal (workload, seed, size).

    ``size="tiny"`` keeps a few groups of each family, for the self-tests;
    every tiny op is also an op of the full plan with the same seed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    tiny = size == "tiny"
    if workload == "exact":
        families = [_fixed(_exact_membership), _fixed(_exact_recognition)]
    else:
        families = [_fixed(_paper_strategy), _classify_sweep(seed, tiny)]
    docs: dict[str, list[str]] = {}
    groups: list[list[Op]] = []
    for family_docs, flagged in families:
        docs.update(family_docs)
        groups += [ops for small, ops in flagged if small or not tiny]
    random.Random(f"{workload}:{seed}").shuffle(groups)
    return Plan(workload, seed, docs, [op for group in groups for op in group])


def write_docs(plan: Plan, directory: Path) -> None:
    for name, forbidden in plan.docs.items():
        with open(directory / _doc(name), "w", encoding="utf-8") as fh:
            json.dump({"name": name, "forbidden": forbidden}, fh)
