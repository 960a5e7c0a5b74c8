"""Correctness gate for benchmark ops, run after the timed region of a pass.

Two layers of checks:

* byte-for-byte: the sha256 of each op's stdout (and of the file it wrote
  with ``--out``) against digests recorded for the default seed;
* invariants that need no stored answer and hold for every seed, computed
  here without importing the package: brute-force slice counts, a brute
  dimension scan for the growth class, and the depth-measure inequalities.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import re
from functools import lru_cache

BRUTE_MAX_N = 16  # slice counts up to this length come from scanning all 2^n words


def digest(stdout: str, out_bytes: bytes | None) -> str:
    h = hashlib.sha256(stdout.encode("utf-8"))
    if out_bytes is not None:
        h.update(b"\0")
        h.update(out_bytes)
    return h.hexdigest()


def is_subsequence(u: str, w: str) -> bool:
    it = iter(w)
    return all(c in it for c in u)


def is_member(forbidden: tuple[str, ...], w: str) -> bool:
    return not any(is_subsequence(f, w) for f in forbidden)


@lru_cache(maxsize=None)
def _all_words_text(n: int) -> str:
    return "\n".join("".join(bits) for bits in itertools.product("01", repeat=n))


def _embedding_pattern(f: str) -> str:
    # leftmost embedding: skip letters other than the next one needed, then take it
    return "".join(("1*" if c == "0" else "0*") + c for c in f)


@lru_cache(maxsize=None)
def slice_count(forbidden: tuple[str, ...], n: int) -> int:
    """|L(n)|: brute force over all 2^n words for n <= 16, progress-vector DP beyond."""
    if "" in forbidden:
        return 0
    if not forbidden:
        return 2**n
    if n <= BRUTE_MAX_N:
        rx = re.compile("(?m)^(?:" + "|".join(map(_embedding_pattern, forbidden)) + ")")
        return 2**n - len(rx.findall(_all_words_text(n)))
    counts = {tuple(0 for _ in forbidden): 1}
    for _ in range(n):
        nxt: dict[tuple[int, ...], int] = {}
        for state, c in counts.items():
            for letter in "01":
                prog = tuple(p + (f[p] == letter) for p, f in zip(state, forbidden))
                if all(p < len(f) for p, f in zip(prog, forbidden)):
                    nxt[prog] = nxt.get(prog, 0) + c
        counts = nxt
    return sum(counts.values())


@lru_cache(maxsize=None)
def brute_class(forbidden: tuple[str, ...]) -> tuple[int, str, str]:
    """(class, hom, het) from a direct scan of the dimension test words.

    An obstruction of length at most M embeds into a test word with m > M iff
    it embeds into the one with m = M + 1, so membership at M + 1 means the
    dimension is unbounded; otherwise the scan from M down finds it.
    """
    top = max((len(f) for f in forbidden), default=0) + 1

    def test_word(a: str, m: int, hetero: bool) -> str:
        b = "1" if a == "0" else "0"
        return a * m + b * m if hetero else a * m + b + a * m

    def dimension(hetero: bool) -> float:
        for m in range(top, -1, -1):
            if any(is_member(forbidden, test_word(a, m, hetero)) for a in "01"):
                return math.inf if m == top else m
        return 0

    hom, het = dimension(False), dimension(True)
    infinite_language = any(is_member(forbidden, a * top) for a in "01")
    if hom == math.inf:
        cls = 1 if forbidden else 2
    elif het == math.inf:
        cls = 3
    else:
        cls = 4 if infinite_language else 5
    return cls, _format_dimension(hom), _format_dimension(het)


def _format_dimension(value: float) -> str:
    return "inf" if value == math.inf else str(int(value))


def _check_depths(check: dict, forbidden: tuple[str, ...], stdout: str) -> list[str]:
    problems = []
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if not rows:
        return ["depths printed no rows"]
    cls = brute_class(forbidden)[0]
    for row in rows:
        n = int(row["n"])
        vals = {m: int(row[f"h_{m}"]) if row[f"h_{m}"] else None for m in ("rd", "ra", "md", "ma")}
        where = f"n={n}"
        if int(row["class"]) != cls:
            problems.append(f"{where}: class {row['class']} but the dimension scan gives {cls}")
        for m in check["measures"]:
            if row[f"source_{m}"] != check["source"]:
                problems.append(f"{where}: {m} source {row[f'source_{m}']}, expected {check['source']}")
        for lo, hi in (("ra", "rd"), ("ma", "md")):
            if vals[lo] is not None and vals[hi] is not None and vals[lo] > vals[hi]:
                problems.append(f"{where}: {lo}={vals[lo]} > {hi}={vals[hi]}")
        for m, v in vals.items():
            if v is not None and not 0 <= v <= n:
                problems.append(f"{where}: {m}={v} outside 0..n")
        rd = vals["rd"]
        if rd is not None:
            count = slice_count(forbidden, n)
            if count and rd < (count - 1).bit_length():
                problems.append(f"{where}: rd={rd} below log2 of the slice size {count}")
            if row["source_rd"] == "EXACT":
                if cls == 1 and rd != n:
                    problems.append(f"{where}: class-1 rd={rd}, expected n")
                if forbidden == ("10",) and rd != n.bit_length():  # ceil(log2(n + 1))
                    problems.append(f"{where}: L3 rd={rd}, expected ceil(log2(n+1))")
    return problems


def _check_paper_report(check: dict, forbidden: tuple[str, ...], stdout: str) -> list[str]:
    report = json.loads(stdout)
    count = slice_count(forbidden, check["n"])
    problems = []
    if report["n"] != check["n"]:
        problems.append(f"report for n={report['n']}, asked for {check['n']}")
    if report["max_queries_observed"] > report["query_budget"]:
        problems.append(
            f"max_queries_observed {report['max_queries_observed']} > budget {report['query_budget']}"
        )
    if report["words_simulated"] != count:
        problems.append(f"words_simulated {report['words_simulated']} != slice count {count}")
    if count and report["max_queries_observed"] < (count - 1).bit_length():
        problems.append("max_queries_observed below log2 of the slice size")
    return problems


def _check_classify(check: dict, docs: dict[str, list[str]], stdout: str) -> list[str]:
    rows = list(csv.DictReader(io.StringIO(stdout)))
    names = [row["language"] for row in rows]
    if names != check["langs"]:
        return [f"classify rows {len(names)} do not list the batch's {len(check['langs'])} languages"]
    problems = []
    for row in rows[::4]:  # sampled: the scan costs a few membership tests per language
        want = brute_class(tuple(docs[row["language"]]))
        got = (int(row["class"]), row["hom"], row["het"])
        if got != want:
            problems.append(f"{row['language']}: (class, hom, het) {got}, dimension scan {want}")
    return problems


def check_op(check: dict, docs: dict[str, list[str]], code, stdout: str) -> list[str]:
    """Invariant violations of one finished op; an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    kind = check["kind"]
    forbidden = tuple(docs[check["lang"]]) if "lang" in check else ()
    try:
        if kind == "depths":
            return _check_depths(check, forbidden, stdout)
        if kind == "paper-report":
            return _check_paper_report(check, forbidden, stdout)
        if kind == "count":
            want = slice_count(forbidden, check["n"])
            return [] if stdout.strip() == str(want) else [f"count {stdout.strip()!r}, brute {want}"]
        if kind == "classify":
            return _check_classify(check, docs, stdout)
        if kind == "validate":
            return [] if stdout.startswith("pass:") else [f"validate printed {stdout[:80]!r}"]
        return []  # build: checked by its digest and the validate op that follows it
    except (ValueError, KeyError, TypeError) as exc:  # unparsable output is a failed op
        return [f"unreadable output: {exc!r}"]
