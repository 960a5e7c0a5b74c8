"""Command-line surface: classify, enumerate, depths, build-tree, validate.

Exit codes: 0 ok, 1 usage error, 2 invalid input document or a file that
cannot be read or written, 3 builder precondition unmet or exhaustive-search
cap exceeded (``validate`` too: past n = 20 for membership, past slices of
4096 words for recognition), 4 validation failure.
Identical inputs always produce byte-identical output (fixed orderings, no
timestamps).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys

from . import builders, oracle
from .dimensions import MEASURES, classify, format_extended
from .language import (
    BUNDLED_NAMES,
    Language,
    LanguageSpecError,
    bundled_path,
    load_language,
)
from .trees import (
    DET,
    NONDET,
    DecisionTree,
    TreeFormatError,
    chain,
    materialize_strategy,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
    validate_membership,
    validate_recognition,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BAD_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_VALIDATION = 4

MATERIALIZE_LIMIT = 12  # explicit strategy trees only up to this slice length


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(ValueError):
    pass


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # argparse's own wording for type=int
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _resolve_language(path: str) -> Language:
    if not os.path.exists(path) and path in BUNDLED_NAMES:
        path = bundled_path(path)
    return load_language(path)


def _parse_range(text: str) -> tuple[int, int]:
    lo_s, sep, hi_s = text.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if sep else lo
    except ValueError:
        raise UsageError(f"invalid range {text!r}: expected N or LO..HI") from None
    if not 1 <= lo <= hi:
        raise UsageError(f"invalid range {text!r}: need 1 <= lo <= hi")
    return lo, hi


def _parse_measures(text: str) -> tuple[str, ...]:
    measures = tuple(part.strip() for part in text.split(",") if part.strip())
    for m in measures:
        if m not in MEASURES:
            raise UsageError(f"unknown measure {m!r}; choose from {','.join(MEASURES)}")
    if not measures:
        raise UsageError("empty measure list")
    return measures


def _write_out(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report_dict(report) -> dict:
    return {
        "name": report.name,
        "class": report.class_index,
        "hom": format_extended(report.hom),
        "het": format_extended(report.het),
        "finite": report.is_finite_language,
        "complement_empty": report.complement_empty,
        "shortest_complement_word_length": report.shortest_complement_word_length,
        "predictions": report.predictions,
    }


def cmd_classify(args) -> int:
    reports = [classify(_resolve_language(p)) for p in args.language]
    if args.format == "json":
        _write_out(json.dumps([_report_dict(r) for r in reports], indent=2), args.out)
        return EXIT_OK
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["language", "class", "hom", "het", "finite", "complement_empty", "w0_length"]
            + [f"pred_{m}" for m in MEASURES]
        )
        for r in reports:
            writer.writerow(
                [
                    r.name,
                    r.class_index,
                    format_extended(r.hom),
                    format_extended(r.het),
                    int(r.is_finite_language),
                    int(r.complement_empty),
                    "" if r.shortest_complement_word_length is None else r.shortest_complement_word_length,
                ]
                + [r.predictions[m] for m in MEASURES]
            )
        _write_out(buf.getvalue(), args.out)
        return EXIT_OK
    lines = []
    for r in reports:
        w0 = (
            "none"
            if r.shortest_complement_word_length is None
            else str(r.shortest_complement_word_length)
        )
        preds = " ".join(f"{m}={r.predictions[m]}" for m in MEASURES)
        lines.append(
            f"{r.name}: class={r.class_index} hom={format_extended(r.hom)} "
            f"het={format_extended(r.het)} finite={'yes' if r.is_finite_language else 'no'} "
            f"complement_empty={'yes' if r.complement_empty else 'no'} "
            f"w0_length={w0} predictions: {preds}"
        )
    _write_out("\n".join(lines), args.out)
    return EXIT_OK


def cmd_enumerate(args) -> int:
    lang = _resolve_language(args.language)
    if args.count_only:
        _write_out(str(lang.count_slice(args.n)), args.out)
        return EXIT_OK
    _write_out("\n".join(lang.slice(args.n)), args.out)
    return EXIT_OK


def _paper_rd(lang: Language, n: int, max_slice: int) -> int | None:
    """Measured worst-case query count of the block strategy over the slice;
    None when the strategy does not apply or the slice exceeds ``max_slice``."""
    try:
        strategy = builders.block_recognition_strategy(lang, n)
    except builders.BuilderPreconditionError:
        return None
    return builders.worst_case_queries(lang, strategy, max_slice)


def cmd_depths(args) -> int:
    lo, hi = _parse_range(args.n)
    measures = _parse_measures(args.measures)
    if args.algorithm == "paper" and "rd" not in measures:
        raise UsageError("--algorithm paper only applies to the rd measure")
    header = ["language", "n", "h_rd", "h_ra", "h_md", "h_ma", "class"] + [
        f"source_{m}" for m in MEASURES
    ]
    table = []
    for path in args.language:
        lang = _resolve_language(path)
        class_index = classify(lang).class_index
        profile = oracle.depth_profile(lang, lo, hi, measures, args.max_n, args.max_slice)
        for row in profile.rows:
            values, sources = dict(row.values), dict(row.sources)
            if args.algorithm == "paper" and sources["rd"] == oracle.SKIPPED:
                worst = _paper_rd(lang, row.n, args.max_slice)
                if worst is not None:
                    values["rd"], sources["rd"] = worst, "CONSTRUCTED"
            table.append(
                [profile.name, row.n]
                + ["" if values[m] is None else values[m] for m in MEASURES]
                + [class_index]
                + [sources[m] for m in MEASURES]
            )
    if args.format == "table":
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in table)) if table else len(str(h))
            for i, h in enumerate(header)
        ]
        lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
        for r in table:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
        _write_out("\n".join(lines), args.out)
        return EXIT_OK
    if args.format == "json":
        _write_out(
            json.dumps([dict(zip(header, row)) for row in table], indent=2), args.out
        )
        return EXIT_OK
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(table)
    _write_out(buf.getvalue(), args.out)
    return EXIT_OK


def _build_tree(args, lang: Language, n: int) -> DecisionTree | dict:
    problem, mode, algorithm = args.problem, args.mode, args.algorithm
    if problem == "recognition":
        if algorithm == "exact":
            if mode == DET:
                return oracle.optimal_recognition_tree(lang, n, args.max_n, args.max_slice)
            certs = oracle.recognition_certificates(lang, n, args.max_n, args.max_slice)
            return builders.tree_from_certificates(lang, n, certs)
        if mode == NONDET:
            certs = {w: builders.block_certificate(lang, n, w) for w in lang.iter_slice(n)}
            return builders.tree_from_certificates(lang, n, certs)
        strategy = builders.block_recognition_strategy(lang, n)
        if n <= MATERIALIZE_LIMIT:
            return materialize_strategy(strategy)
        # too deep to expand: report the measured query bound instead
        worst = builders.worst_case_queries(lang, strategy, args.max_slice)
        return {
            "algorithm": "paper",
            "problem": "recognition",
            "language": lang.name,
            "n": n,
            "block_length": strategy.t,
            "query_budget": strategy.query_budget(),
            "max_queries_observed": worst or 0,
            "words_simulated": 0 if worst is None else lang.count_slice(n),
        }
    # membership
    if algorithm == "exact":
        if mode == DET:
            return oracle.optimal_membership_tree(lang, n, args.max_n)
        certs = oracle.membership_certificates(lang, n, args.max_n)
        return DecisionTree(
            tuple(chain(w, cert, "1" if lang.contains(w) else "0") for w, cert in certs.items())
        )
    if mode != DET:
        raise UsageError("--algorithm paper --problem membership supports --mode det only")
    return builders.membership_tree(lang, n)


def cmd_build_tree(args) -> int:
    result = _build_tree(args, _resolve_language(args.language), args.n)
    if isinstance(result, dict):
        if args.dot:
            raise UsageError(
                f"--dot needs a tree; --algorithm paper past n = {MATERIALIZE_LIMIT} "
                "reports a query bound instead"
            )
        _write_out(json.dumps(result, indent=2), args.out)
        return EXIT_OK
    _write_out(tree_to_json(result), args.out)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(tree_to_dot(result))
    return EXIT_OK


def cmd_validate(args) -> int:
    lang = _resolve_language(args.language)
    n = args.n
    with open(args.tree, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise TreeFormatError(f"tree document is not UTF-8: {exc}") from exc
    tree = tree_from_json(text)
    if args.problem == "recognition":
        violation = validate_recognition(tree, lang, n, args.mode)
    else:
        violation = validate_membership(tree, lang, n, args.mode)
    if violation is None:
        print(f"pass: {args.tree} solves {args.problem} for {lang.name}({n}) [{args.mode}]")
        return EXIT_OK
    print(f"fail: {violation}", file=sys.stderr)
    return EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="subword-trees",
        description=(
            "Analyze binary subword-closed languages given by forbidden "
            "subsequences: growth classification, slice enumeration, exact "
            "decision-tree depths, and tree construction/validation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="Growth classification and dimension report.")
    p.add_argument("language", nargs="+", help="language spec file (or bundled name L1..L5)")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="List or count the slice of one length.")
    p.add_argument("language")
    p.add_argument("-n", "--n", type=_positive_int, required=True, dest="n")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("depths", help="Depth profile table over a range of lengths.")
    p.add_argument("language", nargs="+")
    p.add_argument("-n", "--n", "--n-range", required=True, dest="n", help="N or LO..HI")
    p.add_argument("--measures", default=",".join(MEASURES), help="comma list of rd,ra,md,ma")
    p.add_argument(
        "--algorithm",
        choices=("exact", "paper"),
        default="exact",
        help="paper: fill rd cells beyond the oracle caps by simulating the block strategy",
    )
    p.add_argument("--format", choices=("table", "csv", "json"), default="csv")
    p.add_argument("--max-n", type=_positive_int, help="override the oracle length caps")
    p.add_argument("--max-slice", type=_positive_int, default=oracle.MAX_SLICE,
                   help="override the slice size cap")
    p.add_argument("--out")
    p.set_defaults(func=cmd_depths)

    p = sub.add_parser("build-tree", help="Construct a tree and write its JSON document.")
    p.add_argument("language")
    p.add_argument("-n", "--n", type=_positive_int, required=True, dest="n")
    p.add_argument("--problem", choices=("recognition", "membership"), default="recognition")
    p.add_argument("--mode", choices=(DET, NONDET), default=DET)
    p.add_argument(
        "--algorithm",
        choices=("exact", "paper"),
        default="paper",
        help="exact: optimal via the oracle; paper: the constructive builders",
    )
    p.add_argument("--max-n", type=_positive_int)
    p.add_argument("--max-slice", type=_positive_int, default=oracle.MAX_SLICE)
    p.add_argument("--out")
    p.add_argument("--dot", help="also write a GraphViz rendering to this path")
    p.set_defaults(func=cmd_build_tree)

    p = sub.add_parser("validate", help="Check a tree document against a language slice.")
    p.add_argument("tree", help="tree JSON document")
    p.add_argument("language")
    p.add_argument("-n", "--n", type=_positive_int, required=True, dest="n")
    p.add_argument("--problem", choices=("recognition", "membership"), default="recognition")
    p.add_argument("--mode", choices=(DET, NONDET), default=DET)
    p.set_defaults(func=cmd_validate)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser, built on first use: in-process callers run ``main`` many
    times, and parsing leaves the parser unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LanguageSpecError, TreeFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (builders.BuilderPreconditionError, builders.CertificateError, oracle.CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
