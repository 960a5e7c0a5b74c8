"""One benchmark pass in a fresh interpreter.

Imports the package from ``src/``, runs every op through
``subword_trees.cli.main`` with stdout captured, in the run's working
directory (which holds the language documents ``run.py`` wrote), and only
then checks the outputs.  The pass's numbers
go to the JSON file named by ``--result``.  ``run.py`` starts this script; it
is not meant to be run by hand except to debug one pass.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"


def _expected(path: Path | None) -> tuple[dict[str, str], int] | None:
    """Recorded digests and the seed they were recorded with, if any."""
    if path is None:
        return None
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc["digests"], doc["seed"]


def run_pass(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import subword_trees
    from subword_trees import cli

    plan = workloads.make_plan(args.workload, args.seed, args.size)
    os.chdir(args.workdir)  # holds the run's language documents
    try:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(subword_trees)
        setup_s = time.monotonic() - args.t0

        # Each op starts from a collected heap, as a fresh CLI process would:
        # otherwise uncollected argparse cycles pin allocator arenas and peak
        # RSS depends on op order.  Freezing the import-time objects keeps the
        # per-op collection down to what the ops left behind.
        gc.freeze()
        finished = []
        latencies = []
        wall_s = 0.0
        for index, op in enumerate(plan.ops):
            if tracer is not None:
                tracer.op_index = index
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(op.argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # an op that raises is a failed op, not a failed pass
                code = f"raised {exc!r}"
            elapsed = time.perf_counter() - start
            wall_s += elapsed
            latencies.append(elapsed * 1000.0)
            finished.append((op, code, out.getvalue()))
            gc.collect()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # correctness gate, outside the timed region
        expected = _expected(args.expected)
        record = {}
        failures = []
        compared = 0
        for op, code, stdout in finished:
            out_bytes = None
            if op.out is not None and os.path.exists(op.out):
                with open(op.out, "rb") as fh:
                    out_bytes = fh.read()
                os.remove(op.out)  # the next pass must write its own
            problems = checks.check_op(op.check, plan.docs, code, stdout)
            got = checks.digest(stdout, out_bytes)
            record[op.key] = got
            # ops on seed-drawn documents only have recorded outputs for one seed
            if expected is not None and (not op.seeded or expected[1] == plan.seed):
                compared += 1
                want = expected[0].get(op.key)
                if want is None:
                    problems.append("no recorded output for this op")
                elif want != got:
                    problems.append("stdout differs from the recorded output")
            if problems:
                failures.append(f"{op.key}: {'; '.join(problems)}")

        result = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "latencies_ms": latencies,
            "peak_rss_mb": peak_rss_mb,
            "attempted": len(finished),
            "failed": len(failures),
            "failures": failures[:5],
            "compared": compared,
        }
        if args.record:
            result["record"] = record
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.write_spans(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"))
        return result
    finally:
        os.chdir(ROOT)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--expected", type=Path, default=None)
    parser.add_argument("--record", action="store_true", help="return every op's digest")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    result = run_pass(args)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
