"""Benchmark entry point for the subword-trees CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload, each in a fresh interpreter (``worker.py``),
until the next one would run past ``--seconds`` (at least three untraced
passes, or one untraced and one traced pass with ``--trace 1``).  With
``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``: the
median over passes of each pass's set-up time, wall time, per-op latency
percentiles and peak RSS.  With ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics (medians over traced passes)
plus the tracing overhead.  The last stdout line is the result object; the
line before it carries the run's metadata.

``--record`` re-records the expected output digests of the default seed
(``perfbench/expected/``); do it only after checking that the program's
output changed on purpose.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
EXPECTED_DIR = HERE / "expected"
DEFAULT_SEED = 0
MIN_PASSES = 3
PASS_TIMEOUT_S = 120


class PassError(RuntimeError):
    """A worker process failed; the run reports no result."""


@contextlib.contextmanager
def _workdir(workload: str, seed: int, size: str):
    """A directory holding the run's language documents, removed afterwards.

    The documents are written once per run, not per pass: on this volume
    creating 1000 small files takes 0.3-0.7 s and drifts as files churn, which
    would bury the program's own set-up time in ``setup_s``.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
    try:
        workloads.write_docs(workloads.make_plan(workload, seed, size), path)
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def _spawn_pass(workload: str, seed: int, size: str, trace: int, workdir: Path,
                expected: Path | None, record: bool = False) -> dict:
    result_path = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--trace", str(trace),
           "--workdir", str(workdir), "--result", str(result_path)]
    if expected is not None:
        cmd += ["--expected", str(expected)]
    if record:
        cmd.append("--record")
    try:
        cmd += ["--t0", repr(time.monotonic())]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        if proc.returncode != 0:
            raise PassError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(result_path.read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise PassError(f"worker exceeded {PASS_TIMEOUT_S} s") from exc
    finally:
        result_path.unlink(missing_ok=True)


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1]


def _median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def _end_to_end(passes: list[dict]) -> dict[str, float]:
    return {
        "setup_s": _median_of(passes, "setup_s"),
        "wall_s": _median_of(passes, "wall_s"),
        "op_p50_ms": statistics.median(statistics.median(p["latencies_ms"]) for p in passes),
        "op_p90_ms": statistics.median(_p90(p["latencies_ms"]) for p in passes),
        "peak_rss_mb": _median_of(passes, "peak_rss_mb"),
    }


def _per_layer(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    layers = {key: statistics.median(p["layers"][key] for p in traced)
              for key in traced[0]["layers"]}
    base = _median_of(untraced, "wall_s")
    overhead = _median_of(traced, "wall_s") - base
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_frac"] = overhead / base
    return layers


def _declared_metrics(section: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def measure(args) -> tuple[dict, dict]:
    expected = args.expected_dir / f"{args.workload}.json"
    if not expected.is_file():
        raise PassError(f"no recorded outputs at {expected}; record them with --record")
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    with _workdir(args.workload, args.seed, args.size) as workdir:
        while True:
            round_start = time.monotonic()
            untraced.append(_spawn_pass(args.workload, args.seed, args.size, 0, workdir, expected))
            if args.trace:
                traced.append(_spawn_pass(args.workload, args.seed, args.size, 1, workdir, expected))
            now = time.monotonic()
            enough = args.trace or len(untraced) >= MIN_PASSES
            # stop before a round that would run past the measuring time
            if enough and now - start + (now - round_start) > args.seconds:
                break
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if args.trace:
        values = _per_layer(untraced, traced)
        units = _declared_metrics("per_layer")
    else:
        values = _end_to_end(untraced)
        units = _declared_metrics("end_to_end")
    missing = sorted(set(units) - set(values))
    if missing:
        raise PassError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    ops = untraced[0]["attempted"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "ops_per_pass": ops,
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "latency_samples": {"per_pass": ops, "passes": len(untraced),
                            "beyond_p90_per_pass": ops - int(0.9 * ops)},
        "wall_s_per_pass": [p["wall_s"] for p in untraced],
        "ops_compared_per_pass": untraced[0]["compared"],
        "ops_failed_frac": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:10],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return meta, result


def record(args) -> None:
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    args.expected_dir.mkdir(exist_ok=True)
    for name in names:
        with _workdir(name, DEFAULT_SEED, "full") as workdir:
            res = _spawn_pass(name, DEFAULT_SEED, "full", 0, workdir, None, record=True)
        if res["failed"]:
            raise PassError(f"{name}: invariant checks failed, not recording: {res['failures']}")
        doc = {"workload": name, "seed": DEFAULT_SEED, "digests": res["record"]}
        path = args.expected_dir / f"{name}.json"
        path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(res['record'])} digests to {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few ops per workload, for the self-tests")
    parser.add_argument("--expected-dir", type=Path, default=EXPECTED_DIR)
    parser.add_argument("--record", action="store_true",
                        help="re-record expected digests for the default seed")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "subword_trees" / "cli.py").is_file():
        print(f"error: no subword_trees package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record:
            record(args)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        meta, result = measure(args)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
