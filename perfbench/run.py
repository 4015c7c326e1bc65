"""End-to-end and per-layer benchmark of the `hartogs` CLI.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`.  Workloads are `scan`, `verify` and `highdim` (see
`workloads.py`).  Each pass runs the workload's invocation list once in a
fresh child interpreter, as a closed loop with one client, no threads and
BLAS pinned to one thread.  Passes repeat until `--seconds` have elapsed
(at least two), all with the same inputs, so the CSVs of every pass must
be byte-identical.

Times are rescaled to a reference CPU speed measured inside each child
(`child.SpeedProbe`), because the host's cores are shared and raw wall
times drift by 20% or more between runs.  The raw figures are printed too.

`--trace 0` reports, as medians over passes:
  wall_s        time of one pass over the invocation list
  points_per_s  `--samples` summed over invocations that met their
                expected verdict, divided by wall_s
  peak_rss_mb   peak resident memory of the child interpreter
  setup_s       time to import `hartogs.cli` and build its parser in a
                fresh interpreter (median of at least nine)
Invocations whose exit code or verdict differs from the theorem's
prediction count in `failed`; fail_frac = failed / attempted is printed.
`correct` is false when a failure is not one of the known defects listed
in `workloads.py`, or when a rerun is not byte-identical.

`--trace 1` alternates untraced and traced passes (at least two traced)
and reports per layer: calls, self and inclusive time as a percentage of
the traced pass, the sampler's accept ratio, the tracing overhead, and
microseconds per call at n = 2, 4 and 8 (`layers.py`).  `correct` is also
false when a work count differs between the two traced passes.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
MIN_TRACED_PASSES = 2
SETUP_SAMPLES = 9
#: every child must finish this long after the run starts
DEADLINE_S = 170.0

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


class Children:
    """Starts child interpreters one at a time and waits for each."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.base = {"src": str(SRC), "workload": workload, "seed": seed}
        self.deadline = deadline
        self.env = {**os.environ, **THREAD_ENV}
        self.env.pop("PYTHONPATH", None)
        self.work = OUT_DIR / f"work-{os.getpid()}"
        self.spans = OUT_DIR / f"spans-{workload}.jsonl"

    def run(self, mode: str, trace: bool = False) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the minimum number of passes")
        spec = {**self.base, "mode": mode, "trace": trace,
                "work_dir": str(self.work), "spans": str(self.spans)}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} child still running at the deadline") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def verdicts(passes: list[dict]) -> tuple[int, list[dict], list[str]]:
    """(attempted, failed results, reasons the run is not correct)."""
    results = [r for p in passes for r in p["results"]]
    failed = [r for r in results if r["problem"] is not None]
    wrong = [f"unexpected failure: {r['argv']}: {r['problem']}\n    {r['output']!r}"
             for r in failed if not r["known"]]
    for i, first in enumerate(passes[0]["results"]):
        if len({p["results"][i]["csv_sha256"] for p in passes}) > 1:
            wrong.append(f"CSV differs between reruns: {first['argv']}")
    return len(results), failed, wrong


def end_to_end(passes: list[dict], setups: list[float]) -> dict[str, tuple[list[float], str]]:
    """Metric -> (one value per sample, unit)."""
    def points_ok(p: dict) -> int:
        return sum(r["samples"] for r in p["results"] if r["problem"] is None)

    return {
        "wall_s": ([p["wall_s"] for p in passes], "s"),
        "points_per_s": ([points_ok(p) / p["wall_s"] for p in passes], "1/s"),
        "peak_rss_mb": ([p["peak_rss_mb"] for p in passes], "MB"),
        "setup_s": (setups, "s"),
    }


def work_counts(p: dict) -> dict[str, float]:
    """Call counts of every layer, and the sampler's accept ratio, in one pass."""
    t = p["trace"]
    counts = {f"{name}.calls": t["layers"].get(name, {}).get("calls", 0)
              for name in (*tracer.SPANNED, *tracer.CLI_LAYERS)}
    counts.update({f"{name}.calls": t["counts"][name] for name in tracer.COUNTED})
    drawn = t["contains_in_sampler"]
    counts[f"{tracer.SAMPLER}.accept_ratio"] = t["points_returned"] / drawn if drawn else 0.0
    return counts


def per_layer(traced: list[dict], untraced: list[dict], micro: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics (name -> ([value], unit)) and the counts that did
    not repeat between traced passes of the same inputs."""
    counts = [work_counts(p) for p in traced]
    out = {k: ([v], "ratio" if k.endswith("accept_ratio") else "count")
           for k, v in counts[0].items()}
    for name in (*tracer.SPANNED, *tracer.CLI_LAYERS):
        for field, metric in (("self_s", "self_pct"), ("total_s", "total_pct")):
            shares = []
            for p in traced:
                layers = p["trace"]["layers"]
                # the root spans cover the pass, speed-probe samples included
                whole = sum(layers[c]["total_s"] for c in tracer.CLI_LAYERS if c in layers)
                shares.append(100.0 * layers.get(name, {}).get(field, 0.0) / whole)
            out[f"{name}.{metric}"] = ([statistics.median(shares)], "%")
    out.update({k: ([v], "us") for k, v in micro.items()})
    overhead = (statistics.median(p["wall_s"] for p in traced)
                - statistics.median(p["wall_s"] for p in untraced))
    out["trace.overhead_s"] = ([overhead], "s")
    unstable = [f"work count differs between traced passes: {k}"
                for k in counts[0] if any(c[k] != counts[0][k] for c in counts)]
    return out, unstable


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref
    return ref


def environment(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": THREAD_ENV,
        "git_commit": git_commit(),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(args, children: Children):
    """Runs the passes; returns (metric table, untraced passes, invocations
    attempted, failed results, reasons the run is not correct)."""
    start = time.monotonic()
    children.run("setup")  # compiles the bytecode once; not a sample
    traced: list[dict] = []
    untraced: list[dict] = []

    def enough() -> bool:
        if args.trace:
            return len(traced) >= MIN_TRACED_PASSES and bool(untraced)
        return len(untraced) >= MIN_PASSES

    while not enough() or time.monotonic() - start < args.seconds:
        # untraced first, then the traced minimum, then alternating
        trace_next = bool(args.trace) and bool(untraced) and (
            len(traced) < MIN_TRACED_PASSES or len(traced) < len(untraced))
        (traced if trace_next else untraced).append(children.run("pass", trace_next))
    passes = untraced + traced
    attempted, failed, wrong = verdicts(passes)

    if args.trace:
        table, unstable = per_layer(traced, untraced, children.run("layers")["layers"])
        wrong += unstable
    else:
        setups = [p["setup_s"] for p in untraced]
        while len(setups) < SETUP_SAMPLES:
            setups.append(children.run("setup")["setup_s"])
        table = end_to_end(untraced, setups)
    return table, untraced, attempted, failed, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hartogs" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'hartogs'}; run from a checkout",
              file=sys.stderr)
        return 2

    children = Children(args.workload, args.seed, time.monotonic() + DEADLINE_S)
    try:
        table, untraced, attempted, failed, wrong = measure(args, children)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        children.close()

    print(f"workload {args.workload}, seed {args.seed}: attempted {attempted}, "
          f"failed {len(failed)}, fail_frac {len(failed) / attempted:.4g}")
    for (argv_text, reason), count in Counter(
            (r["argv"], r["known"]) for r in failed if r["known"]).items():
        print(f"  known defect x{count}: {argv_text}\n    ({reason})")
    for line in wrong:
        print(f"  NOT CORRECT: {line}")
    metrics = {}
    for name, (values, unit) in table.items():
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        if len(values) > 1:
            print(f"  {name:<14} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
        elif med and unit != "us":
            print(f"  {name:<48} {med:.6g} {unit}")
    q1, med, q3 = quartiles([p["raw_wall_s"] for p in untraced])
    print(f"  raw wall time of a pass: median {med:.6g} s  q1 {q1:.6g}  q3 {q3:.6g}  "
          f"n={len(untraced)}")
    if args.trace:
        print(f"  {len(metrics)} per-layer metrics; spans of the last traced pass in "
              f"{children.spans}")
    print("env " + json.dumps(environment(args, untraced[0]["numpy"])))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
