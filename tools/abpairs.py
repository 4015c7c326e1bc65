"""Alternating pairs of benchmark runs on two checkouts, and the verdict.

    python3 tools/abpairs.py PARENT CHANGE --workloads highdim scan verify \\
        --pairs 10 --seed 101 --seconds 20

For each workload named, runs `perfbench/run.py --workload W --seed S
--seconds SECONDS --trace 0` in the PARENT checkout and in the CHANGE
checkout, for `--pairs` pairs on seeds S = `--seed` .. `--seed` + pairs -
1, the parent first in even pairs and the change first in odd ones.  Each
run uses its own checkout's benchmark and package; this tool writes into
neither (the benchmark keeps its scratch files in `.perfbench/`).  Then it
prints, per workload and end-to-end metric, each side's median and
quartiles, the change of the median, the pairs the change won (ties count
for neither) and whether a gain holds by the rule of the choosing-metrics
guide: the change wins at least nine tenths of the pairs, and the gap
between the medians, in the better direction, is larger than the distance
between the parent's quartiles.  The metrics, which way is better and
each one's bound are read from the change's `BENCHMARK.json`; a median
worse than the parent's by more than its bound is flagged.  Under each
metric come its values on every run of each side, in seed order.  A run
that is not `correct`, and failed invocations, are counted per side.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), as `perfbench/run.py` reports them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool):
    """(pairs the change won, whether a gain holds) over the pairs
    (parent[i], change[i]): a gain holds when the change wins at least 9/10
    of the pairs and its median is better than the parent's by more than
    the parent's quartile spread."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (parent_median - statistics.median(change))
    return wins, 10 * wins >= 9 * len(parent) and gap > q3 - q1


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The last line of one benchmark run in `checkout`: its JSON summary."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: the {workload} run at seed {seed} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    checkouts = {"parent": args.parent, "change": args.change}
    for workload in args.workloads:
        runs = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(run(checkouts[side], workload, args.seed + i, args.seconds))
        print(f"{workload}: {args.pairs} pairs, seeds {args.seed}-{args.seed + args.pairs - 1}"
              + "".join(f"; {side} failed {sum(r['failed'] for r in runs[side])}, not correct "
                        f"{sum(not r['correct'] for r in runs[side])}" for side in SIDES))
        for metric in bench["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
            wins, holds = verdict(values["parent"], values["change"], lower)
            (p1, pm, p3), (c1, cm, c3) = (quartiles(values[side]) for side in SIDES)
            worse = (cm - pm) / pm if lower else (pm - cm) / pm
            print(f"  {name:<13} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  "
                  f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  {cm / pm - 1:+.1%}  "
                  f"wins {wins}/{args.pairs}  gain {'holds' if holds else 'not shown'}"
                  + (f"  WORSE than its bound {metric['bound']:g}" if worse > metric["bound"]
                     else ""))
            for side in SIDES:
                print(f"    {side:<6} runs " + " ".join(f"{v:.6g}" for v in values[side]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
