"""One measurement in a fresh interpreter; prints one JSON line.

    python3 child.py '<spec json>'

The spec's `mode` is `setup` (import `hartogs.cli` and build the parser),
`pass` (one closed-loop pass over a workload's invocations: each call to
`hartogs.cli.main` starts only after the previous one returned), or
`layers` (per-layer microseconds per call).  A pass is timed around the
calls alone; verdicts are checked after the clock stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

#: time of `SpeedProbe.kernel` on an uncontended core of the reference
#: machine (2-vCPU Intel Xeon VM, Python 3.11); rescaled times read as
#: seconds on that core
REF_KERNEL_S = 140e-6


class SpeedProbe:
    """Measures how fast the CPU runs, to rescale wall times.

    The benchmark host shares its cores: for stretches of seconds to
    minutes the same code runs up to ~1.6x slower, which moves a median
    of raw pass times by 20% or more between runs.  A fixed pure-Python
    kernel slows with it, so it is timed every INTERVAL_S of wall time
    (from SIGALRM, between bytecodes) and once at each end of a measured
    interval.  `measure` reports the interval's wall time less the
    probe's own cost (`raw_s`) and the same rescaled by REF_KERNEL_S over
    the mean kernel time within the interval (`s`).
    """

    INTERVAL_S = 0.01

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    @staticmethod
    def kernel() -> float:
        acc = 0.0
        for i in range(1, 1200):
            acc += (i * 0.5) ** 0.5 / i
        return acc

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    @contextlib.contextmanager
    def measure(self):
        self._sample()
        first = len(self.samples) - 1
        spent = self.spent
        start = time.perf_counter()
        timing: dict[str, float] = {}
        yield timing
        raw = time.perf_counter() - start - (self.spent - spent)
        self._sample()
        window = self.samples[first:]
        timing["raw_s"] = raw
        timing["s"] = raw * REF_KERNEL_S * len(window) / sum(window)


def _subcommand(argv) -> str:
    return "cli." + argv[0].replace("-", "_")


def run_pass(spec: dict, probe: SpeedProbe) -> dict:
    import hartogs.cli
    import workloads

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    invocations = workloads.build(spec["workload"], spec["seed"])
    work = Path(spec["work_dir"])
    work.mkdir(parents=True, exist_ok=True)
    csv_paths = [work / f"inv{i}.csv" for i in range(len(invocations))]
    argvs = [
        [str(csv_paths[i]) if a == workloads.OUT else a for a in inv.argv]
        for i, inv in enumerate(invocations)
    ]

    captured = []
    with probe.measure() as wall:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            root = tracer.invocation(_subcommand(argv)) if tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), root:
                try:
                    rc = hartogs.cli.main(argv)
                except Exception:  # an exception is a failed invocation, not a crash
                    rc = None
                    traceback.print_exc()
            captured.append((rc, out.getvalue(), err.getvalue()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = []
    for inv, path, (rc, out, err) in zip(invocations, csv_paths, captured):
        csv_bytes = path.read_bytes() if inv.writes_csv and path.exists() else None
        outcome = workloads.Outcome(
            rc, out, err, None if csv_bytes is None else csv_bytes.decode("utf-8")
        )
        problem = workloads.check(inv, outcome)
        results.append({
            "argv": " ".join(inv.argv),
            "samples": inv.samples,
            "problem": problem,
            "known": inv.known_defect.reason
            if problem is not None and workloads.is_known(inv, outcome) else None,
            "csv_sha256": None if csv_bytes is None else hashlib.sha256(csv_bytes).hexdigest(),
            "output": (out + err)[-400:] if problem else "",
        })

    report = {"wall_s": wall["s"], "raw_wall_s": wall["raw_s"],
              "peak_rss_mb": peak_rss_mb, "results": results}
    if tracer:
        report["trace"] = tracer.summary()
        tracer.write_spans(spec["spans"])
    return report


def main() -> None:
    spec = json.loads(sys.argv[1])
    src = spec["src"]
    with SpeedProbe() as probe:
        with probe.measure() as setup:
            sys.path.insert(0, src)
            import hartogs.cli

            hartogs.cli.build_parser()
        if not Path(hartogs.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
            raise SystemExit(f"imported hartogs from {hartogs.cli.__file__}, not from {src}")
        report = {"setup_s": setup["s"], "raw_setup_s": setup["raw_s"]}
        if spec["mode"] == "pass":
            report.update(run_pass(spec, probe))
        elif spec["mode"] == "layers":
            import layers

            with probe.measure() as span:
                us = layers.measure(spec["seed"])
            report["layers"] = {k: v * span["s"] / span["raw_s"] for k, v in us.items()}
    import numpy

    report["numpy"] = numpy.__version__
    print(json.dumps(report))


if __name__ == "__main__":
    main()
