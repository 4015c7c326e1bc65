"""Where one benchmark pass spends its time, in process.

    PYTHONPATH=src python3 tools/passprof.py highdim 1
    PYTHONPATH=src python3 tools/passprof.py scan 5 --repeats 30

Builds the invocation list of a benchmark workload with
`perfbench/workloads.py` (imported, not changed) for the given seed, and
runs it with `hartogs.cli.main` in this process `--repeats` times (15 by
default), one BLAS thread.  Each invocation writes its CSV to its own
path, `inv{i}.csv` in a temporary directory, as `perfbench/child.py`
does, so every pass after the first writes over the files of the pass
before.  It prints the best-of-k milliseconds of each
subcommand and of the whole pass, then the best-of-k milliseconds of the
time spent inside `sample_interior`, `sample_boundary`, `_write_table`,
the CLI's `parse_args` (every benchmark argv is plain, so mostly the read
of a subcommand's option table; argparse runs only for help and usage
errors), the oracles of `verify-theorems`
(`metric_fd_oracle`, `ricci_fd_oracle`, `extremal_jet_oracle`) and the
closed-form inverse that two of its checks form (`inverse_metric_matrix`),
each with its share of the best pass.  None of them calls another, so
their shares add; the metric and Ricci oracles of a block share one
stack of jets, which the first to run builds.  An indented "of which"
line under `_write_table` gives the part of it spent rendering the cells
(`_render_cells`, OF_WHICH); the rest is the header, the row prefixes
and the file.  It is not among the shares that add.  The first pass pays the imports and
caches of the process, which the benchmark's fresh interpreters pay too;
best-of-k leaves them out.  So the cold start is timed apart, in
`--repeats` fresh interpreters that import the same `hartogs`: the
best-of-k milliseconds of `import numpy`, then of `import hartogs.cli`,
the package's own part, then of `build_parser()`.  Together they are the
span of the benchmark's `setup_s`; like it they compile the package
where no bytecode is cached (as under PYTHONDONTWRITEBYTECODE).  Last
it prints the minor page faults of the best pass (`ru_minflt` of
`resource.getrusage`): pages the kernel gave the process again, most of
them freed to it by `free` at the top of the heap and written anew.
Verdicts are not checked here: `perfbench/run.py` does that.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import resource
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

# one BLAS thread, as the benchmark's children run; set before numpy loads
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

from hartogs import cli, curvature, metric  # noqa: E402

#: the functions timed inside a pass, by the name printed, each with the
#: module the CLI looks it up in at call time
TIMED = {
    "sample_interior": cli, "sample_boundary": cli, "_write_table": cli, "parse_args": cli,
    "metric_fd_oracle": metric, "ricci_fd_oracle": curvature, "extremal_jet_oracle": curvature,
    "inverse_metric_matrix": metric,
}
#: functions timed inside a TIMED one, so outside the shares that add: by
#: the name printed, the TIMED function they run in and their module
OF_WHICH = {"_render_cells": ("_write_table", cli)}
#: every function timed, by name, with its module
PATCHED = {**TIMED, **{name: module for name, (_, module) in OF_WHICH.items()}}


#: the cold start, run in a fresh interpreter: it prints the seconds of
#: `import numpy`, of `import hartogs.cli` after it, and of `build_parser()`
COLD_START = """
import time
marks = [time.perf_counter()]
import numpy
marks.append(time.perf_counter())
import hartogs.cli
marks.append(time.perf_counter())
hartogs.cli.build_parser()
marks.append(time.perf_counter())
print(*(b - a for a, b in zip(marks, marks[1:])))
"""


def cold_start(repeats: int) -> list[float]:
    """Best-of-`repeats` seconds of each step of COLD_START, each run in a
    fresh interpreter that imports the `hartogs` this process imported."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    runs = [subprocess.run([sys.executable, "-c", COLD_START], env=env, capture_output=True,
                           text=True, check=True).stdout.split() for _ in range(repeats)]
    return [min(float(run[step]) for run in runs) for step in range(3)]


def _timed(fn, name: str, spent: dict[str, float]):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - start
    return wrapper


@contextlib.contextmanager
def _instrumented(spent: dict[str, float]):
    """The PATCHED functions adding their time to `spent`, on the modules
    the CLI looks them up in at call time."""
    saved = {name: getattr(module, name) for name, module in PATCHED.items()}
    for name, fn in saved.items():
        setattr(PATCHED[name], name, _timed(fn, name, spent))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(PATCHED[name], name, fn)


def run_pass(argvs: list[list[str]]) -> tuple[dict[str, float], dict[str, float], int]:
    """(seconds per subcommand, seconds per PATCHED function, minor page
    faults) of one pass."""
    commands: dict[str, float] = defaultdict(float)
    spent: dict[str, float] = dict.fromkeys(PATCHED, 0.0)
    sink = io.StringIO()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with _instrumented(spent), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in argvs:
            start = time.perf_counter()
            cli.main(argv)
            commands[argv[0]] += time.perf_counter() - start
    return commands, spent, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        argvs = [[os.path.join(tmp, f"inv{i}.csv") if a == workloads.OUT else a for a in inv.argv]
                 for i, inv in enumerate(workloads.build(args.workload, args.seed))]
        passes = [run_pass(argvs) for _ in range(args.repeats)]
    best_pass, faults = min((sum(commands.values()), faults) for commands, _, faults in passes)
    print(f"{args.workload} seed {args.seed}: {len(argvs)} invocations, "
          f"best of {args.repeats} passes, ms")
    for name in dict.fromkeys(argv[0] for argv in argvs):
        print(f"  {name:<24} {1e3 * min(c[name] for c, _, _ in passes):9.3f}")
    print(f"  {'pass':<24} {1e3 * best_pass:9.3f}")
    print("inside the pass, ms and share of the best pass")
    for name in TIMED:
        best = min(spent[name] for _, spent, _ in passes)
        print(f"  {name:<24} {1e3 * best:9.3f}  {best / best_pass:6.1%}")
        for inner in (k for k, (outer, _) in OF_WHICH.items() if outer == name):
            best = min(spent[inner] for _, spent, _ in passes)
            print(f"  {'  of which ' + inner:<24} {1e3 * best:9.3f}  {best / best_pass:6.1%}")
    numpy_s, package_s, parser_s = cold_start(args.repeats)
    print(f"cold start, best of {args.repeats} fresh interpreters, ms: numpy {1e3 * numpy_s:.3f}, "
          f"hartogs.cli {1e3 * package_s:.3f}, build_parser {1e3 * parser_s:.3f}")
    print(f"minor page faults of the best pass: {faults}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
