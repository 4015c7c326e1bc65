"""Output census: one sha256 per CLI run over a fixed grid, and a total.

Two checkouts that print the same digests give the same exit codes, the
same stdout and stderr, and the same CSV bytes on every run of the grid:

    PYTHONPATH=src python3 tools/census.py > new.txt
    PYTHONPATH=/path/to/other/checkout/src python3 tools/census.py > old.txt
    diff old.txt new.txt

The grid is six profiles x n = 2, 3, 5, 8 x seeds 0 and 1, and for each
`curvature-scan --out`, `extremal-residual` with and without `--out`,
`levi-scan --out`, `verify-theorems` at the default margin and at
`--min-margin 1e-3`, where the extremal oracle's stencil steps are
smallest, `soliton-check --sweep` and `soliton-check --field` with the
diagonal rotation field, all at SAMPLES samples; and `check-pseudoconvex`
once per profile, which takes no dimension, seed or sample count.  The
runs call `hartogs.cli.main` in this process, one after another; the
grid takes about 10 s on one core of a 2-vCPU machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from hartogs.cli import main

PROFILES = ("affine:1,1", "affine:2,3", "powercap:2", "powercap:0.5", "expdecay:1", "rational")
DIMENSIONS = (2, 3, 5, 8)
SEEDS = (0, 1)
SAMPLES = 300

#: subcommand and extra arguments; "{out}" is replaced by a CSV path and
#: "{field}" by the rotation field at the run's n
COMMANDS = (
    ("curvature-scan", "--out", "{out}"),
    ("extremal-residual",),
    ("extremal-residual", "--out", "{out}"),
    ("levi-scan", "--out", "{out}"),
    ("verify-theorems",),
    ("verify-theorems", "--min-margin", "1e-3"),
    ("soliton-check", "--sweep"),
    ("soliton-check", "--field", "{field}"),
)


def rotation_field(n: int) -> str:
    """The diagonal rotation field i z_k d/dz_k in `--field` syntax:
    `0,1:1,0,0|0,1:0,1,0|0,1:0,0,1` at n = 3."""
    return "|".join("0,1:" + ",".join("1" if j == k else "0" for j in range(n))
                    for k in range(n))


def digest(argv: list[str], out_path: str) -> str:
    """sha256 over the exit code, stdout, stderr and the CSV (if any) of one run."""
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    h = hashlib.sha256()
    for part in (str(code), stdout.getvalue(), stderr.getvalue()):
        # the CSV path lies in a fresh temporary directory on every census
        h.update(part.replace(out_path, "OUT").encode())
        h.update(b"\0")
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def runs():
    for profile in PROFILES:
        yield ["check-pseudoconvex", "--profile", profile]
        for n in DIMENSIONS:
            for seed in SEEDS:
                for command, *extra in COMMANDS:
                    extra = [rotation_field(n) if a == "{field}" else a for a in extra]
                    yield [command, "--profile", profile, "--n", str(n), "--seed", str(seed),
                           "--samples", str(SAMPLES), *extra]


def census() -> int:
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out.csv")
        for argv in runs():
            argv = [out_path if a == "{out}" else a for a in argv]
            line = f"{digest(argv, out_path)}  {' '.join(a for a in argv if a != out_path)}"
            print(line)
            total.update(line.encode() + b"\n")
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(census())
