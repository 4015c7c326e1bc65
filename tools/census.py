"""Output census: every CLI run of a fixed grid, as digests or in full.

The grid is seven profiles x n = 2, 3, 5, 8 x seeds 0 and 1, and for each
`curvature-scan --out`, `extremal-residual` with and without `--out`,
`levi-scan --out`, `verify-theorems` at the default margin and at
`--min-margin 1e-3`, the bottom of the advertised margin range, where
the metric's derivatives steepen like powers of 1/gap, `soliton-check
--sweep` and `soliton-check --field` with the diagonal rotation field,
all at SAMPLES samples; and `check-pseudoconvex` once per profile, which
takes no dimension, seed or sample count.  The runs call
`hartogs.cli.main` in this process, one after another; the grid takes
about 4 s on one core of a 2-vCPU machine.

Three modes:

* no arguments: one sha256 per run over its exit code, stdout, stderr and
  CSV bytes, then a total.  Two checkouts that print the same digests
  give the same output on every run of the grid:

      PYTHONPATH=src python3 tools/census.py > new.txt
      PYTHONPATH=/path/to/other/checkout/src python3 tools/census.py > old.txt
      diff old.txt new.txt

* `--save DIR`: each run's exit code, stdout, stderr and CSV, one JSON
  object a line, in DIR/runs.jsonl.
* `--compare OLD NEW`: two saved censuses, run by run.  It prints every
  change of exit code, of the PASS/FAIL tokens and of the text around
  the numbers, and exits 1 if there is any; then, for each subcommand and
  column, the count of changed numeric cells and the largest relative and
  the largest absolute change.  A stdout or stderr column is a line with
  its numbers masked (`#`), the counted one marked `[#]`; a CSV column is
  `csv:` and its header.  A relative change is |new - old| / |old|, inf
  where old is 0, and an absolute one |new - old|; both are inf where
  either side is NaN.  The absolute column keeps a change of a
  large value readable where rounding-level values in the same column
  swamp the relative one.

      PYTHONPATH=/path/to/old/checkout/src python3 tools/census.py --save old
      PYTHONPATH=src python3 tools/census.py --save new
      PYTHONPATH=src python3 tools/census.py --compare old new
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
from collections import defaultdict

from hartogs.cli import main

#: powercap:1.001, close to affine, puts the obstruction shares of
#: `verify-theorems` below 100%, so that `--compare` sees how they move
PROFILES = ("affine:1,1", "affine:2,3", "powercap:2", "powercap:0.5", "expdecay:1", "rational",
            "powercap:1.001")
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

#: a number standing alone in printed text, not a digit inside a name
NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?![\w.])"
)
VERDICT = re.compile(r"\b(?:PASS|FAIL)\b")


def rotation_field(n: int) -> str:
    """The diagonal rotation field i z_k d/dz_k in `--field` syntax:
    `0,1:1,0,0|0,1:0,1,0|0,1:0,0,1` at n = 3."""
    return "|".join("0,1:" + ",".join("1" if j == k else "0" for j in range(n))
                    for k in range(n))


def runs():
    for profile in PROFILES:
        yield ["check-pseudoconvex", "--profile", profile]
        for n in DIMENSIONS:
            for seed in SEEDS:
                for command, *extra in COMMANDS:
                    extra = [rotation_field(n) if a == "{field}" else a for a in extra]
                    yield [command, "--profile", profile, "--n", str(n), "--seed", str(seed),
                           "--samples", str(SAMPLES), *extra]


def captured():
    """(name, exit code, stdout, stderr, CSV bytes or None) of each run of
    the grid, in order; the name is the command line without the CSV path,
    and the path reads OUT in the printed text."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out.csv")
        for argv in runs():
            argv = [out_path if a == "{out}" else a for a in argv]
            if os.path.exists(out_path):
                os.remove(out_path)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            table = None
            if os.path.exists(out_path):
                with open(out_path, "rb") as fh:
                    table = fh.read()
            # the CSV path lies in a fresh temporary directory on every census
            yield (" ".join(a for a in argv if a != out_path), code,
                   stdout.getvalue().replace(out_path, "OUT"),
                   stderr.getvalue().replace(out_path, "OUT"), table)


def census() -> int:
    """Print one sha256 per run over its exit code, stdout, stderr and CSV,
    then a sha256 over those lines."""
    total = hashlib.sha256()
    for name, code, stdout, stderr, table in captured():
        h = hashlib.sha256()
        for part in (str(code), stdout, stderr):
            h.update(part.encode())
            h.update(b"\0")
        if table is not None:
            h.update(table)
        line = f"{h.hexdigest()}  {name}"
        print(line)
        total.update(line.encode() + b"\n")
    print(f"{total.hexdigest()}  total")
    return 0


def save(directory: str) -> int:
    """Write each run of the grid to DIR/runs.jsonl."""
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "runs.jsonl"), "w") as fh:
        for name, code, stdout, stderr, table in captured():
            record = {"run": name, "code": code, "stdout": stdout, "stderr": stderr,
                      "csv": None if table is None else table.decode()}
            fh.write(json.dumps(record) + "\n")
    return 0


def load(directory: str) -> dict:
    with open(os.path.join(directory, "runs.jsonl")) as fh:
        return {r["run"]: r for r in map(json.loads, fh)}


def change(old: str, new: str) -> tuple[float, float]:
    """(relative, absolute) change from old to new, as the module docstring
    defines them."""
    a, b = float(old), float(new)
    if a == b:
        return 0.0, 0.0
    if math.isnan(a) or math.isnan(b):
        return math.inf, math.inf
    absolute = abs(b - a)
    return (math.inf if a == 0.0 else absolute / abs(a)), absolute


def text_cells(text: str, label: str):
    """(masked line, [(column, number)]) for each line of printed text; the
    profile label reads {profile} and the verdict tokens are dropped from
    the column names."""
    for line in text.replace(label, "{profile}").splitlines():
        numbers = NUMBER.findall(line)
        masked = NUMBER.sub("#", line)
        parts = " ".join(VERDICT.sub("", masked).split()).split("#")
        columns = ["#".join(parts[:i + 1]) + "[#]" + "#".join(parts[i + 1:])
                   for i in range(len(numbers))]
        yield masked, list(zip(columns, numbers))


def csv_cells(table: str):
    """(row of texts, [(column, number)]) for each row of a CSV; the header
    row and the non-numeric cells are text."""
    rows = list(csv.reader(io.StringIO(table)))
    header = rows[0] if rows else []
    for i, row in enumerate(rows):
        numeric = [i > 0 and NUMBER.fullmatch(cell) is not None for cell in row]
        yield ([c for c, num in zip(row, numeric) if not num],
               [(f"csv:{header[j]}", c) for j, (c, num) in enumerate(zip(row, numeric)) if num])


def compare(old_dir: str, new_dir: str) -> int:
    """Print the changes from the census saved in OLD to the one in NEW;
    1 if an exit code, a verdict or any text changed, else 0."""
    old, new = load(old_dir), load(new_dir)
    faults: list[str] = []
    # (subcommand, column) -> [cells, changed cells, largest relative change,
    # largest absolute change]
    columns: dict = defaultdict(lambda: [0, 0, 0.0, 0.0])
    for name in sorted(old.keys() - new.keys()):
        faults.append(f"run missing from NEW: {name}")
    for name in sorted(new.keys() - old.keys()):
        faults.append(f"run missing from OLD: {name}")
    for name in (n for n in old if n in new):
        a, b = old[name], new[name]
        command, label = name.split()[0], name.split()[2]
        if a["code"] != b["code"]:
            faults.append(f"exit code {a['code']} -> {b['code']}: {name}")
        for stream in ("stdout", "stderr", "csv"):
            if (a[stream] is None) != (b[stream] is None):
                faults.append(f"{stream} written on one side only: {name}")
                continue
            if a[stream] is None:
                continue
            if stream != "csv" and VERDICT.findall(a[stream]) != VERDICT.findall(b[stream]):
                faults.append(f"verdict {VERDICT.findall(a[stream])} -> "
                              f"{VERDICT.findall(b[stream])}: {name}")
            cells = csv_cells if stream == "csv" else lambda t: text_cells(t, label)
            lines_a, lines_b = list(cells(a[stream])), list(cells(b[stream]))
            if len(lines_a) != len(lines_b):
                faults.append(f"{stream} has {len(lines_a)} -> {len(lines_b)} lines: {name}")
                continue
            for (text_a, nums_a), (text_b, nums_b) in zip(lines_a, lines_b):
                if text_a != text_b:
                    faults.append(f"{stream} text {text_a!r} -> {text_b!r}: {name}")
                    continue
                for (column, x), (_, y) in zip(nums_a, nums_b):
                    entry = columns[command, column]
                    entry[0] += 1
                    if x != y:
                        entry[1] += 1
                        relative, absolute = change(x, y)
                        entry[2] = max(entry[2], relative)
                        entry[3] = max(entry[3], absolute)
    for fault in faults:
        print(fault)
    print(f"{len(old)} -> {len(new)} runs; {len(faults)} changes of exit code, verdict or text")
    print("subcommand\tcolumn\tchanged cells\tcells\tlargest relative change"
          "\tlargest absolute change")
    for (command, column), (cells, changed, relative, absolute) in sorted(columns.items()):
        print(f"{command}\t{column}\t{changed}\t{cells}\t{relative:.3g}\t{absolute:.3g}")
    return 1 if faults else 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--save", metavar="DIR", help="write every run to DIR/runs.jsonl")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                      help="compare two saved censuses")
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    if args.save:
        sys.exit(save(args.save))
    sys.exit(compare(*args.compare) if args.compare else census())
