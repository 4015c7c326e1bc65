"""Workload invocation lists and the table of expected verdicts.

A workload is a list of `hartogs` CLI invocations over the four CLI
families.  The benchmark seed draws every invocation's `--seed` and is the
only way it reaches the program.  Each invocation carries the verdict the
rigidity theorem predicts for it; `check` compares a captured run against
that prediction, and `known_defect` names the two predictions the package
misses today, so they count as failed without being mistaken for a new
regression.

Why these workloads (shares of a traced pass, inclusive):

* `scan` isolates the closed-form path: `curvature-scan` plus
  `extremal-residual` at n = 4.  `canonical.extremal_residual` takes ~71%,
  the sampler ~15%, and the FD Hessian oracles never run, so a change to
  the oracles should leave it flat.
* `verify` isolates the FD oracles: `verify-theorems` at n = 3, where
  `metric_fd_oracle` and `ricci_fd_oracle` take ~35% each, plus
  `soliton-check` with `--sweep` and with a Killing field, which run the
  first-derivative stencils.  The sampler is ~2%.
* `highdim` sits at the top of the advertised range 2 <= n <= 8: the
  rejection sampler takes ~94% (it exhausts its budget at n = 8), beside
  boundary sampling and the restricted Levi form.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
from dataclasses import dataclass

FAMILIES = ("powercap:2", "affine:1,1", "expdecay:1", "rational")

#: the diagonal rotation field in dimension 2, a Killing field of every
#: profile metric
ROTATION_FIELD = "0,1:1,0|0,1:0,1"

#: two-tier residual thresholds of the package's classification checks
PASS_ZERO = 1e-8
FAIL_FLOOR = 1e-3

#: placeholder in a `curvature-scan` argv, replaced by a per-pass CSV path
OUT = "{out}"


@dataclass(frozen=True)
class KnownDefect:
    """A prediction the package misses today, and the output it gives instead."""

    reason: str
    pattern: str


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    known_defect: KnownDefect | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, name: str, default: str | None = None) -> str | None:
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return default

    @property
    def n(self) -> int:
        return int(self.option("--n", "2"))

    @property
    def samples(self) -> int:
        """Points the invocation asks for; 0 for grid scans."""
        return int(self.option("--samples", "0"))

    @property
    def affine(self) -> bool:
        return self.option("--profile").startswith("affine")

    @property
    def writes_csv(self) -> bool:
        return OUT in self.argv


@dataclass(frozen=True)
class Outcome:
    """What one invocation returned: exit code (None if it raised), the
    captured streams, and the CSV it wrote, if any."""

    rc: int | None
    stdout: str
    stderr: str
    csv_text: str | None = None


ROTATION_DEFECT = KnownDefect(
    "the rotation field is Killing, but the Lie-derivative stencil leaves a "
    "residual near 1e-7 above the 1e-8 tolerance",
    r"max residual \S+ \(tol [^)]+\) -> FAIL",
)

SAMPLER_DEFECT = KnownDefect(
    "the rejection sampler accepts with probability ~1/(n-1)! and exhausts "
    "its attempt budget at n = 8",
    r"no interior point with margin >= \S+ found in \d+ attempts",
)


def _argv(command: str, profile: str, n: int, samples: int, seed: int, *extra: str):
    return (
        command, "--profile", profile, "--n", str(n),
        "--samples", str(samples), "--seed", str(seed), *extra,
    )


def build(name: str, seed: int) -> list[Invocation]:
    """The invocation list of workload `name`; the same seed gives the same list."""
    rng = random.Random(f"{name}:{seed}")

    def draw() -> int:
        return rng.randrange(2**31)

    invocations: list[Invocation] = []
    if name == "scan":
        for fam in FAMILIES:
            invocations.append(Invocation(_argv("curvature-scan", fam, 4, 250, draw(), "--out", OUT)))
            invocations.append(Invocation(_argv("extremal-residual", fam, 4, 250, draw())))
    elif name == "verify":
        for fam in FAMILIES:
            affine = fam.startswith("affine")
            invocations.append(Invocation(_argv("verify-theorems", fam, 3, 80, draw())))
            invocations.append(Invocation(_argv("soliton-check", fam, 2, 40, draw(), "--sweep")))
            invocations.append(
                Invocation(
                    _argv("soliton-check", fam, 2, 40, draw(), "--field", ROTATION_FIELD),
                    ROTATION_DEFECT if affine else None,
                )
            )
    elif name == "highdim":
        for fam in FAMILIES:
            invocations.append(Invocation(_argv("extremal-residual", fam, 6, 20, draw())))
            # 50 points: the sampler fails whatever the seed (it finds ~15-22
            # in its 100000 draws), so every pass does the same work
            invocations.append(Invocation(_argv("extremal-residual", fam, 8, 50, draw()), SAMPLER_DEFECT))
            invocations.append(Invocation(_argv("levi-scan", fam, 8, 2000, draw())))
            invocations.append(Invocation(("check-pseudoconvex", "--profile", fam, "--grid-size", "2000")))
    else:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
    return invocations


WORKLOADS = ("scan", "verify", "highdim")


def _number(pattern: str, text: str) -> float | None:
    m = re.search(pattern, text, re.MULTILINE)
    return float(m.group(1)) if m else None


def _check_scan_csv(inv: Invocation, text: str | None) -> str | None:
    if text is None:
        return "no CSV written"
    rows = list(csv.DictReader(io.StringIO(text, newline="")))
    if len(rows) != inv.samples:
        return f"{len(rows)} CSV rows, expected {inv.samples}"
    scal_affine = -inv.n * (inv.n + 1)
    big = 0
    for i, row in enumerate(rows):
        values = {k: float(v) for k, v in row.items() if k not in ("profile", "n")}
        if not all(math.isfinite(v) for v in values.values()):
            return f"non-finite cell in row {i}"
        if inv.affine:
            if values["scal"] != scal_affine:
                return f"affine scal {values['scal']!r} != {scal_affine} in row {i}"
            if values["einstein_res"] != 0.0 or values["extremal_res"] != 0.0:
                return f"affine residuals not exactly 0 in row {i}"
        elif values["extremal_res"] >= FAIL_FLOOR:
            big += 1
    if not inv.affine and big < 0.9 * len(rows):
        return f"extremal_res >= {FAIL_FLOOR:g} on only {big}/{len(rows)} rows"
    return None


def _check_extremal(inv: Invocation, out: str) -> str | None:
    top = _number(r"samples, max (\S+),", out)
    if top is None:
        return "no residual summary"
    if inv.affine and top != 0.0:
        return f"affine max residual {top!r} != 0"
    if not inv.affine and not top >= FAIL_FLOOR:
        return f"non-affine max residual {top!r} < {FAIL_FLOOR:g}"
    return None


def _check_soliton(inv: Invocation, out: str) -> str | None:
    want = "PASS" if inv.affine else "FAIL"
    if not re.search(rf"-> {want}$", out, re.MULTILINE):
        return f"soliton verdict is not {want}"
    if "--sweep" in inv.argv:
        floor = _number(r"residual floor (\S+) at", out)
        lam = _number(r"at lam=(\S+)$", out)
        if floor is None or lam is None:
            return "no sweep summary"
        if inv.affine:
            einstein = -(inv.n + 1)
            if not (floor <= PASS_ZERO and abs(lam - einstein) <= 1e-5 * abs(einstein)):
                return f"affine sweep floor {floor!r} at lam={lam!r}, expected 0 at {einstein}"
        elif not floor >= FAIL_FLOOR:
            return f"non-affine sweep floor {floor!r} < {FAIL_FLOOR:g}"
    return None


def _check_verify(inv: Invocation, out: str) -> str | None:
    passed = len(re.findall(r"^PASS ", out, re.MULTILINE))
    if not re.search(rf": all {passed} checks passed$", out, re.MULTILINE) or passed == 0:
        return "verify-theorems did not pass every check"
    return None


def check(inv: Invocation, outcome: Outcome) -> str | None:
    """None when the outcome matches the predicted verdict, else the reason."""
    expected_rc = 1 if inv.command == "soliton-check" and not inv.affine else 0
    if outcome.rc is None:
        return "raised an exception"
    if outcome.rc != expected_rc:
        return f"exit code {outcome.rc}, expected {expected_rc}"
    out = outcome.stdout
    if inv.command == "curvature-scan":
        return _check_scan_csv(inv, outcome.csv_text)
    if inv.command == "extremal-residual":
        return _check_extremal(inv, out)
    if inv.command == "soliton-check":
        return _check_soliton(inv, out)
    if inv.command == "verify-theorems":
        return _check_verify(inv, out)
    if inv.command in ("levi-scan", "check-pseudoconvex"):
        return None if re.search(r"-> PASS$", out, re.MULTILINE) else "verdict is not PASS"
    return f"no expected verdict for {inv.command!r}"


def is_known(inv: Invocation, outcome: Outcome) -> bool:
    """Whether a failed outcome is the invocation's known defect."""
    return inv.known_defect is not None and bool(
        re.search(inv.known_defect.pattern, outcome.stdout + outcome.stderr)
    )
