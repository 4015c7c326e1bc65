"""Mutation runs: does each named fault fail the tests that should catch it?

    python3 tools/mutants.py                 # every mutant, its named tests
    python3 tools/mutants.py --full          # and the full tier-1 per mutant
    python3 tools/mutants.py --only a-times-0 seed-fold-from-0

MUTANTS is the table.  Each mutant names a file of the checkout, an exact
old text, which must occur there exactly once, the new text put in its
place, and the pytest ids that must fail with it in place; an id without
a `[...]` part stands for its every parametrized case, and fails if any
one of them does.  The tool copies the checkout (without `.git` and the
caches) into a temporary directory, applies one mutant at a time to the
copy, restores the file after it, and runs pytest there on the mutant's
ids, with `--full` on the whole tier-1 too, less the cases of
`tests/test_mutants.py::test_old_text_occurs_once` that fail only because
the mutant is in place (`own_cases`).  It prints, per mutant,
`killed` when every named id failed, else `survived` with the ids that
did not, and the failing tests either way; it exits 1 if any mutant
survived.  The checkout is only read.  Standard library only.

A survivor is a gap in the tests: keep it in the table, and add the test
that kills it.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


CURVATURE = "src/hartogs/curvature.py"
METRIC = "src/hartogs/metric.py"
CLI = "src/hartogs/cli.py"
CANONICAL = "src/hartogs/canonical.py"
TOP_PARSER = "tests/test_cli.py::test_subcommand_parser_as_top_parser"
CHECKS = "tests/test_cli.py::TestVerifyTheorems"
A_TERM = "a = (d1 * slope + f * slope_d1) / core"
B_TERM = "b = (x * d1 * slope_d1 + (d1 + x * d2) * slope) / core"
#: the tests that see the gradient field's z_0 part
Z0_PART = ("tests/test_curvature.py::test_gradient_field_matches_inverse_metric",
           "tests/test_curvature.py::test_t_zbar_matches_reference",
           "tests/test_curvature.py::test_probe_exercises_the_z0_part")
#: the tests that see the derivative block of the gradient field
DBAR = ("tests/test_curvature.py::test_t_zbar_matches_reference",
        "tests/test_curvature.py::test_probe_exercises_the_z0_part",
        "tests/test_canonical.py::TestExtremalResidual::test_independent_of_stencil",
        "tests/test_wirtinger.py::test_extremal_oracle_is_d_zbar_per_coordinate")
#: the ids of `test_doctored_quantity_fails_its_checks`, by quantity
DOCTORED = {q: f"{CHECKS}::test_doctored_quantity_fails_its_checks[{q}]"
            for q in ("det", "inverse", "tail", "rho", "extremal")}
#: the verify-theorems oracles each called once per block
ONCE = "tests/test_stacking.py::test_verification_calls_each_oracle_once_per_block"
#: the samplers' draws against the reference streams
DRAWS = ("tests/test_metric.py::TestSampling::test_draws_match_reference",
         "tests/test_boundary.py::TestSampling::test_draws_match_reference")

MUTANTS = (
    # the radial functions A and B of the gradient field T
    Mutant("a-times-0", CURVATURE, A_TERM, "a = 0.0 * (d1 * slope + f * slope_d1) / core",
           Z0_PART),
    Mutant("a-times-2", CURVATURE, A_TERM, "a = 2.0 * (d1 * slope + f * slope_d1) / core",
           Z0_PART),
    Mutant("b-times-2", CURVATURE, B_TERM,
           "b = 2.0 * (x * d1 * slope_d1 + (d1 + x * d2) * slope) / core",
           ("tests/test_canonical.py::TestExtremalResidual::test_matches_jet_oracle_over_range",
            "tests/test_canonical.py::TestExtremalResidual::test_powercap_pinned_point",
            "tests/test_curvature.py::test_t_zbar_matches_reference")),
    Mutant("jacobian-max-weights-swapped", CURVATURE,
           "np.stack([p.x, np.max(fiber, axis=-1)], axis=-1)",
           "np.stack([np.max(fiber, axis=-1), p.x], axis=-1)",
           ("tests/test_canonical.py::TestExtremalResidual::test_powercap_pinned_point",
            "tests/test_curvature.py::test_t_zbar_matches_reference")),
    # the chain rule through gap in the derivative block
    Mutant("dbar-gap-slope-halved", CURVATURE, "2.0 * gap * s)", "gap * s)",
           (*DBAR, "tests/test_canonical.py::TestExtremalResidual::test_powercap_pinned_point")),
    Mutant("dbar-gap-squared-as-gap", CURVATURE, "(gap * gap * s_d1,", "(gap * s_d1,",
           (*DBAR,
            "tests/test_canonical.py::TestExtremalResidual::test_matches_jet_oracle_over_range")),
    # the sampler
    Mutant("landing-takes-last-attempt", METRIC,
           "np.arange(0, hit.size, count) + np.argmax(hit, axis=1)",
           "np.arange(0, hit.size, count) + (count - 1 - np.argmax(hit[:, ::-1], axis=1))",
           ("tests/test_metric.py::TestSampling::test_disk_attempts_redraw_per_slot",
            *DRAWS)),
    # below row 0 the spacings keep the previous row's last square as their lower edge
    Mutant("spacings-drop-lower-edge", METRIC, "    scale[:, 0] = 0.0\n",
           "    scale[0, 0] = 0.0\n",
           ("tests/test_metric.py::TestSampling::test_fiber_uniform_in_ball", *DRAWS)),
    Mutant("seed-fold-from-0", METRIC, "key = len(limbs)", "key = 0",
           ("tests/test_metric.py::TestSeeds",)),
    Mutant("fiber-sum-from-last-column", METRIC,
           "fiber = square[:, 1].copy()\n    for k in range(2, square.shape[1]):",
           "fiber = square[:, -1].copy()\n    for k in range(square.shape[1] - 2, 0, -1):",
           ("tests/test_metric.py::TestContains::test_fiber_norm_summed_in_coordinate_order",
            "tests/test_metric.py::TestContains::test_fiber_sum_has_the_cumsum_bits")),
    # immutable values
    Mutant("profile-eq-without-class-check", "src/hartogs/profiles.py",
           "        if type(other) is not type(self):\n            return NotImplemented\n"
           "        return self._values() == other._values()",
           "        return self._values() == other._values()",
           ("tests/test_profiles.py::test_families_differ_with_equal_values",)),
    Mutant("frozen-without-setattr", "src/hartogs/errors.py",
           "    def __setattr__(self, name, value):\n"
           "        raise AttributeError(f\"cannot assign to field {name!r}\")\n\n", "",
           ("tests/test_profiles.py::test_family_is_an_immutable_value",
            "tests/test_metric.py::test_records_are_immutable_and_replace_one_field")),
    # the gates of the verify-theorems checks
    Mutant("bound-gate-strict", CLI, "worst <= self.tol", "worst < self.tol",
           (f"{CHECKS}::test_gates_hold_at_tol[False]",)),
    Mutant("obstruction-hit-strict", CLI, "values >= self.tol", "values > self.tol",
           (f"{CHECKS}::test_gates_hold_at_tol[True]",)),
    Mutant("obstruction-share-strict", CLI, "hits / len(values) >= OBSTRUCTION_SHARE",
           "hits / len(values) > OBSTRUCTION_SHARE",
           (f"{CHECKS}::test_obstruction_share_rounds_down[180-True-90]",)),
    Mutant("obstruction-share-rounded", CLI, "100 * hits // len(values)",
           "round(100 * hits / len(values))",
           (f"{CHECKS}::test_obstruction_share_rounds_down[179-False-89]",
            f"{CHECKS}::test_obstruction_share_rounds_down[199-True-99]")),
    # each verify-theorems measure blind, or reading the wrong quantity
    Mutant("metric-oracle-against-itself", CLI,
           "m.h - metric.metric_fd_oracle(prof, p), m.h)",
           "metric.metric_fd_oracle(prof, p) - metric.metric_fd_oracle(prof, p), m.h)",
           (f"{CHECKS}::test_doctored_point_fails_oracle_checks[metric]", ONCE)),
    Mutant("determinant-against-itself", CLI, "np.abs(m.det - np.linalg.det(m.h).real)",
           "np.abs(m.det - m.det)", (DOCTORED["det"],)),
    Mutant("inverse-identity-on-dense-inverse", CLI,
           "m.h @ metric.inverse_metric_matrix(p) - np.eye(p.n)",
           "m.h @ np.linalg.inv(m.h) - np.eye(p.n)", (DOCTORED["inverse"],)),
    Mutant("ricci-oracle-against-itself", CLI,
           "d.ric - curvature.ricci_fd_oracle(prof, p), d.ric)",
           "curvature.ricci_fd_oracle(prof, p) - curvature.ricci_fd_oracle(prof, p), d.ric)",
           (f"{CHECKS}::test_doctored_point_fails_oracle_checks[defect]", DOCTORED["tail"], ONCE)),
    Mutant("tail-rows-against-themselves", CLI,
           "np.abs(d.ric[:, 1:] + (p.n + 1) * m.h[:, 1:])", "np.abs(d.ric[:, 1:] - d.ric[:, 1:])",
           (DOCTORED["tail"],)),
    Mutant("rho-against-itself", CLI, "_rel_max(d.rho, curvature.rho_oracle(m, d.ric))",
           "_rel_max(d.rho, d.rho)",
           (DOCTORED["rho"], DOCTORED["tail"],
            "tests/test_census.py::test_doctored_oracle_flips_a_verdict")),
    Mutant("scal-forms-without-trace-form", CLI,
           "np.maximum(np.abs(data.scal - trace_form), np.abs(data.scal - slope_form))",
           "np.abs(data.scal - slope_form)",
           (f"{CHECKS}::test_doctored_assembly_fails_scal_forms", DOCTORED["inverse"],
            DOCTORED["tail"])),
    Mutant("extremal-oracle-against-itself", CLI,
           "d.dbar - curvature.extremal_jet_oracle(prof, p)",
           "curvature.extremal_jet_oracle(prof, p) - curvature.extremal_jet_oracle(prof, p)",
           (f"{CHECKS}::test_doctored_slope_d2_fails_extremal_vs_jet",
            f"{CHECKS}::test_doctored_third_derivative_fails_extremal_vs_jet", ONCE)),
    Mutant("extremal-classification-reads-0", CLI, "lambda prof, p, m, d: d.extremal),",
           "lambda prof, p, m, d: 0.0 * d.extremal),",
           (DOCTORED["extremal"], f"{CHECKS}::test_powercap_n2")),
    Mutant("einstein-classification-reads-0", CLI, "frobenius_norm(d.ric + (p.n + 1) * m.h)",
           "0.0 * frobenius_norm(d.ric + (p.n + 1) * m.h)",
           (DOCTORED["tail"], f"{CHECKS}::test_powercap_n2")),
    Mutant("pullback-parameters-swapped", CLI, "canonical.pullback_check(prof.c1, prof.c2, p)",
           "canonical.pullback_check(prof.c2, prof.c1, p)", (f"{CHECKS}::test_affine_2_3_n3",)),
    Mutant("pullback-against-itself", CANONICAL, "relative_norm(pulled - h_src, h_src)",
           "relative_norm(h_src - h_src, h_src)",
           ("tests/test_canonical.py::TestPullback::test_wrong_parameters_detected",)),
    # the assembly refuses a singular record, as the inverse it no longer forms would
    Mutant("assembly-without-singularity-check", METRIC,
           "det = nonsingular_core(p.det_core, p.x) / np.float_power",
           "det = p.det_core / np.float_power",
           ("tests/test_metric.py::TestAssembly::test_singular_profile_rejected",)),
    # the plain argv reader
    Mutant("plain-value-may-start-with-dash", CLI,
           "        if text.startswith(\"-\"):\n            return None\n", "",
           (f"{TOP_PARSER}[check-pseudoconvex---tol -1e3]",)),
    Mutant("plain-required-not-checked", CLI,
           "return None if required - seen else argparse.Namespace(**values)",
           "return argparse.Namespace(**values)",
           ("tests/test_cli.py::test_parse_args_equals_top_parser",)),
    Mutant("plain-value-not-converted", CLI,
           "action.type(text) if action.type else text", "text",
           (f"{TOP_PARSER}[curvature-scan---n 1]",)),
    Mutant("plain-without-set-defaults", CLI, "{**sub._defaults, **{a.dest", "{**{a.dest",
           (f"{TOP_PARSER}[check-pseudoconvex-valid]",)),
    Mutant("plain-without-command", CLI, '{**defaults, "command": name}', "dict(defaults)",
           (f"{TOP_PARSER}[check-pseudoconvex-valid]",)),
    Mutant("plain-flag-takes-a-value", CLI, "if action.nargs == 0:", "if action.nargs == 1:",
           ("tests/test_cli.py::test_benchmark_argvs_parse_without_argparse",)),
    Mutant("plain-unknown-token-skipped", CLI,
           "        if action is None:\n            return None\n",
           "        if action is None:\n            continue\n",
           (f"{TOP_PARSER}[check-pseudoconvex--h]",)),
    # the CSV renderer: each fault changes the bytes of some cell
    Mutant("cell-ties-rounded-half-up", CLI, "np.rint(lo).astype(np.int64)",
           "np.floor(lo + 0.5).astype(np.int64)",
           ("tests/test_cli.py::test_write_table_rounds_exact_ties_to_even",)),
    Mutant("cell-exponent-not-corrected", CLI,
           "    k += high\n    k -= low\n    digits[redo] = _digits17(a[redo], k[redo])\n", "",
           ("tests/test_cli.py::test_write_table_at_powers_of_ten",)),
    Mutant("cell-point-kept-on-integers", CLI,
           "run[:, 4 + e] = (chars[:, 4 + e] != 0) * np.uint8(46)", "run[:, 4 + e] = 46",
           ("tests/test_cli.py::test_write_table_at_powers_of_ten",)),
    Mutant("cell-sign-dropped-below-one", CLI,
           "slots[:, 2] = np.signbit(v[order]) * np.uint8(45)",
           "slots[:, 2] = (np.signbit(v[order]) & (k[order] >= 0)) * np.uint8(45)",
           ("tests/test_cli.py::test_write_table_at_powers_of_ten",)),
    Mutant("cell-integer-zeros-dropped", CLI,
           "np.bitwise_or(chars[:, 3:4 + e], 48, out=run[:, 3:4 + e])",
           "run[:, 3:4 + e] = chars[:, 3:4 + e]",
           ("tests/test_cli.py::test_write_table_at_powers_of_ten",)),
    # the CSV file: written in place over what the path held
    Mutant("out-tail-kept", CLI,
           "        if stat.S_ISREG(os.fstat(fd).st_mode):\n            fh.truncate()\n", "",
           ("tests/test_cli.py::test_out_overwritten_in_place",)),
    Mutant("out-truncated-unless-regular", CLI, "if stat.S_ISREG(os.fstat(fd).st_mode):",
           "if True:", ("tests/test_cli.py::TestCurvatureScan::test_out_to_dev_null",)),
    Mutant("out-mode-default", CLI, 'getattr(os, "O_BINARY", 0), 0o666)',
           'getattr(os, "O_BINARY", 0))',
           ("tests/test_cli.py::TestCurvatureScan::test_new_csv_mode_as_open",)),
    # options the plain reader could not read as they are
    Mutant("dimension-with-choices", CLI,
           'type=_dimension, default=2,', 'type=_dimension, choices=range(2, 65), default=2,',
           ("tests/test_cli.py::test_subparsers_take_plain_actions",)),
    Mutant("seed-with-optional-value", CLI,
           'type=_seed, default=0)', 'type=_seed, default=0, nargs="?")',
           ("tests/test_cli.py::test_subparsers_take_plain_actions",)),
)


def pytest_run(copy: Path, ids) -> tuple[set[str], float]:
    """(ids of the failing tests, seconds) of one pytest run in `copy`."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", *ids],
        cwd=copy, env=env, capture_output=True, text=True)
    failed = {line.split(" ", 1)[1].split(" - ", 1)[0] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))}
    return failed, time.perf_counter() - start


def caught(test: str, failed: set[str]) -> bool:
    """Whether `test`, or a case of it, is among the failing ids."""
    return any(f == test or f.startswith((test + "[", test + "::")) for f in failed)


def own_cases(m: Mutant, mutated: str) -> list[str]:
    """pytest options that deselect the cases of `tests/test_mutants.py`
    that fail because `m` is applied: `test_old_text_occurs_once` of each
    mutant of m's file whose old text no longer occurs once in it."""
    return [f"--deselect=tests/test_mutants.py::test_old_text_occurs_once[{o.name}]"
            for o in MUTANTS if o.path == m.path and mutated.count(o.old) != 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--full", action="store_true", help="also run the full tier-1")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run these mutants alone")
    args = parser.parse_args(argv)
    table = {m.name: m for m in MUTANTS}
    unknown = set(args.only or ()) - set(table)
    if unknown:
        parser.error(f"no mutant named {', '.join(sorted(unknown))}")
    chosen = [table[name] for name in args.only] if args.only else MUTANTS
    survivors = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench"))
        for m in chosen:
            target = copy / m.path
            original = target.read_text(encoding="utf-8")
            if original.count(m.old) != 1:
                raise SystemExit(f"error: {m.name}: the old text occurs "
                                 f"{original.count(m.old)} times in {m.path}")
            mutated = original.replace(m.old, m.new)
            target.write_text(mutated, encoding="utf-8")
            try:
                failed, seconds = pytest_run(copy, m.tests)
                missed = [t for t in m.tests if not caught(t, failed)]
                full = pytest_run(copy, own_cases(m, mutated)) if args.full else None
            finally:
                target.write_text(original, encoding="utf-8")
            print(f"{'survived' if missed else 'killed'}  {m.name}  "
                  f"({len(failed)} cases failed, {seconds:.1f} s)")
            for t in missed:
                print(f"    not failed: {t}")
            for f in sorted(failed):
                print(f"    failed: {f}")
            if full is not None:
                files = Counter(f.split("::", 1)[0] for f in full[0])
                print(f"    full tier-1: {len(full[0])} failed ({full[1]:.1f} s)"
                      + "".join(f", {count} in {file}" for file, count in sorted(files.items())))
            if missed:
                survivors.append(m.name)
    print(f"{len(survivors)} of {len(chosen)} mutants survived in "
          f"{time.perf_counter() - start:.0f} s"
          + (f": {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
