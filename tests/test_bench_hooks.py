"""The benchmark's hooks still resolve against the package.

`perfbench/tracer.py` wraps package functions by name and
`perfbench/layers.py` calls them with fixed signatures, so a rename or a
signature change in the package breaks `perfbench/run.py --trace 1`.  This
installs the tracer and runs every layer call on one n = 2 point, and
`verify-theorems` on two, in a child interpreter because the tracer
rewraps the package's functions for the life of the process.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import tracer

trace = tracer.Tracer()
trace.install()

import hartogs
import layers

profile = hartogs.parse_profile(layers.PROFILE)
p = layers.ball_points(profile, 2, 1, seed=3)[0]
b = hartogs.sample_boundary(profile, 2, 1, 3)[0]
point = layers.Prepared(profile, p, b)
for call in layers.CALLS.values():
    call(profile, point)
hartogs.sample_interior(profile, 2, 1, 3)
# the closed-form inverse is formed only by the checks of verify-theorems
hartogs.cli.run_verification(profile, 2, 2, 3)

summary = trace.summary()
unspanned = sorted(set(layers.CALLS) - set(summary["layers"]))
uncounted = sorted(name for name, calls in summary["counts"].items() if calls == 0)
print(unspanned, uncounted)
"""


def test_tracer_installs_and_every_layer_call_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] []"
