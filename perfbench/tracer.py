"""Spans and call counts recorded from outside the package.

`Tracer.install` wraps the listed `hartogs` functions in every namespace
where callers look them up (a function imported with `from .metric import
assemble_metric` is a separate binding in the importing module), the
`ComplexStencil` methods on the class, and `det_core` on each profile
family class.  Spanned layers record (id, parent id, invocation id, name,
start, end) in memory; the hot scalar functions only count calls, since a
span per call would cost more than the call.  Self time is a span's
duration minus the durations of its direct children, which nest inside it
because the program is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

#: layer name -> (module, attribute path) of the functions given spans
SPANNED = {
    "profiles.is_strongly_pseudoconvex": ("hartogs.profiles", "is_strongly_pseudoconvex"),
    "metric.sample_interior": ("hartogs.metric", "sample_interior"),
    "metric.assemble_metric": ("hartogs.metric", "assemble_metric"),
    "metric.metric_fd_oracle": ("hartogs.metric", "metric_fd_oracle"),
    "curvature.curvature_at": ("hartogs.curvature", "curvature_at"),
    "curvature.rho_oracle": ("hartogs.curvature", "rho_oracle"),
    "curvature.ricci_fd_oracle": ("hartogs.curvature", "ricci_fd_oracle"),
    "boundary.sample_boundary": ("hartogs.boundary", "sample_boundary"),
    "boundary.restricted_levi_min_eigenvalue": ("hartogs.boundary", "restricted_levi_min_eigenvalue"),
    "canonical.extremal_residual": ("hartogs.canonical", "extremal_residual"),
    "canonical.einstein_residual": ("hartogs.canonical", "einstein_residual"),
    "canonical.soliton_residual": ("hartogs.canonical", "soliton_residual"),
    "canonical.soliton_sweep": ("hartogs.canonical", "soliton_sweep"),
    "canonical.lie_derivative_components": ("hartogs.canonical", "lie_derivative_components"),
    "wirtinger.d_zbar": ("hartogs.wirtinger", "ComplexStencil.d_zbar"),
    "wirtinger.d_pair": ("hartogs.wirtinger", "ComplexStencil.d_pair"),
    "wirtinger.hessian_z_zbar": ("hartogs.wirtinger", "ComplexStencil.hessian_z_zbar"),
}

#: layer name -> (module, attribute path) of the hot scalar functions,
#: counted only; `det_core` is wrapped on every class that defines it
COUNTED = {
    "profiles.eval": ("hartogs.profiles", "Profile.eval"),
    "profiles.det_core": ("hartogs.profiles", "det_core"),
    "metric.contains": ("hartogs.metric", "contains"),
    "metric.kahler_potential": ("hartogs.metric", "kahler_potential"),
    "metric.metric_matrix": ("hartogs.metric", "metric_matrix"),
    "metric.inverse_metric_matrix": ("hartogs.metric", "inverse_metric_matrix"),
    "curvature.curvature_defect": ("hartogs.curvature", "curvature_defect"),
}

#: root span of each invocation, one per subcommand: argument parsing,
#: formatting and CSV writing are its self time
CLI_LAYERS = tuple(
    f"cli.{sub}"
    for sub in (
        "check_pseudoconvex", "curvature_scan", "levi_scan",
        "extremal_residual", "soliton_check", "verify_theorems",
    )
)

SAMPLER = "metric.sample_interior"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, invocation, name, start, end]
        self.stack: list[int] = []
        self.invocation_id = -1
        #: counted layer -> one-element list, the cheapest mutable cell
        self.counts: dict[str, list[int]] = {name: [0] for name in COUNTED}
        self.points_returned = 0
        self.contains_in_sampler = 0

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [len(self.spans), self.stack[-1] if self.stack else None,
                self.invocation_id, name, time.perf_counter(), None]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def invocation(self, name: str):
        """Root span of one CLI invocation; its children share its id."""
        self.invocation_id += 1
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return wrapper

    def sampler(self, name: str, fn):
        """Span that also counts the points returned and the `contains`
        calls made beneath it, for the accept ratio."""
        drawn = self.counts["metric.contains"]
        traced = self.spanned(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = drawn[0]
            try:
                points = traced(*args, **kwargs)
            finally:
                self.contains_in_sampler += drawn[0] - before
            self.points_returned += len(points)
            return points

        return wrapper

    def counted(self, name: str, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function; import `hartogs.cli` first so that
        every module that binds one of them is loaded."""
        import hartogs.cli  # noqa: F401
        import hartogs.profiles

        for name, target in SPANNED.items():
            self._wrap(name, target, self.sampler if name == SAMPLER else self.spanned)
        for name, target in COUNTED.items():
            if target[1] == "det_core":
                for cls in vars(hartogs.profiles).values():
                    if isinstance(cls, type) and issubclass(cls, hartogs.profiles.Profile) \
                            and "det_core" in vars(cls):
                        setattr(cls, "det_core", self.counted(name, vars(cls)["det_core"]))
            else:
                self._wrap(name, target, self.counted)

    @staticmethod
    def _wrap(name: str, target: tuple[str, str], make) -> None:
        module = sys.modules[target[0]]
        *owner_path, attr = target[1].split(".")
        if owner_path:
            cls = getattr(module, owner_path[0])
            setattr(cls, attr, make(name, vars(cls)[attr]))
            return
        original = getattr(module, attr)
        wrapper = make(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "hartogs" or mod_name.startswith("hartogs."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Per layer: calls, self seconds and inclusive seconds (outermost
        spans of a name only), plus the call counts and sampler yield."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] is not None:
                child_time[span[1]] += span[5] - span[4]
        layers: dict[str, dict] = {}
        for span in self.spans:
            dur = span[5] - span[4]
            entry = layers.setdefault(span[3], {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += dur - child_time[span[0]]
            if not self._has_ancestor_named(span):
                entry["total_s"] += dur
        return {
            "layers": layers,
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "contains_in_sampler": self.contains_in_sampler,
            "points_returned": self.points_returned,
        }

    def _has_ancestor_named(self, span: list) -> bool:
        parent = span[1]
        while parent is not None:
            if self.spans[parent][3] == span[3]:
                return True
            parent = self.spans[parent][1]
        return False

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, inv, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "invocation": inv,
                                     "name": name, "start": start, "end": end}) + "\n")
