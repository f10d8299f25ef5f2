"""Spans at acstab's layer boundaries, recorded from outside the package.

Tracer.install() replaces the public functions each acstab module calls
across a layer boundary with wrappers that record one span per call.  That
includes the names a module imported from the layer below (for example
acstab.schemes.newton_solve) and the SciPy linear-solver entry points that
acstab.solvers calls, reached through module views, so SciPy itself is not
modified.  Tracer.uninstall() puts every original back.

A span is (id, parent id, operation id, name, start, end, info); info holds a
small result detail such as a Newton solve's (iterations, converged).  Spans
stay in memory; layer_metrics() reduces one round's spans to the per-layer
metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float
    info: object


class _ModuleView:
    """A module with some attributes replaced; everything else is the module's."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class _TracedLU:
    """A SuperLU factorization whose solve() is traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _newton_info(out):
    return (out[1].iterations, out[1].converged)


def _step_info(out):
    return sum(r.iterations for r in out[1].stage_reports)


def _classify_info(out):
    return len(out.pattern) - 1


def _attempt_info(out):
    return bool(out[1].converged)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.op_root: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None):
        """fn with a span recorded around every call.

        Spans started in a thread with no open span (the CLI's worker pool)
        are parented to the current operation's root span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer.op_root
            sid = next(tracer._ids)
            stack.append(sid)
            out = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = perf_counter()
                stack.pop()
                detail = info(out) if (info is not None and out is not None) else None
                tracer.spans.append(Span(sid, parent, tracer.op, name, start, end, detail))

        return traced

    def run_op(self, op_id: int, fn):
        """Run fn() as operation op_id under a root span named 'bench.op'."""
        sid = next(self._ids)
        self.op, self.op_root = op_id, sid
        start = perf_counter()
        try:
            return fn()
        finally:
            self.spans.append(Span(sid, None, op_id, "bench.op", start, perf_counter(), None))
            self.op = self.op_root = None

    # -- patching --------------------------------------------------------

    def _patch(self, module, attr: str, name: str, info=None) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, info))

    def install(self) -> None:
        import scipy.linalg
        import scipy.sparse.linalg as spla

        import acstab.cli as cli
        import acstab.fields as fields
        import acstab.robustness as robustness
        import acstab.schemes as schemes
        import acstab.solvers as solvers

        p = self._patch
        p(cli, "main", "cli.main", info=lambda code: code)
        # schemes, as called by the benchmark, cli and robustness
        for mod in (schemes, cli):
            p(mod, "simulate", "schemes.simulate")
            p(mod, "step", "schemes.step", _step_info)
        for mod in (cli, robustness):
            p(mod, "scalar_map", "schemes.scalar_map")
        # solvers, as called by schemes, robustness and solvers.homotopy_path
        for mod in (schemes, robustness, solvers):
            p(mod, "newton_solve", "solvers.newton", _newton_info)
        for mod in (schemes, robustness):
            p(mod, "real_cubic_roots", "solvers.real_cubic_roots")
        p(robustness, "homotopy_path", "solvers.homotopy_path")
        for mod in (robustness, solvers):
            self._patch_march(mod)
        # robustness and stability, as called by cli (and robustness itself)
        for attr in ("classify_constant_initial", "preimage_field", "interval_sequence",
                     "perturbation_gain", "dirk_perturbation_gains"):
            p(cli, attr, f"robustness.{attr}",
              _classify_info if attr == "classify_constant_initial" else None)
        for mod in (cli, robustness):
            p(mod, "preimage_constants", "robustness.preimage_constants")
        for attr in ("stability_threshold", "enumerate_bifurcations"):
            p(cli, attr, f"stability.{attr}")
        # fields
        for mod in (fields, schemes, robustness):
            p(mod, "laplacian_matrix", "fields.laplacian_matrix")
        # SciPy linear solvers as acstab.solvers sees them
        w = self.wrap
        orig_splu = spla.splu

        def splu(*args, **kwargs):
            lu = orig_splu(*args, **kwargs)
            return _TracedLU(lu, w("scipy.splu_solve", lu.solve))

        linalg_view = _ModuleView(
            scipy.linalg,
            solve_banded=w("scipy.solve_banded", scipy.linalg.solve_banded),
            lu_factor=w("scipy.lu_factor", scipy.linalg.lu_factor),
            lu_solve=w("scipy.lu_solve", scipy.linalg.lu_solve),
        )
        self._set(solvers, "spla", _ModuleView(spla, splu=w("scipy.splu", splu)))
        self._set(solvers, "scipy", _ModuleView(solvers.scipy, linalg=linalg_view))

    def _set(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _patch_march(self, module) -> None:
        """Trace march_deltas and every solve attempt it makes along the path."""
        original = module.march_deltas
        w = self.wrap

        def march_deltas(solve_at, schedule, adaptive):
            return original(w("solvers.continuation_attempt", solve_at, _attempt_info),
                            schedule, adaptive)

        self._set(module, "march_deltas", w("solvers.march_deltas", march_deltas))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- output ----------------------------------------------------------

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(s.sid, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = (s.end - s.start) - covered
    return out


# Per-layer metrics that are pure counts (or ratios of counts): they repeat
# exactly between rounds of the same inputs.
COUNT_METRICS = (
    "cli.main_calls", "schemes.step_calls", "schemes.newton_iters_per_step",
    "schemes.scalar_map_calls", "solvers.newton_calls", "solvers.newton_iters",
    "solvers.newton_unconverged", "solvers.newton_converged_ratio",
    "solvers.splu_calls", "solvers.banded_calls", "solvers.dense_lu_calls",
    "solvers.cubic_calls", "solvers.continuation_points", "solvers.continuation_attempts",
    "solvers.continuation_useful_ratio", "robustness.classify_calls",
    "robustness.classify_steps", "robustness.preimage_constants_calls",
    "fields.laplacian_matrix_calls",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times (seconds) of one round's spans."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    self_t = _self_times(spans)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(*names):
        return sum(s.end - s.start for n in names for s in by_name.get(n, ()))

    def self_total(name):
        return sum(self_t[s.sid] for s in by_name.get(name, ()))

    newton = by_name.get("solvers.newton", [])
    converged = sum(1 for s in newton if s.info and s.info[1])
    steps = by_name.get("schemes.step", [])
    attempts = by_name.get("solvers.continuation_attempt", [])
    points = sum(1 for s in attempts if s.info)
    stability = [n for n in by_name if n.startswith("stability.")]
    return {
        "cli.main_calls": calls("cli.main"),
        "cli.main_s": total("cli.main"),
        "schemes.step_calls": len(steps),
        "schemes.step_self_s": self_total("schemes.step"),
        "schemes.newton_iters_per_step": _ratio(sum(s.info or 0 for s in steps), len(steps)),
        "schemes.scalar_map_calls": calls("schemes.scalar_map"),
        "schemes.scalar_map_s": total("schemes.scalar_map"),
        "solvers.newton_calls": len(newton),
        "solvers.newton_iters": sum(s.info[0] for s in newton if s.info),
        "solvers.newton_self_s": self_total("solvers.newton"),
        "solvers.newton_unconverged": len(newton) - converged,
        "solvers.newton_converged_ratio": _ratio(converged, len(newton)),
        "solvers.splu_calls": calls("scipy.splu"),
        "solvers.splu_s": total("scipy.splu", "scipy.splu_solve"),
        "solvers.banded_calls": calls("scipy.solve_banded"),
        "solvers.banded_s": total("scipy.solve_banded"),
        "solvers.dense_lu_calls": calls("scipy.lu_factor"),
        "solvers.dense_lu_s": total("scipy.lu_factor", "scipy.lu_solve"),
        "solvers.cubic_calls": calls("solvers.real_cubic_roots"),
        "solvers.cubic_s": total("solvers.real_cubic_roots"),
        "solvers.continuation_points": points,
        "solvers.continuation_attempts": len(attempts),
        "solvers.continuation_useful_ratio": _ratio(points, len(attempts)),
        "robustness.classify_calls": calls("robustness.classify_constant_initial"),
        "robustness.classify_steps": sum(
            s.info or 0 for s in by_name.get("robustness.classify_constant_initial", ())),
        "robustness.classify_s": total("robustness.classify_constant_initial"),
        "robustness.preimage_field_s": total("robustness.preimage_field"),
        "robustness.interval_sequence_s": total("robustness.interval_sequence"),
        "robustness.preimage_constants_calls": calls("robustness.preimage_constants"),
        "stability.s": total(*stability),
        "fields.laplacian_matrix_calls": calls("fields.laplacian_matrix"),
        "fields.laplacian_matrix_s": total("fields.laplacian_matrix"),
    }


def write_spans(path: Path, spans: list[Span]) -> None:
    """One JSON object per span, in the order the spans ended."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.sid, "parent": s.parent, "op": s.op, "name": s.name,
                "start": s.start, "end": s.end, "info": s.info,
            }) + "\n")
