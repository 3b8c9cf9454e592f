"""Span tracing of the starktoric layers from outside the package.

``install`` wraps every public function (the names in each module's
``__all__``) at every place a starktoric module binds it, so calls between
modules and within a module both go through the wrapper.  A span is
(function, start, end, parent span, work, failed); spans stay in memory
until ``Recorder.save`` writes them out.  The integrand handed to
``quadrature.integrate`` is wrapped too, so each span of ``integrate``
carries the number of panel estimates it made.

``layer_metrics`` turns saved spans into the per-layer metrics.  A span's
self time is its duration minus the time its child spans cover.  Work and
failures count only at the outermost span of a layer (a span whose parent
belongs to another layer), so nested calls inside one layer are not counted
twice; ``hill_grid`` cells count wherever a grid is built.
"""

from __future__ import annotations

import functools
import math
import time
import types
from pathlib import Path

import numpy as np

LAYERS = (
    "elliptic", "quadrature", "periods", "levi_civita",
    "stark_model", "dynamics", "toric_profile", "cli",
)
ALWAYS_COUNTED = {"stark_model.hill_grid"}


def _size(x) -> int:
    return int(np.size(x))


def _arg(args, kwargs, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _step(args, kwargs, i) -> float:
    spec = _arg(args, kwargs, i, "spec")
    return spec.step if spec is not None else 1e-3


def _torus_steps(args, kwargs, tau1, tau2) -> float:
    t1, t2, state, eps = args[:4]
    z, w = state.z, state.w
    e1 = 0.5 * w[0] ** 2 + 0.5 * z[0] ** 2 + 0.5 * eps * z[0] ** 4
    e2 = 0.5 * w[1] ** 2 + 0.5 * z[1] ** 2 - 0.5 * eps * z[1] ** 4
    return (t1 * tau1(eps, e1) + t2 * tau2(eps, e2)) / _step(args, kwargs, 4)


def _work_rules(periods):
    """Work count of one call, from its arguments and result.

    dynamics counts integrator steps in the flow's own time (duration over
    step); for ``flow_equivalence`` that is the regularized flow only, the
    raw flow being its reference path.  Call before wrapping: the torus
    rule keeps the unwrapped period functions.
    """
    tau1, tau2 = periods.tau1, periods.tau2
    second = lambda a, k, r: _size(_arg(a, k, 1, "c"))
    one = lambda a, k, r: 1
    return {
        "elliptic": lambda a, k, r: _size(_arg(a, k, 0, "m")),
        "periods.phi": lambda a, k, r: _size(_arg(a, k, 0, "x")),
        "periods.log_phi_d1": lambda a, k, r: _size(_arg(a, k, 0, "x")),
        "periods.period_oracle": one,
        "periods": second,
        "levi_civita": one,
        "stark_model.hill_grid": lambda a, k, r: int(_arg(a, k, 1, "resolution")) ** 2,
        "stark_model": one,
        "dynamics.integrate_regularized": lambda a, k, r: len(r[0].times) - 1,
        "dynamics.integrate_planar": lambda a, k, r: len(r.times) - 1,
        "dynamics.integrate_oscillator": lambda a, k, r: len(r.times) - 1,
        "dynamics.measure_period": lambda a, k, r: math.ceil(r / _step(a, k, 3)),
        "dynamics.torus_act": lambda a, k, r: math.ceil(_torus_steps(a, k, tau1, tau2)),
        "dynamics.flow_equivalence": lambda a, k, r: math.ceil(
            _arg(a, k, 3, "s_duration", 5.0) / _step(a, k, 2)),
        "dynamics": one,
        "toric_profile.profile_sample": lambda a, k, r: int(_arg(a, k, 1, "n")),
        "toric_profile.verify_convexity": lambda a, k, r: int(_arg(a, k, 1, "n")),
        "toric_profile.profile_slope": second,
        "toric_profile.profile_second_derivative": second,
        "toric_profile": one,
        "cli": one,
        "quadrature": None,  # panel estimates, counted by the integrand wrapper
    }


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.integrand_calls = 0

    def _wrap(self, qualname: str, fn, rule):
        fid = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self.stack
        is_integrate = qualname == "quadrature.integrate"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            if is_integrate:
                args = (self._count(args[0]), *args[1:])
                before = self.integrand_calls
            result = None
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                if is_integrate:
                    work = self.integrand_calls - before
                else:
                    work = 0 if raised else rule(args, kwargs, result)
                failed = raised or getattr(result, "passed", True) is False
                spans[sid] = (fid, t0, t1, parent, work, failed)

        return wrapper

    def _count(self, f):
        if getattr(f, "counted", False):
            return f  # integrate recursing on a reversed interval

        def counted(x):
            self.integrand_calls += 1
            return f(x)

        counted.counted = True
        return counted

    def install(self) -> None:
        """Wrap the public functions of every starktoric module in place."""
        import importlib

        mods = {name: importlib.import_module(f"starktoric.{name}") for name in LAYERS}
        package = importlib.import_module("starktoric")
        rules = _work_rules(mods["periods"])
        wrappers = {}
        for layer in LAYERS:
            mod = mods[layer]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name)
                if isinstance(fn, types.FunctionType):
                    qual = f"{layer}.{name}"
                    rule = rules.get(qual, rules.get(layer))
                    wrappers[fn] = self._wrap(qual, fn, rule)
        for mod in (package, *mods.values()):
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def save(self, path: Path) -> None:
        rows = self.spans
        np.savez(
            path,
            names=np.array(self.names),
            fid=np.array([r[0] for r in rows], dtype=np.int32),
            start=np.array([r[1] for r in rows], dtype=float),
            end=np.array([r[2] for r in rows], dtype=float),
            parent=np.array([r[3] for r in rows], dtype=np.int64),
            work=np.array([r[4] for r in rows], dtype=float),
            failed=np.array([r[5] for r in rows], dtype=bool),
        )


def _load(path: Path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def layer_metrics(paths: list[Path]) -> dict[str, float]:
    """calls, self_s, work, work_per_s and failed per layer, summed over span files."""
    totals = {layer: dict(calls=0, self_s=0.0, work=0.0, failed=0) for layer in LAYERS}
    integrate_calls = 0
    for path in paths:
        s = _load(path)
        if s["fid"].size == 0:
            continue
        qual = s["names"][s["fid"]]
        layer = np.array([q.split(".", 1)[0] for q in s["names"]])[s["fid"]]
        dur = s["end"] - s["start"]
        child = np.zeros(dur.size)
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        parent_layer = np.where(has_parent, layer[np.maximum(s["parent"], 0)], "")
        outer = (parent_layer != layer) | np.isin(qual, list(ALWAYS_COUNTED))
        for name, entry in totals.items():
            mine = layer == name
            entry["calls"] += int(mine.sum())
            entry["self_s"] += float(self_s[mine].sum())
            entry["work"] += float(s["work"][mine & outer].sum())
            entry["failed"] += int((s["failed"] & mine & (parent_layer != layer)).sum())
        integrate_calls += int((qual == "quadrature.integrate").sum())
    out: dict[str, float] = {}
    for name, entry in totals.items():
        out[f"{name}.calls"] = entry["calls"]
        out[f"{name}.self_s"] = entry["self_s"]
        out[f"{name}.work"] = entry["work"]
        out[f"{name}.work_per_s"] = entry["work"] / entry["self_s"] if entry["self_s"] > 0 else 0.0
        out[f"{name}.failed"] = entry["failed"]
    out["quadrature.panels_per_integral"] = (
        totals["quadrature"]["work"] / integrate_calls if integrate_calls else 0.0
    )
    return out
