"""Span tracing of tricomilab from outside the library.

``Tracer.install`` wraps public functions where they are looked up.  A
``from x import y`` binds ``y`` in the importing module, so each such
binding is patched on its own (``TARGETS``).  Every call records a span
``(id, parent_id, name, start, end, note)`` in memory; ``dump`` writes them
once, at the end of the run.  ``note`` holds counts taken at the boundary
(grid cells, radii, Kummer regime, Gauss levels, run outcome).

A span's self time is its duration minus the durations of its direct
children.  Spans are grouped into layers (``layer_of``).  A layer's
``calls`` counts its spans whose parent belongs to another layer, so a call
that recurses inside its layer (``phi2_ratio`` -> ``phi2``, ``kummer_m`` ->
``kummer_m_detail``) counts once.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

# the engines' entry points; the per-point helpers they call in loops
# (j_function_log, critical_lower_bound_log, ...) stay unwrapped, so their
# time is the caller's self time and tracing them costs nothing
_ITERATION_FNS = (
    "subcritical_run", "j_threshold_time", "threshold_time_log_scan",
    "blowup_time_estimate", "subcritical_threshold_curve", "critical_run",
    "critical_divergence_log_time", "critical_threshold_curve",
)
_EXPONENT_FNS = (
    "gamma_mnp", "p_crit", "strauss_exponent", "q_choice",
    "iteration_exponents", "critical_identities", "lifespan_prediction",
)

QUAD = "testfun.integrate_lambda_weighted"

# (module, attribute, span name)
TARGETS = [
    ("cli", "dispatch", "cli.dispatch"),
    ("pde_solver", "run_until_blowup", "pde_solver.run_until_blowup"),
    ("pde_solver", "step", "pde_solver.step"),
    ("pde_solver", "functional_G", "pde_solver.functional_G"),
    ("pde_solver", "functional_lp", "pde_solver.functional_lp"),
    ("pde_solver", "support_radius", "pde_solver.support_radius"),
    ("pde_solver", "functional_F", "pde_solver.functional_F"),
    ("pde_solver", "eta_q", "pde_solver.eta_q"),
    ("pde_solver", "gamma_mnp", "exponents.gamma_mnp"),
    ("pde_solver", "q_choice", "exponents.q_choice"),
    ("testfun", "lemma22_report", "testfun.lemma22_report"),
    ("testfun", "integrate_lambda_weighted", QUAD),
    ("testfun", "kernel_phi1_scaled", "testfun.kernel_phi1_scaled"),
    ("testfun", "kernel_phi2_ratio_scaled", "testfun.kernel_phi2_ratio_scaled"),
    ("testfun", "varphi_scaled", "specfun.varphi_scaled"),
    ("tricomi_ode", "kummer_m", "specfun.kummer_m"),
    ("tricomi_ode", "kummer_m_deriv", "specfun.kummer_m_deriv"),
    ("tricomi_ode", "fundamental_pair", "tricomi_ode.fundamental_pair"),
    ("tricomi_ode", "fundamental_pair_scaled", "tricomi_ode.fundamental_pair_scaled"),
    ("tricomi_ode", "phi1", "tricomi_ode.phi1"),
    ("tricomi_ode", "phi2", "tricomi_ode.phi2"),
    ("tricomi_ode", "phi2_ratio", "tricomi_ode.phi2_ratio"),
    ("specfun", "kummer_m", "specfun.kummer_m"),
    ("specfun", "kummer_m_deriv", "specfun.kummer_m_deriv"),
    ("specfun", "kummer_m_detail", "specfun.kummer_m_detail"),
    ("iteration", "gamma_mnp", "exponents.gamma_mnp"),
    ("iteration", "iteration_exponents", "exponents.iteration_exponents"),
    ("iteration", "p_crit", "exponents.p_crit"),
    *[("iteration", fn, f"iteration.{fn}") for fn in _ITERATION_FNS],
    *[("exponents", fn, f"exponents.{fn}") for fn in _EXPONENT_FNS],
]

_LAYER_OF = {
    "pde_solver.run_until_blowup": "pde_solver.solve",
    "pde_solver.functional_G": "pde_solver.record",
    "pde_solver.functional_lp": "pde_solver.record",
    "pde_solver.support_radius": "pde_solver.record",
    QUAD: "testfun.quad",
    "testfun.kernel_phi1_scaled": "testfun.kernel_phi1",
    "testfun.kernel_phi2_ratio_scaled": "testfun.kernel_phi2_ratio",
    "specfun.kummer_m_deriv": "specfun.kummer_m",
    "specfun.kummer_m_detail": "specfun.kummer_m",
    "tricomi_ode.fundamental_pair_scaled": "tricomi_ode.fundamental_pair",
    "tricomi_ode.phi1": "tricomi_ode.propagator",
    "tricomi_ode.phi2": "tricomi_ode.propagator",
    "tricomi_ode.phi2_ratio": "tricomi_ode.propagator",
}


def layer_of(name: str) -> str:
    """Layer of a span name; all of ``iteration.*`` and ``exponents.*`` are one each."""
    if name in _LAYER_OF:
        return _LAYER_OF[name]
    if name.startswith(("iteration.", "exponents.")):
        return name.split(".", 1)[0]
    return name


LAYERS = sorted({layer_of(name) for _, _, name in TARGETS})
CALL_LAYERS = (
    "pde_solver.step", "pde_solver.record", "pde_solver.solve",
    "pde_solver.functional_F", "testfun.quad", "specfun.varphi_scaled",
    "specfun.kummer_m", "tricomi_ode.fundamental_pair",
    "tricomi_ode.propagator", "iteration",
)
KUMMER_REGIMES = ("series", "series-kummer", "asymptotic", "asymptotic-kummer", "exp")


def _counting_integrand(g, counts):
    def counted(lam):
        counts["levels"] += 1
        counts["nodes"] += int(np.size(lam))
        return g(lam)

    return counted


def _note(name, args, kwargs, out, counts):
    """Counts recorded at the boundary of one call."""
    if name == "pde_solver.step":
        return {"cells": int(args[0].u.size)}
    if name == "specfun.varphi_scaled":
        return {"points": int(np.size(args[1]))}
    if name == "specfun.kummer_m_detail":
        return {"regime": out.regime}
    if name == "pde_solver.run_until_blowup":
        return {"eps": float(args[0].model.eps), "censored": bool(out[0].censored)}
    if name == QUAD:
        # the routine's own stopping test; a missing estimate never converged
        value, err = out
        rtol = args[3] if len(args) > 3 else kwargs.get("rtol", 1e-8)
        scale = np.maximum(np.abs(value), 1e-300)
        counts["unconverged"] = int(err is None or not np.all(err <= rtol * scale))
        return counts
    return None


class Tracer:
    """In-memory span recorder over the modules in ``modules`` (name -> module)."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            counts = None
            if name == QUAD:
                counts = {"levels": 0, "nodes": 0}
                args = (_counting_integrand(args[0], counts),) + args[1:]
            note = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                note = _note(name, args, kwargs, out, counts)
                return out
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, note))

        return wrapper

    def install(self) -> None:
        for mod_name, attr, name in TARGETS:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, note in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name,
                     "start": start, "end": end, "note": note}) + "\n")


def layer_metrics(spans: list[tuple]) -> dict:
    """Per-layer self time, calls and boundary counts of one op's spans."""
    layer = {s[0]: layer_of(s[2]) for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _, start, end, _ in spans:
        child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    solves = []
    for sid, parent, name, start, end, note in spans:
        lay = layer[sid]
        self_s[lay] += (end - start) - child_time[sid]
        if layer.get(parent) != lay:
            calls[lay] += 1
        if name == "specfun.kummer_m_detail":
            counts["specfun.kummer_m.regime." + note["regime"]] += 1
        elif name == "pde_solver.run_until_blowup":
            solves.append((sid, note))
        elif note:
            for key, val in note.items():
                counts[f"{lay}.{key}"] += val
    # lifespan_scan runs a censored eps once more with a doubled horizon
    solves.sort(key=lambda s: s[0])
    notes = [n for _, n in solves if n]
    retries = sum(
        1 for a, b in zip(notes, notes[1:]) if a["censored"] and a["eps"] == b["eps"]
    )
    out = {f"{lay}.self_s": self_s[lay] for lay in LAYERS}
    out.update({f"{lay}.calls": calls[lay] for lay in CALL_LAYERS})
    out["testfun.kernel.calls"] = calls["testfun.kernel_phi1"] + calls["testfun.kernel_phi2_ratio"]
    out["pde_solver.step.cells"] = counts["pde_solver.step.cells"]
    out["pde_solver.solve.retries"] = retries
    out["pde_solver.solve.censored"] = sum(1 for n in notes if n["censored"])
    for key in ("levels", "nodes", "unconverged"):
        out[f"testfun.quad.{key}"] = counts[f"testfun.quad.{key}"]
    out["specfun.varphi_scaled.points"] = counts["specfun.varphi_scaled.points"]
    for regime in KUMMER_REGIMES:
        key = "specfun.kummer_m.regime." + regime
        out[key] = counts[key]
    return out
