"""Desk-scale blow-up experiment: simulate, track functionals, fit scaling.

A radial finite-difference run of u_tt - t^m Lap(u) = |u|^p with a small
compact bump.  Along the way the solver tracks the mass G(t) = int u dx
(whose curvature must equal int |u|^p dx), the weighted functional F, and
the support radius against the degenerate cone R + phi(t).  A sweep over
eps then recovers the lifespan scaling T ~ eps^{-2p(p-1)/gamma}.
"""

import numpy as np

from tricomilab.exponents import ExponentContext, lifespan_law
from tricomilab.pde_solver import (
    ModelParams,
    RunConfig,
    fit_scaling,
    lifespan_scan,
    run_until_blowup,
)
from tricomilab.tricomi_ode import phi_of_t

model = ModelParams(m=1.0, n=1, p=2.0, R=1.0, eps=0.6)
cfg = RunConfig(model=model, dx=0.02, t_max=30.0, u1_mode="zero", track_f=True)
print(f"=== single run: m={model.m}, n={model.n}, p={model.p}, eps={model.eps} ===")
record, series = run_until_blowup(cfg)
print(f"  blow-up time: {record.t_blowup:.4f} "
      f"(threshold sensitivity {record.threshold_sensitivity:.2e})")
print(f"  peak amplitude at detection: {record.peak:.3e}")

idx = np.linspace(0, len(series.t) - 1, 8, dtype=int)
print("\n      t        max|u|        G(t)     int|u|^p   support  cone R+phi(t)")
for i in idx:
    t = series.t[i]
    print(f"  {t:7.3f}  {series.max_u[i]:10.3e}  {series.g[i]:10.3e}"
          f"  {series.lp[i]:10.3e}  {series.support_radius[i]:7.3f}"
          f"  {model.R + phi_of_t(model.m, t):7.3f}")

print(f"\n  weighted functional F: F(0) = {series.f_values[0]:.4e} > 0, "
      f"F grows to {series.f_values[-1]:.4e}")

print("\n=== eps sweep and lifespan scaling ===")
eps_values = np.geomspace(0.4, 1.2, 5)
records = lifespan_scan(RunConfig(model=model, dx=0.04, t_max=40.0,
                                  u1_mode="zero"), eps_values)
print("     eps    T_blowup  censored")
for r in records:
    print(f"  {r.eps:6.3f}  {r.t_blowup:9.4f}  {r.censored}")
fit = fit_scaling(records)
theory = -lifespan_law(ExponentContext(model.m, model.n, model.p)).theta
print(f"\n  fitted slope of log T vs log eps: {fit.slope:.4f}  (theory {theory})")
print(f"  fit residual: {fit.residual:.2e}")
print(f"  note: {fit.note}")
