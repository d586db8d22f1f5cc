"""Fundamental system of the degenerate oscillator y'' = lambda^2 t^m y.

V1 and V2 are the solutions normalized to (1,0) and (0,1) at t = 0, built
from modified Bessel functions of order +-1/(m+2).  An adaptive high-order
integrator serves as an independent oracle, and the two-point propagators
Phi1, Phi2 reproduce unit data at any interior time s.
"""

import math

import numpy as np

from tricomilab.tricomi_ode import (
    OdeParams,
    fundamental_pair,
    fundamental_pair_scaled,
    ode_oracle_scaled,
    phi1,
    phi2,
    phi2_ratio,
    phi_of_t,
)

print("=== Bessel-basis pair vs integration oracle (scaled) ===")
for m, lam in ((0.5, 1.0), (1.0, 2.0), (2.0, 0.3), (3.0, 5.0)):
    params = OdeParams(m, lam)
    t = 5.0
    fe = fundamental_pair_scaled(params, t)
    w1 = ode_oracle_scaled(params, t, (1.0, 0.0))
    w2 = ode_oracle_scaled(params, t, (0.0, 1.0))
    err = max(abs(fe.v1 / w1[0] - 1), abs(fe.v2 / w2[0] - 1))
    print(f"  m={m:3.1f} lam={lam:3.1f} t={t}: rel deviation {err:.2e} "
          f"(growth factor e^{{lam phi(t)}} = e^{lam * phi_of_t(m, t):.1f})")

print("\n=== Wronskian v1 v2' - v1' v2 = 1 ===")
for m, lam, t in ((1.0, 1.0, 2.0), (2.0, 0.2, 6.0), (0.0, 1.5, 3.0)):
    fe = fundamental_pair(OdeParams(m, lam), t)
    print(f"  m={m} lam={lam} t={t}: residual {fe.v1 * fe.dv2 - fe.dv1 * fe.v2 - 1:.2e}")

print("\n=== wave reduction at m = 0 ===")
lam, t = 1.3, 2.0
fe = fundamental_pair(OdeParams(0.0, lam), t)
print(f"  V1 - cosh(lam t)     = {fe.v1 - math.cosh(lam * t):.2e}")
print(f"  V2 - sinh(lam t)/lam = {fe.v2 - math.sinh(lam * t) / lam:.2e}")

print("\n=== propagators with unit data at s ===")
params = OdeParams(1.0, 2.0)
for s in (0.5, 1.5):
    print(f"  s={s}: Phi1(s,s) = {phi1(s, s, params):.12f}, "
          f"Phi2(s,s) = {phi2(s, s, params):.3e}")
print(f"  Phi1(t,0) = V1(t): diff {phi1(2.0, 0.0, params) - fundamental_pair(params, 2.0).v1:.2e}")

print("\n=== diagonal limit Phi2(t,s)/(t-s) -> 1 ===")
t = 2.0
for ds in (1e-1, 1e-3, 1e-5, 1e-8):
    print(f"  t-s = {ds:7.1e}: ratio = {phi2_ratio(t, t - ds, params):.10f}")
