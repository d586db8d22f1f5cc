"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, none deferred to calibration.
"""

import json
import math
import time

import numpy as np
import pytest

from tricomilab.cli import dispatch
from tricomilab.exponents import (
    ExponentContext,
    critical_identities,
    gamma_mnp,
    iteration_exponents,
    p_crit,
    q_choice,
)
from tricomilab.iteration import (
    critical_threshold_curve,
    critical_run,
    subcritical_run,
    subcritical_threshold_curve,
)
from tricomilab.pde_solver import (
    ModelParams,
    RunConfig,
    fit_scaling,
    initialize,
    lifespan_scan,
    run_until_blowup,
    step,
)
from tricomilab.specfun import kummer_m, kummer_m_deriv
from tricomilab.testfun import Lemma22Grid, TestFnParams, lemma22_report
from tricomilab.tricomi_ode import (
    OdeParams,
    fundamental_pair,
    fundamental_pair_scaled,
    ode_oracle_scaled,
    phi_of_t,
)


def _report(num: int, label: str, t0: float, budget: float):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {num:2d} PASS ({elapsed:6.2f}s): {label}")


def test_criterion_01_exponent_algebra():
    t0 = time.perf_counter()
    for m in (0.0, 0.5, 1.0, 2.0, 4.0):
        for n in (2, 3, 4):
            pc = p_crit(m, n)
            assert abs(gamma_mnp(ExponentContext(m, n, pc))) <= 1e-12
            r1, r2 = critical_identities(ExponentContext(m, n, pc))
            assert abs(r1) <= 1e-10 and abs(r2) <= 1e-10
    assert abs(p_crit(0, 3) - (1.0 + math.sqrt(2.0))) <= 1e-12
    _report(1, "exponent algebra: roots and critical identities", t0, 1.0)


def test_criterion_02_gap_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        m = rng.uniform(0.0, 4.0)
        n = int(rng.integers(1, 5))
        p = rng.uniform(1.05, 4.0)
        ctx = ExponentContext(m, n, p)
        it = iteration_exponents(ctx)
        gap = it.beta_it - it.alpha_it
        assert abs(gap - gamma_mnp(ctx) / (2.0 * (p - 1.0))) <= 1e-12
    _report(2, "beta_it - alpha_it = gamma/(2(p-1)) on 100 draws", t0, 1.0)


def test_criterion_03_kummer_kernel():
    t0 = time.perf_counter()
    pairs = []
    for m in (0.5, 1.0, 2.0, 3.0, 4.0):
        alpha, gk = m / (2 * (m + 2)), m / (m + 2)
        pairs += [(alpha, gk), (1 + alpha - gk, 2 - gk), (alpha + 1, gk + 1)]
    zs = np.linspace(-50.0, 20.0, 701)
    for a, b in pairs:
        for z in zs:
            lhs = kummer_m(a, b, float(z))
            rhs = math.exp(z) * kummer_m(b - a, b, float(-z))
            assert abs(lhs - rhs) / max(1.0, abs(lhs)) <= 1e-10
    assert abs(kummer_m(1.0, 2.0, 2.0) - math.e * math.sinh(1.0)) <= 1e-10
    h = 1e-5
    for a, b, z in ((1.0, 2.0, 2.0), (0.25, 0.5, -4.0), (0.75, 1.5, 3.0)):
        fd = (kummer_m(a, b, z + h) - kummer_m(a, b, z - h)) / (2.0 * h)
        assert abs(kummer_m_deriv(a, b, z) - fd) <= 1e-8
    _report(3, "Kummer kernel: transformation, value, derivative", t0, 5.0)


def test_criterion_04_fundamental_system():
    t0 = time.perf_counter()
    # Wronskian at 100 random points; t sampled inside the window where the
    # decaying mode is representable in doubles (lambda phi(t) <= 7)
    rng = np.random.default_rng(4)
    count = 0
    while count < 100:
        m = rng.uniform(0.0, 3.0)
        lam = rng.uniform(0.1, 5.0)
        t_cap = min(20.0, ((m + 2.0) * 7.0 / (2.0 * lam)) ** (2.0 / (m + 2.0)))
        t = rng.uniform(0.0, t_cap)
        fe = fundamental_pair(OdeParams(m, lam), t)
        assert abs(fe.v1 * fe.dv2 - fe.dv1 * fe.v2 - 1.0) <= 1e-8
        count += 1
    # hypergeometric pair vs integration oracle, exponentially scaled so the
    # comparison stays representable through t = 20 at every (m, lambda)
    for m in (0.5, 1.0, 2.0, 3.0):
        for lam in (0.1, 1.0, 5.0):
            params = OdeParams(m, lam)
            for t in (1.0, 5.0, 20.0):
                fe = fundamental_pair_scaled(params, t)
                w1 = ode_oracle_scaled(params, t, (1.0, 0.0))
                w2 = ode_oracle_scaled(params, t, (0.0, 1.0))
                for got, ref in ((fe.v1, w1[0]), (fe.dv1, w1[1]),
                                 (fe.v2, w2[0]), (fe.dv2, w2[1])):
                    assert abs(got - ref) <= 1e-6 * max(abs(ref), 1e-30)
    # wave reduction
    lam = 1.7
    for t in (0.3, 1.0, 4.0):
        fe = fundamental_pair(OdeParams(0.0, lam), t)
        assert abs(fe.v1 - math.cosh(lam * t)) <= 1e-8
        assert abs(fe.v2 - math.sinh(lam * t) / lam) <= 1e-8
    _report(4, "fundamental system: Wronskian, oracle, wave limit", t0, 30.0)


def test_criterion_05_envelope_constants():
    t0 = time.perf_counter()
    for m, n in ((1.0, 2), (1.0, 3), (0.0, 3)):
        q = q_choice(n, p_crit(m, n))
        params = TestFnParams(q=q, lambda0=0.5, R=1.0, n=n, m=m)
        grid = Lemma22Grid.log_default(t_max=1e3, nt=12, ns=4, nx=4)
        coarse = lemma22_report(params, grid)
        fine = lemma22_report(params, grid.refined())
        for part in ("i-xi", "i-eta", "ii"):
            assert coarse.constants[part] > 0
            assert fine.constants[part] > 0
        assert math.isfinite(coarse.constants["iii"])
        assert math.isfinite(fine.constants["iii"])
        for part in ("i-xi", "i-eta", "ii", "iii"):
            c, f = coarse.constants[part], fine.constants[part]
            assert abs(f - c) / abs(c) <= 0.10, (m, n, part, c, f)
    _report(5, "envelope constants stable under 2x refinement", t0, 300.0)


def test_criterion_06_iteration_engines():
    t0 = time.perf_counter()
    ctx = ExponentContext(1.0, 1, 2.0)
    seq = subcritical_run(ctx, d1=0.37, t0=0.2, jmax=40)
    assert np.allclose(seq.a_closed(seq.j_index), seq.a_j, rtol=1e-12, atol=0.0)
    assert np.allclose(seq.b_closed(seq.j_index), seq.b_j, rtol=1e-12, atol=0.0)
    pc = p_crit(1.0, 2)
    ctxc = ExponentContext(1.0, 2, pc)
    seqc = critical_run(ctxc, eps=0.05, jmax=40)
    assert np.allclose(seqc.a_closed(seqc.j_index), seqc.a_j, rtol=1e-12)
    assert np.allclose(seqc.b_closed(seqc.j_index), seqc.b_j, rtol=1e-12)
    assert np.allclose(seqc.log_c_closed(seqc.j_index), seqc.log_c_j, rtol=1e-12)
    # constant-free slope extraction
    eps = 2.0 ** -np.arange(4, 15)
    slope_sub = np.polyfit(np.log(eps), subcritical_threshold_curve(ctx, eps), 1)[0]
    theory_sub = -2.0 * ctx.p * (ctx.p - 1.0) / gamma_mnp(ctx)
    assert abs(slope_sub - theory_sub) <= 0.05 * abs(theory_sub)
    eps_c = 2.0 ** -np.arange(8, 17)
    log_t = critical_threshold_curve(ctxc, eps_c)
    slope_crit = np.polyfit(np.log(eps_c), np.log(log_t), 1)[0]
    theory_crit = -pc * (pc - 1.0)
    assert abs(slope_crit - theory_crit) <= 0.05 * abs(theory_crit)
    _report(6, "iteration engines: closed forms and slopes", t0, 10.0)


def test_criterion_07_pde_solver():
    t0 = time.perf_counter()
    # zero data is a bitwise fixed point
    cfg0 = RunConfig(ModelParams(1.0, 1, 2.0, eps=0.0), dx=0.05, t_max=2.0)
    st = initialize(cfg0)
    for _ in range(40):
        step(st, cfg0)
    assert np.all(st.u == 0.0)
    # support cone and G'' identity on a blow-up run
    cfg = RunConfig(ModelParams(1.0, 1, 2.0, R=1.0, eps=1.0), dx=0.02, t_max=12.0)
    rec, ser = run_until_blowup(cfg)
    phi = np.array([phi_of_t(1.0, t) for t in ser.t])
    assert np.all(ser.support_radius <= 1.0 + phi + 2.0 * cfg.dx)
    k = 10
    i = np.arange(k, len(ser.t) - k, k)
    dtp, dtm = ser.t[i + k] - ser.t[i], ser.t[i] - ser.t[i - k]
    d2 = 2.0 * (
        ser.g[i + k] * dtm - ser.g[i] * (dtp + dtm) + ser.g[i - k] * dtp
    ) / (dtp * dtm * (dtp + dtm))
    win = (ser.t[i] > 0.3 * rec.t_blowup) & (ser.t[i] < 0.6 * rec.t_blowup)
    assert np.max(np.abs(d2 - ser.lp[i])[win] / np.abs(ser.lp[i])[win]) <= 0.02
    # m = 0 linear convergence to the exact traveling-wave solution

    def exact(r, t, radius=1.0):
        def psi(x):
            x = np.abs(x)
            out = np.zeros_like(x)
            ins = x < radius
            out[ins] = (1.0 - (x[ins] / radius) ** 2) ** 4
            return out

        return 0.5 * (psi(r - t) + psi(r + t))

    errs = []
    for dx in (0.04, 0.02, 0.01):
        c = RunConfig(
            ModelParams(0.0, 1, 2.0, R=1.0, eps=1.0),
            dx=dx,
            t_max=1.2,
            u1_mode="zero",
            linear_only=True,
            cfl_safety=0.45,
        )
        s = initialize(c)
        while s.t < 1.0:
            step(s, c)
        errs.append(np.max(np.abs(s.u - exact(s.r, s.t))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8)
    _report(7, "PDE solver: fixed point, cone, G'', convergence", t0, 120.0)


def test_criterion_08_and_09_lifespan_scaling():
    t0 = time.perf_counter()
    # (m,n,p) = (1,1,2): gamma = 4, theory slope exactly -1.  Data family
    # u0 = bump, u1 = 0 (nonnegative, compactly supported); with u1 = u0 the
    # desk-scale window [0.3, 1.2] sits outside asymptopia (slope ~ -0.74).
    cfg = RunConfig(
        ModelParams(1.0, 1, 2.0, R=1.0, eps=1.0),
        dx=0.02,
        t_max=60.0,
        u1_mode="zero",
    )
    eps = np.geomspace(0.3, 1.2, 7)
    records = lifespan_scan(cfg, eps)
    assert all(not r.censored for r in records)
    fit = fit_scaling(records)
    assert -1.2 <= fit.slope <= -0.8, fit
    _report(8, f"lifespan sweep slope {fit.slope:.3f} in [-1.2,-0.8]", t0, 120.0)

    # criterion 9 rides in the same budget: Lemma-3.2-type lower envelope
    t9 = time.perf_counter()
    mins = {}
    for e in (0.3, 0.45):
        c9 = RunConfig(
            ModelParams(1.0, 1, 2.0, R=1.0, eps=e),
            dx=0.02,
            t_max=40.0,
            u1_mode="zero",
        )
        rec, ser = run_until_blowup(c9)
        assert not rec.censored
        phi = np.array([phi_of_t(1.0, t) for t in ser.t])
        env = e**2.0 * (1.0 + ser.t) ** 1.0 * (1.0 + phi) ** (1.0 - 1.0 - 1.0)
        win = (ser.t >= 1.0) & (ser.t <= rec.t_blowup / 2.0)
        mins[e] = float(np.min(ser.lp[win] / env[win]))
    c_fitted = mins[0.3]
    assert c_fitted > 0.0
    # the single fitted constant dominates the envelope on the second run
    assert mins[0.45] >= 0.5 * c_fitted
    _report(9, "nonlinear-mass lower envelope with one fitted constant",
            t9, 900.0)


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    invocations = [
        ["exponents", "--set", "exponents.m=1", "--set", "exponents.n=2",
         "--set", "exponents.eps=0.5"],
        ["kummer", "--set", "specfun.a=0.25", "--set", "specfun.b=0.5",
         "--set", "specfun.z=-35"],
        ["critical", "--set", "iterate.m=1", "--set", "iterate.n=2",
         "--set", "iterate.eps=0.2", "--set", "iterate.jmax=15"],
        ["simulate", "--set", "model.m=1", "--set", "model.n=1",
         "--set", "model.p=2", "--set", "grid.dx=0.05",
         "--set", "grid.t_max=1.0"],
    ]
    for idx, args in enumerate(invocations):
        a = tmp_path / f"run{idx}_a.out"
        b = tmp_path / f"run{idx}_b.out"
        assert dispatch(args + ["--output", str(a)]) == 0
        assert dispatch(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), args
    _report(10, "byte-identical repeated CLI invocations", t0, 60.0)
