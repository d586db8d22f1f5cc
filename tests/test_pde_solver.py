import math

import numpy as np
import pytest

import tricomilab.pde_solver as pde
from tricomilab.errors import ConfigError, DomainError
from tricomilab.pde_solver import (
    FitResult,
    LifespanRecord,
    ModelParams,
    RunConfig,
    fit_scaling,
    functional_F,
    functional_G,
    functional_lp,
    initialize,
    lifespan_scan,
    radial_laplacian,
    run_until_blowup,
    step,
    support_radius,
)
from tricomilab.tricomi_ode import phi_of_t


def small_cfg(**kw):
    defaults = dict(
        model=ModelParams(1.0, 1, 2.0, R=1.0, eps=1.0), dx=0.02, t_max=12.0
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_zero_data_is_fixed_point():
    cfg = small_cfg(model=ModelParams(1.0, 1, 2.0, eps=0.0), dx=0.05, t_max=2.0)
    state = initialize(cfg)
    for _ in range(60):
        step(state, cfg)
    assert np.all(state.u == 0.0)
    assert functional_G(state, cfg) == 0.0
    assert functional_F(state, cfg) == 0.0


def test_initial_support_within_radius():
    cfg = small_cfg()
    state = initialize(cfg)
    assert support_radius(state) <= cfg.model.R
    assert np.max(np.abs(state.u)) == pytest.approx(cfg.model.eps)


def test_taylor_start_velocity_only():
    # u0 = 0 is not offered by the profile, but u1-only growth is checked
    # through u1_mode='same' vs 'zero' first-step difference: dt * eps * bump
    cfg_same = small_cfg(dx=0.05, t_max=1.0)
    cfg_zero = small_cfg(dx=0.05, t_max=1.0, u1_mode="zero")
    s1 = step(initialize(cfg_same), cfg_same)
    s0 = step(initialize(cfg_zero), cfg_zero)
    dt = s1.t
    bump = initialize(cfg_same).u  # eps * u0
    assert np.allclose(s1.u - s0.u, dt * bump, atol=1e-14)


def _full_grid_step(u, u_prev, r, t, dt, dt_prev, cfg, v0):
    """The scheme on the whole grid: Taylor start when u_prev is None, else
    the nonuniform leapfrog update; the outer boundary cell is held at 0."""
    md = cfg.model
    rhs = t**md.m * radial_laplacian(u, r, cfg.dx, md.n)
    if not cfg.linear_only:
        rhs = rhs + np.abs(u) ** md.p
    if u_prev is None:
        u_new = u + dt * v0 + 0.5 * dt * dt * rhs
    else:
        u_new = u + dt / dt_prev * (u - u_prev) + 0.5 * dt * (dt + dt_prev) * rhs
    u_new[-1] = 0.0
    return u_new


def _assert_steps_match_full_grid(cfg, n_steps):
    state = initialize(cfg)
    v0 = state.u.copy() if cfg.u1_mode == "same" else np.zeros_like(state.u)
    u, u_prev, dt_prev = state.u.copy(), None, 0.0
    for _ in range(n_steps):
        if state.blown_up:
            break
        t = state.t
        step(state, cfg)
        dt = state.dt_prev
        u, u_prev = _full_grid_step(u, u_prev, state.r, t, dt, dt_prev, cfg, v0), u
        dt_prev = dt
        assert state.u.tobytes() == u.tobytes(), (cfg, state.step_index)
    return state


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2.0, 2.7])
@pytest.mark.parametrize("u1_mode", ["same", "zero"])
def test_step_matches_full_grid_scheme(n, p, u1_mode):
    # the live window is exact: every step is bit-identical to the scheme
    # applied to the whole grid
    cfg = small_cfg(model=ModelParams(1.0, n, p, eps=0.8), dx=0.05, t_max=3.0,
                    u1_mode=u1_mode)
    state = _assert_steps_match_full_grid(cfg, 60)
    assert state.live < state.u.size  # the window never reached the boundary


def test_step_matches_full_grid_scheme_through_blowup():
    cfg = small_cfg(dx=0.05)
    state = _assert_steps_match_full_grid(cfg, 10_000)
    assert state.blown_up


def test_step_matches_full_grid_scheme_at_outer_boundary():
    # a long linear run on the smallest allowed domain: the window reaches
    # the outer boundary cell and keeps stepping there
    cfg = RunConfig(
        model=ModelParams(0.0, 2, 2.0, R=1.0, eps=1.0),
        dx=0.05,
        t_max=1.0,
        linear_only=True,
        domain_radius=1.0 + 1.0 + 5.0 * 0.05,
    )
    state = _assert_steps_match_full_grid(cfg, 200)
    assert state.live == state.u.size
    assert state.step_index == 200


def test_radial_laplacian_quadratic_exact():
    # u = r^2 has Lap(u) = 2n exactly for the 3-point radial stencil
    dx = 0.1
    r = np.arange(0, 30) * dx
    u = r**2
    for n in (1, 2, 3):
        lap = radial_laplacian(u, r, dx, n)
        assert np.allclose(lap[:-1], 2.0 * n, rtol=1e-10)


def test_support_cone():
    cfg = small_cfg(dx=0.01)
    rec, ser = run_until_blowup(cfg)
    phi = np.array([phi_of_t(cfg.model.m, t) for t in ser.t])
    assert np.all(ser.support_radius <= cfg.model.R + phi + 2.0 * cfg.dx)


def test_blowup_detected_and_threshold_insensitive():
    rec, ser = run_until_blowup(small_cfg(dx=0.02))
    assert not rec.censored
    assert rec.t_blowup is not None and 2.0 < rec.t_blowup < 8.0
    assert rec.threshold_sensitivity is not None
    assert rec.threshold_sensitivity <= 0.02


def test_censoring_honesty():
    cfg = small_cfg(model=ModelParams(1.0, 1, 2.0, eps=0.05), dx=0.05, t_max=3.0)
    rec, _ = run_until_blowup(cfg)
    assert rec.censored
    assert rec.t_blowup is None


def test_g_second_derivative_matches_lp():
    cfg = small_cfg(dx=0.02)
    rec, ser = run_until_blowup(cfg)
    t, g, lp = ser.t, ser.g, ser.lp
    stride = 10
    i = np.arange(stride, len(t) - stride, stride)
    dtp = t[i + stride] - t[i]
    dtm = t[i] - t[i - stride]
    d2 = 2.0 * (
        g[i + stride] * dtm - g[i] * (dtp + dtm) + g[i - stride] * dtp
    ) / (dtp * dtm * (dtp + dtm))
    window = (t[i] > 0.3 * rec.t_blowup) & (t[i] < 0.6 * rec.t_blowup)
    rel = np.abs(d2 - lp[i]) / np.abs(lp[i])
    assert window.sum() >= 10
    assert np.max(rel[window]) <= 0.02


def test_linear_m0_converges_to_dalembert():
    # exact even-data d'Alembert solution as oracle
    def exact(r, t, radius=1.0):
        def psi(x):
            x = np.abs(x)
            out = np.zeros_like(x)
            inside = x < radius
            out[inside] = (1.0 - (x[inside] / radius) ** 2) ** 4
            return out

        return 0.5 * (psi(r - t) + psi(r + t))

    errs = []
    for dx in (0.04, 0.02, 0.01):
        cfg = RunConfig(
            model=ModelParams(0.0, 1, 2.0, R=1.0, eps=1.0),
            dx=dx,
            t_max=1.2,
            u1_mode="zero",
            linear_only=True,
            cfl_safety=0.45,
        )
        state = initialize(cfg)
        while state.t < 1.0:
            step(state, cfg)
        errs.append(np.max(np.abs(state.u - exact(state.r, state.t))))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders >= 1.8)


def test_linearized_mass_is_linear_in_time():
    # with |u|^p dropped, G''(t) = 0: G is affine in t
    cfg = small_cfg(dx=0.02, t_max=3.0, linear_only=True)
    rec, ser = run_until_blowup(cfg)
    assert rec.censored
    coeffs = np.polyfit(ser.t, ser.g, 1)
    resid = ser.g - np.polyval(coeffs, ser.t)
    assert np.max(np.abs(resid)) <= 1e-6 * np.max(np.abs(ser.g))


def test_iteration_frame_inequality_self_consistent():
    # G(t) >= int_0^t int_0^tau |supp|^{-(p-1)} |G|^p ds dtau from the
    # measured G itself (double cumulative trapezoid).  The Hoelder step
    # needs the support measure omega_n (R+phi)^n, not just the radius
    # power: without the unit-ball factor the inequality is false.
    cfg = small_cfg(dx=0.02)
    rec, ser = run_until_blowup(cfg)
    md = cfg.model
    phi = np.array([phi_of_t(md.m, t) for t in ser.t])
    omega = math.pi ** (md.n / 2.0) / math.gamma(md.n / 2.0 + 1.0)
    integrand = (omega * (md.R + phi) ** md.n) ** (-(md.p - 1.0)) * np.abs(
        ser.g
    ) ** md.p
    dt = np.diff(ser.t)
    inner = np.concatenate(
        ([0.0], np.cumsum(0.5 * dt * (integrand[1:] + integrand[:-1])))
    )
    rhs = np.concatenate(([0.0], np.cumsum(0.5 * dt * (inner[1:] + inner[:-1]))))
    mask = ser.t < 0.95 * rec.t_blowup
    assert np.all(ser.g[mask] >= rhs[mask] * (1.0 - 2e-2) - 1e-9)


def test_functional_f_positive_at_start():
    cfg = small_cfg(track_f=True)
    state = initialize(cfg)
    assert functional_F(state, cfg) > 0.0


def test_lp_lower_bound_envelope():
    # measured int |u|^p dominates c eps^p (1+t)^{p/2} (1+phi)^{n-1-np/2}
    # with a single c fitted on the first run and reused on the second
    md = ModelParams(1.0, 1, 2.0, R=1.0, eps=0.3)
    mins = {}
    for eps in (0.3, 0.45):
        cfg = RunConfig(
            model=ModelParams(1.0, 1, 2.0, R=1.0, eps=eps),
            dx=0.02,
            t_max=40.0,
            u1_mode="zero",
        )
        rec, ser = run_until_blowup(cfg)
        phi = np.array([phi_of_t(1.0, t) for t in ser.t])
        env = eps**md.p * (1.0 + ser.t) ** (md.p / 2.0) * (1.0 + phi) ** (
            md.n - 1.0 - md.n * md.p / 2.0
        )
        window = (ser.t >= 1.0) & (ser.t <= rec.t_blowup / 2.0)
        mins[eps] = float(np.min(ser.lp[window] / env[window]))
    c_fit = mins[0.3]
    assert c_fit > 0.0
    assert mins[0.45] >= 0.5 * c_fit  # same constant works across eps
    assert mins[0.45] <= 2.0 * c_fit


def test_mass_convergence_under_dx_halving():
    # nonlinear run: G at a fixed pre-blow-up time converges at order ~2
    def g_at(dx, t_star=1.5):
        cfg = small_cfg(model=ModelParams(1.0, 1, 2.0, eps=0.5), dx=dx, t_max=3.0)
        state = initialize(cfg)
        prev_t, prev_g = 0.0, functional_G(state, cfg)
        while state.t < t_star:
            prev_t, prev_g = state.t, functional_G(state, cfg)
            step(state, cfg)
        g_now = functional_G(state, cfg)
        w = (t_star - prev_t) / (state.t - prev_t)
        return (1.0 - w) * prev_g + w * g_now

    g1, g2, g3 = g_at(0.08), g_at(0.04), g_at(0.02)
    order = math.log2(abs(g1 - g2) / abs(g2 - g3))
    assert order >= 1.8


def test_critical_initiation_envelope_from_simulation():
    # at p = p_crit the weighted functional obeys the logarithmic seed
    # <t>^{m/4} F(t) >= M eps^p log(2t/3) for t >= 3/2; M is fitted on the
    # first run and must carry (up to a modest factor) to the second eps
    from tricomilab.exponents import p_crit
    from tricomilab.testfun import bracket

    pc = p_crit(1.0, 2)
    mins = {}
    for eps in (0.3, 0.5):
        cfg = RunConfig(
            ModelParams(1.0, 2, pc, R=1.0, eps=eps),
            dx=0.04,
            t_max=12.0,
            u1_mode="zero",
            track_f=True,
            n_f_samples=10,
        )
        rec, ser = run_until_blowup(cfg)
        assert rec.censored  # critical blow-up is far beyond desk horizons
        mask = ser.f_times >= 1.5
        lhs = bracket(ser.f_times[mask]) ** 0.25 * ser.f_values[mask]
        env = eps**pc * np.log(2.0 * ser.f_times[mask] / 3.0)
        ok = env > 1e-3
        mins[eps] = float(np.min(lhs[ok] / env[ok]))
    m_fitted = mins[0.3]
    assert m_fitted > 0.0
    assert mins[0.5] >= 0.4 * m_fitted


def test_lifespan_scan_monotone_and_fit():
    cfg = small_cfg(dx=0.04, t_max=40.0)
    eps = [0.6, 0.8, 1.0, 1.2]
    records = lifespan_scan(cfg, eps)
    assert all(not r.censored for r in records)
    times = [r.t_blowup for r in records]
    assert all(a > b for a, b in zip(times, times[1:]))  # decreasing in eps
    fit = fit_scaling(records)
    assert -1.3 < fit.slope < -0.4
    assert fit.n_used == 4


def test_lifespan_scan_records_equal_run_until_blowup(monkeypatch):
    # each scan record must be the record run_until_blowup gives for the
    # configuration the scan ran last for that eps (horizon sizing and the
    # censored retry included)
    runs = []
    solve = pde._solve

    def spy(cfg, observe=None):
        rec = solve(cfg, observe)
        runs.append((cfg, rec))
        return rec

    monkeypatch.setattr(pde, "_solve", spy)
    records = lifespan_scan(small_cfg(dx=0.05, t_max=2.0), [0.7, 1.0, 1.3])
    monkeypatch.undo()
    assert len(runs) > len(records)
    assert runs[0][1].censored and runs[1][0].t_max == 2.0 * runs[0][0].t_max
    last = {cfg.model.eps: cfg for cfg, _ in runs}
    for rec in records:
        ref, _ = run_until_blowup(last[rec.eps])
        assert rec == ref  # t_blowup, censored, peak, threshold_sensitivity, eps


def test_fit_scaling_synthetic():
    recs = [
        LifespanRecord(eps=e, t_blowup=e**-1.0, censored=False, peak=1.0,
                       threshold_sensitivity=None)
        for e in (0.1, 0.2, 0.4, 0.8)
    ]
    fit = fit_scaling(recs)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_fit_scaling_requires_four_points():
    recs = [
        LifespanRecord(eps=e, t_blowup=1.0 / e, censored=False, peak=1.0,
                       threshold_sensitivity=None)
        for e in (0.1, 0.2)
    ] + [
        LifespanRecord(eps=0.4, t_blowup=None, censored=True, peak=1.0,
                       threshold_sensitivity=None)
    ]
    with pytest.raises(DomainError):
        fit_scaling(recs)


def test_single_eps_scan():
    cfg = small_cfg(dx=0.05, t_max=10.0)
    records = lifespan_scan(cfg, [1.0])
    assert len(records) == 1 and not records[0].censored


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(model=ModelParams(1.0, 1, 2.0), dx=-0.1)
    with pytest.raises(ConfigError):
        RunConfig(model=ModelParams(1.0, 1, 2.0), cfl_safety=1.5)
    with pytest.raises(ConfigError):
        RunConfig(model=ModelParams(1.0, 1, 2.0), t_max=5.0, domain_radius=1.0)
    with pytest.raises(ConfigError):
        ModelParams(1.0, 4, 2.0)  # n > 3 not supported by the radial solver
    with pytest.raises(ConfigError):
        ModelParams(1.0, 1, 2.0, eps=-1.0)


def test_blown_state_rejects_step():
    cfg = small_cfg(dx=0.05)
    state = initialize(cfg)
    while not state.blown_up:
        step(state, cfg)
    with pytest.raises(DomainError):
        step(state, cfg)
