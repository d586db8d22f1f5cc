import math
from dataclasses import replace

import numpy as np
import pytest

import tricomilab.pde_solver as pde
from tricomilab.errors import ConfigError, DomainError
from tricomilab.exponents import ExponentContext, lifespan_law
from tricomilab.specfun import surface_area
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


def _assert_steps_match_full_grid(monkeypatch, *cfgs):
    """Step cfgs as the rows of one batch through the solver's loop and
    compare every row of every level, byte for byte, with the scheme applied
    to its run's whole grid (``_full_grid_step``), and row 0's G, L^p and
    support radius with their full-grid values where the state's arrays span
    that grid (always, for a single run).  A run must be in the batch
    exactly until its reference has blown up (max |u| >= threshold or
    nonfinite) or reached its horizon.  Returns, per run, the steps it took,
    its last live extent, its outer boundary cell and whether it blew up.
    """
    refs = []
    for cfg in cfgs:
        md = cfg.model
        r = np.arange(pde._grid_size(cfg)) * cfg.dx
        u0 = md.eps * np.where(r < md.R, (1.0 - (r / md.R) ** 2) ** 4, 0.0)
        v0 = u0.copy() if cfg.u1_mode == "same" else np.zeros_like(u0)
        refs.append(dict(r=r, u=u0, u_prev=None, dt_prev=0.0, v0=v0, steps=0,
                         live=None, edge=r.size - 1, blown_up=False, done=False))
    order = []  # the state's rows, in the order of cfgs
    real_initialize, real_step = pde.initialize, pde.step

    def traced_initialize(*runs):
        state = real_initialize(*runs)
        order.extend(state.rows)
        return state

    def checked_step(state, cfg):
        rows = [next(i for i, known in enumerate(order) if known is row) for row in state.rows]
        assert rows == [i for i, ref in enumerate(refs) if not ref["done"]]
        t = state.t
        real_step(state, cfg)
        for j, i in enumerate(rows):
            ref, run = refs[i], cfgs[i]
            ref["u"], ref["u_prev"] = _full_grid_step(
                ref["u"], ref["u_prev"], ref["r"], t, state.dt_prev, ref["dt_prev"], run,
                ref["v0"]), ref["u"]
            ref["dt_prev"] = state.dt_prev
            size = ref["r"].size
            row = np.zeros(size)
            row[:min(size, state.u.shape[1])] = state.u[j, :size]
            assert not np.any(state.u[j, size:])  # past the run's own grid
            assert row.tobytes() == ref["u"].tobytes(), (i, ref["steps"])
            spans = state.r.size == size
            assert spans or len(cfgs) > 1  # a single run's arrays span its grid
            if j == 0 and spans and np.all(np.isfinite(ref["u"])):
                # row 0's functionals are full-grid trapezoids
                md, u, r = run.model, ref["u"], ref["r"]
                for fn, values in ((functional_G, u), (functional_lp, np.abs(u) ** md.p)):
                    full = surface_area(md.n) * float(np.trapezoid(values * r ** (md.n - 1),
                                                                    dx=run.dx))
                    assert fn(state, run) == full, (fn.__name__, i, ref["steps"])
                above = np.nonzero(np.abs(u) > 1e-4 * max(1.0, np.max(np.abs(u))))[0]
                assert support_radius(state) == (r[above[-1]] if above.size else 0.0)
            ref["steps"] += 1
            ref["live"] = state.rows[j].live
            ref["blown_up"] = not np.max(np.abs(ref["u"])) < run.blowup_threshold
            ref["done"] = ref["blown_up"] or state.t >= run.t_max
        return state

    monkeypatch.setattr(pde, "initialize", traced_initialize)
    monkeypatch.setattr(pde, "step", checked_step)
    pde._run(*cfgs)
    monkeypatch.undo()
    assert all(ref["done"] for ref in refs)
    return [{k: ref[k] for k in ("steps", "live", "edge", "blown_up")} for ref in refs]


def _runs_at(cfg, *eps_t_max):
    """cfg's runs at each (eps, t_max)."""
    return [replace(cfg, model=replace(cfg.model, eps=e), t_max=h) for e, h in eps_t_max]


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [2.0, 2.7])
@pytest.mark.parametrize("u1_mode", ["same", "zero"])
def test_step_matches_full_grid_scheme(monkeypatch, n, p, u1_mode):
    # the live window is exact: every step of every row is bit-identical to
    # the scheme applied to the row's whole grid; the eps = 0.5 row leaves
    # the batch at its horizon while the eps = 0.8 row runs on.  Its shorter
    # horizon gives it the smaller domain: the arrays start at its edge,
    # which its window reaches, and grow to the others'.
    cfg = small_cfg(model=ModelParams(1.0, n, p), dx=0.05, u1_mode=u1_mode)
    runs = _runs_at(cfg, (0.8, 3.0), (1.5, 3.0), (0.5, 1.5))
    seen = _assert_steps_match_full_grid(monkeypatch, *runs)
    assert seen[2]["steps"] < seen[0]["steps"]
    assert seen[2]["edge"] < seen[0]["edge"] == seen[1]["edge"]
    assert seen[2]["live"] == seen[2]["edge"]


def test_step_matches_full_grid_scheme_through_blowup(monkeypatch):
    # the eps = 1.0 row blows up; the eps = 0.6 row runs on to its horizon
    runs = _runs_at(small_cfg(dx=0.05), (1.0, 12.0), (0.6, 5.0), (0.8, 3.0))
    seen = _assert_steps_match_full_grid(monkeypatch, *runs)
    assert [row["blown_up"] for row in seen] == [True, False, False]
    assert seen[2]["steps"] < seen[0]["steps"] < seen[1]["steps"]
    # alone, the eps = 1.0 run takes the same steps, its functionals checked at each
    assert _assert_steps_match_full_grid(monkeypatch, runs[0]) == seen[:1]


def test_step_matches_full_grid_scheme_at_outer_boundary(monkeypatch):
    # long linear runs: every row's window reaches its outer boundary cell
    # and keeps stepping there, on the domain its horizon sizes
    cfg = RunConfig(model=ModelParams(0.0, 2, 2.0, R=1.0), dx=0.05, linear_only=True)
    runs = _runs_at(cfg, (1.0, 1.0), (0.5, 4.0), (2.0, 2.0))
    seen = _assert_steps_match_full_grid(monkeypatch, *runs)
    assert [row["edge"] for row in seen] == [55, 115, 75]
    assert [row["live"] for row in seen] == [row["edge"] for row in seen]  # windows span the grids
    assert [row["steps"] for row in seen] == [50, 200, 100]


def test_batch_rejects_runs_that_differ_in_the_scheme():
    cfg = small_cfg(dx=0.05)
    initialize(*_runs_at(cfg, (1.0, 2.0), (0.5, 4.0), (1.0, 40.0)))  # three domains
    with pytest.raises(ConfigError, match="share dx,"):
        initialize(cfg, replace(cfg, dx=0.04))
    with pytest.raises(ConfigError, match="share u1_mode,"):
        initialize(cfg, cfg, replace(cfg, u1_mode="zero"))
    with pytest.raises(ConfigError, match="share R,"):
        initialize(cfg, replace(cfg, model=replace(cfg.model, R=2.0)))


def test_zero_front_trails_the_step_count():
    # criterion 8's grid and largest eps: the precursor ahead of the front
    # underflows to 0.0, so the extent stops gaining a cell every step
    cfg = RunConfig(model=ModelParams(1.0, 1, 2.0, eps=1.2), dx=0.02, t_max=60.0,
                    u1_mode="zero")
    state, steps = initialize(cfg), 0
    while not state.rows[0].blown_up:
        step(state, cfg)
        steps += 1
    assert state.rows[0].live < steps
    assert state.rows[0].live < state.rows[0].edge


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
    # the series ends at the last level below the threshold
    assert ser.t[-1] < rec.t_blowup and np.all(ser.max_u < 1e8)
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
    run = pde._run

    def spy(*cfgs, observe=None):
        recs = run(*cfgs, observe=observe)
        runs.extend(zip(cfgs, recs))
        return recs

    monkeypatch.setattr(pde, "_run", spy)
    records = lifespan_scan(small_cfg(dx=0.05, t_max=2.0), [0.7, 1.0, 1.3])
    monkeypatch.undo()
    assert len(runs) > len(records)
    assert runs[0][1].censored and runs[1][0].t_max == 2.0 * runs[0][0].t_max
    last = {cfg.model.eps: cfg for cfg, _ in runs}
    for rec in records:
        ref, _ = run_until_blowup(last[rec.eps])
        assert rec == ref  # t_blowup, censored, peak, threshold_sensitivity, eps


def _reference_scan(cfg, eps_values):
    """lifespan_scan as one one-row ``_run`` per run, in descending eps: horizons
    from the first blow-up, one retry with a doubled horizon when censored.

    Also returns what the runs did: "prefix" when more than one eps ran
    before the horizon law was calibrated, "retry" when a run after the
    calibration was censored, and "edge" when such a run's window reached
    its outer boundary while another such run, on a larger domain, was still
    running.
    """
    md = cfg.model
    theta = lifespan_law(ExponentContext(md.m, md.n, md.p)).theta
    records, facts, later, c_emp, n_prefix = {}, set(), [], None, 0
    for eps in sorted(eps_values, reverse=True):
        n_prefix += c_emp is None
        horizon = cfg.t_max if c_emp is None else min(4.0 * c_emp * eps**-theta, 1e4)
        run = replace(cfg, model=replace(md, eps=eps), t_max=horizon)
        size = pde._grid_size(run)
        edge_t = []
        (rec,) = pde._run(run, observe=lambda s: edge_t.append(s.t)
                          if s.rows[0].live == s.rows[0].edge else None)
        if c_emp is not None:
            later.append((size, edge_t[:1], horizon if rec.censored else rec.t_blowup))
            if rec.censored:
                facts.add("retry")
        if rec.censored:
            (rec,) = pde._run(replace(run, t_max=2.0 * horizon))
        if c_emp is None and rec.t_blowup is not None:
            c_emp = rec.t_blowup * eps**theta
        records[eps] = rec
    if n_prefix > 1:
        facts.add("prefix")
    if any(hit and end > hit[0] and size > size_a
           for size_a, hit, _ in later for size, _, end in later):
        facts.add("edge")
    return [records[e] for e in sorted(eps_values)], facts


@pytest.mark.parametrize("mnp, eps", [
    ((1.0, 1, 2.0), [0.8, 1.1, 1.5, 2.0]),
    ((0.0, 2, 2.0), [1.0, 1.5, 2.0, 3.0]),
    ((0.0, 3, 2.0), [4.0, 5.0, 6.0, 8.0]),
])
@pytest.mark.parametrize("u1_mode", ["same", "zero"])
def test_row_batch_equals_one_run_per_eps(mnp, eps, u1_mode):
    cfg = small_cfg(model=ModelParams(*mnp), dx=0.1, t_max=30.0, u1_mode=u1_mode)
    ref, _ = _reference_scan(cfg, eps)
    assert lifespan_scan(cfg, eps) == ref


@pytest.mark.parametrize("mnp, grid, eps, facts", [
    # the largest eps crosses the threshold at once, so the horizons of the
    # rest are too short: every batched row is censored and retried
    ((1.0, 1, 2.0), dict(t_max=5.0, blowup_threshold=1.5), [0.9, 1.0, 1.2, 2.0], {"retry"}),
    # long m = 0 runs on a coarse grid: windows reach the outer boundary
    # of the smaller domains while the smallest eps runs on
    ((0.0, 1, 3.0), dict(t_max=20.0, u1_mode="zero"), [0.7, 1.0, 3.0], {"edge"}),
    # nothing blows up, so every run is one of the prefix; no batch
    ((1.0, 1, 2.0), dict(t_max=1.0), [0.5, 0.7, 1.0], {"prefix"}),
    # the first run is censored and its retry calibrates the horizons
    ((1.0, 1, 2.0), dict(t_max=2.0), [0.7, 1.0, 1.3], set()),
    ((1.0, 1, 2.0), dict(), [1.0], set()),  # one eps: no batch
])
def test_row_batch_equals_one_run_per_eps_edge_cases(mnp, grid, eps, facts):
    cfg = small_cfg(model=ModelParams(*mnp), **{"dx": 0.1, **grid})
    ref, seen = _reference_scan(cfg, eps)
    assert seen == facts
    assert lifespan_scan(cfg, eps) == ref


def test_row_batch_levels_equal_single_runs(monkeypatch):
    # every level of every row, its boundary cell included, is bit-identical
    # to the single run's: the eps = 1.0 row blows up after its frontier
    # reached its outer boundary, the eps = 0.5 row is censored, and the
    # eps = 0.7 row on the largest domain runs on after both left
    cfg = small_cfg(model=ModelParams(0.0, 1, 3.0), dx=0.1, u1_mode="zero")
    runs = [replace(cfg, model=replace(cfg.model, eps=e), t_max=h)
            for e, h in ((1.0, 24.0), (0.5, 12.0), (0.7, 60.0))]
    seen = []
    amplitude = pde._amplitude
    monkeypatch.setattr(pde, "_amplitude", lambda u: seen.append(u.copy()) or amplitude(u))
    singles = []
    for run in runs:
        seen.clear()
        pde._run(run)
        singles.append([u[0] for u in seen])  # the initial data, then each level's window
    seen.clear()
    pde._run(*runs)
    batch = seen[:]
    assert len(batch) == max(len(levels) for levels in singles)
    for k, rows in enumerate(batch):
        active = [levels[k] for levels in singles if k < len(levels)]
        assert rows.shape[0] == len(active)
        for row, single in zip(rows, active):
            width = max(row.size, single.size)
            assert (np.pad(row, (0, width - row.size)).tobytes()
                    == np.pad(single, (0, width - single.size)).tobytes()), k


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
    for dx in (math.inf, 1.0):  # the data support R = 1 must span a cell
        with pytest.raises(ConfigError):
            RunConfig(model=ModelParams(1.0, 1, 2.0), dx=dx)
    with pytest.raises(ConfigError):
        RunConfig(model=ModelParams(1.0, 1, 2.0), cfl_safety=1.5)
    with pytest.raises(ConfigError):
        ModelParams(1.0, 4, 2.0)  # n > 3 not supported by the radial solver
    with pytest.raises(ConfigError):
        ModelParams(1.0, 1, 2.0, eps=-1.0)
    for bad in (dict(m=math.inf), dict(p=math.inf), dict(R=math.inf), dict(eps=math.inf)):
        with pytest.raises(ConfigError):
            ModelParams(**{"m": 1.0, "n": 1, "p": 2.0, **bad})


def test_blown_state_rejects_step():
    cfg = small_cfg(dx=0.05)
    state = initialize(cfg)
    while not state.rows[0].blown_up:
        step(state, cfg)
    with pytest.raises(DomainError):
        step(state, cfg)
