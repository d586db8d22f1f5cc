import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import tricomilab.pde_solver as pde
from tricomilab.errors import ConfigError, DomainError
from tricomilab.exponents import ExponentContext, lifespan_law, pow_or_inf
from tricomilab.specfun import surface_area
from tricomilab.testfun import eta_q
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


def radial_laplacian(u: np.ndarray, r: np.ndarray, dx: float, n: int) -> np.ndarray:
    """3-point radial Laplacian u_rr + (n-1)/r u_r over the last axis of u;
    n*u_rr at the origin, 0 at the last cell.  ``pde._next_level`` runs the
    same operations in place; this is the full-grid reference."""
    lap = np.zeros_like(u)
    lap[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / dx**2
    if n > 1:
        lap[..., 1:-1] += (n - 1.0) / r[1:-1] * (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
    lap[..., 0] = n * 2.0 * (u[..., 1] - u[..., 0]) / dx**2
    return lap


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


def _assert_steps_match_full_grid(monkeypatch, cfg, pairs):
    """Step cfg's runs at each (eps, t_max) of pairs (none: cfg's own run) as
    the rows of one batch through the solver's loop and compare every row of
    every level, byte for byte, with the scheme applied to its run's whole
    grid (``_full_grid_step``), and row 0's G, L^p and
    support radius with their full-grid values where the state's arrays span
    that grid (always, for a single run): the support radius byte for byte,
    G and L^p, which the solver sums over the live window only, to 1e-13
    relative of the full-grid trapezoid.  A run must be in the batch
    exactly until its reference has blown up (max |u| >= threshold or
    nonfinite) or reached its horizon.  Returns, per run, the steps it took,
    its last live extent, its outer boundary cell and whether it blew up.
    """
    cfgs = _runs_at(cfg, *pairs) if pairs else [cfg]
    refs = []
    for run in cfgs:
        md = run.model
        r = np.arange(pde._grid_size(run)) * run.dx
        u0 = md.eps * np.where(r < md.R, (1.0 - (r / md.R) ** 2) ** 4, 0.0)
        v0 = u0.copy() if run.u1_mode == "same" else np.zeros_like(u0)
        refs.append(dict(r=r, u=u0, u_prev=None, dt_prev=0.0, v0=v0, steps=0,
                         live=None, edge=r.size - 1, blown_up=False, done=False))
    order = []  # the state's rows, in the order of cfgs
    real_initialize, real_step = pde.initialize, pde.step

    def traced_initialize(cfg, *runs):
        state = real_initialize(cfg, *runs)
        order.extend(state.rows)
        return state

    def checked_step(state, step_cfg):
        assert step_cfg is cfg
        rows = [next(i for i, known in enumerate(order) if known is row) for row in state.rows]
        assert rows == [i for i, ref in enumerate(refs) if not ref["done"]]
        t = state.t
        real_step(state, step_cfg)
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
                # row 0's functionals are full-grid trapezoids, summed in another order
                md, u, r = run.model, ref["u"], ref["r"]
                for fn, values in ((functional_G, u), (functional_lp, np.abs(u) ** md.p)):
                    full = surface_area(md.n) * float(np.trapezoid(values * r ** (md.n - 1),
                                                                    dx=run.dx))
                    assert abs(fn(state, run) - full) <= 1e-13 * abs(full), (
                        fn.__name__, i, ref["steps"])
                above = np.nonzero(np.abs(u) > 1e-4 * max(1.0, np.max(np.abs(u))))[0]
                assert support_radius(state) == (r[above[-1]] if above.size else 0.0)
            ref["steps"] += 1
            ref["live"] = state.rows[j].live
            ref["blown_up"] = not np.max(np.abs(ref["u"])) < run.blowup_threshold
            ref["done"] = ref["blown_up"] or state.t >= run.t_max
        return state

    monkeypatch.setattr(pde, "initialize", traced_initialize)
    monkeypatch.setattr(pde, "step", checked_step)
    pde._run(cfg, *pairs)
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
    seen = _assert_steps_match_full_grid(monkeypatch, cfg, [(0.8, 3.0), (1.5, 3.0), (0.5, 1.5)])
    assert seen[2]["steps"] < seen[0]["steps"]
    assert seen[2]["edge"] < seen[0]["edge"] == seen[1]["edge"]
    assert seen[2]["live"] == seen[2]["edge"]


def test_step_matches_full_grid_scheme_through_blowup(monkeypatch):
    # the eps = 1.0 row blows up; the eps = 0.6 row runs on to its horizon
    cfg = small_cfg(dx=0.05)  # eps 1.0, t_max 12.0
    seen = _assert_steps_match_full_grid(monkeypatch, cfg, [(1.0, 12.0), (0.6, 5.0), (0.8, 3.0)])
    assert [row["blown_up"] for row in seen] == [True, False, False]
    assert seen[2]["steps"] < seen[0]["steps"] < seen[1]["steps"]
    # alone, the eps = 1.0 run takes the same steps, its functionals checked at each
    assert _assert_steps_match_full_grid(monkeypatch, cfg, []) == seen[:1]


def test_step_matches_full_grid_scheme_at_outer_boundary(monkeypatch):
    # long linear runs: every row's window reaches its outer boundary cell
    # and keeps stepping there, on the domain its horizon sizes
    cfg = RunConfig(model=ModelParams(0.0, 2, 2.0, R=1.0), dx=0.05, cfl_safety=0.4,
                    linear_only=True)
    seen = _assert_steps_match_full_grid(monkeypatch, cfg, [(1.0, 1.0), (0.5, 4.0), (2.0, 2.0)])
    assert [row["edge"] for row in seen] == [55, 115, 75]
    assert [row["live"] for row in seen] == [row["edge"] for row in seen]  # windows span the grids
    assert [row["steps"] for row in seen] == [50, 200, 100]


def _full_grid_run(cfg):
    """run_until_blowup written out on the run's whole grid: every level by
    ``_full_grid_step``, every functional over every cell (np.trapezoid,
    eta_q at every radius).  Returns the blow-up time (None if censored),
    the series as a dict of lists, and the last level."""
    md = cfg.model
    r = np.arange(pde._grid_size(cfg)) * cfg.dx
    u = md.eps * np.where(r < md.R, (1.0 - (r / md.R) ** 2) ** 4, 0.0)
    v0 = u.copy() if cfg.u1_mode == "same" else np.zeros_like(u)
    u_prev, t, dt_prev = None, 0.0, 0.0
    f_next, f_stride = 0.0, cfg.t_max / max(1, cfg.n_f_samples)
    ser = {k: [] for k in ("t", "max_u", "g", "lp", "support_radius", "f_times", "f_values")}

    def integral(values):
        return surface_area(md.n) * float(np.trapezoid(values * r ** (md.n - 1), dx=cfg.dx))

    def observe():
        nonlocal f_next
        a = np.abs(u)
        amp = float(np.max(a))
        above = np.nonzero(a > 1e-4 * max(1.0, amp))[0]
        for key, value in (("t", t), ("max_u", amp), ("g", integral(u)),
                           ("lp", integral(a ** md.p)),
                           ("support_radius", float(r[above[-1]]) if above.size else 0.0)):
            ser[key].append(value)
        if cfg.track_f and t >= f_next:
            ser["f_times"].append(t)
            ser["f_values"].append(integral(u * eta_q(r, t, t, cfg.default_testfn())))
            f_next += f_stride

    observe()
    while True:
        dt = pde._pick_dt(cfg, t)
        u, u_prev = _full_grid_step(u, u_prev, r, t, dt, dt_prev, cfg, v0), u
        t, dt_prev = t + dt, dt
        if not np.max(np.abs(u)) < cfg.blowup_threshold:
            return t, ser, u
        observe()
        if t >= cfg.t_max:
            return None, ser, u


@pytest.mark.parametrize("n, eps", [(1, 1.0), (2, 2.0), (3, 6.0)])
@pytest.mark.parametrize("linear", [False, True])
def test_run_until_blowup_matches_full_grid_run(n, eps, linear):
    # the per-step scalars and F read only the live window: t, max|u|, the
    # support radius and T are bit-identical to the whole grid's, and G, L^p
    # and F, summed in another order, agree to 1e-13 relative
    cfg = RunConfig(ModelParams(0.0 if linear else 1.0, n, 2.0, eps=eps), dx=0.05,
                    t_max=2.0 if linear else 12.0, linear_only=linear, track_f=True,
                    n_f_samples=4)
    t_blowup, ref, u_last = _full_grid_run(cfg)
    rec, ser = run_until_blowup(cfg)
    assert rec.t_blowup == t_blowup and (t_blowup is None) == linear
    if linear:  # the nonzero cells reach the cell before the held outer boundary
        assert np.flatnonzero(u_last)[-1] == pde._grid_size(cfg) - 2
    for key in ("t", "max_u", "support_radius", "f_times"):
        assert getattr(ser, key).tobytes() == np.asarray(ref[key]).tobytes(), key
    assert len(ser.f_times) >= 2
    for key, got in (("g", ser.g), ("lp", ser.lp), ("f_values", ser.f_values)):
        want = np.asarray(ref[key])
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), key


def test_f_tracked_simulate_takes_eta_q_only_inside_the_live_window(monkeypatch, tmp_path):
    # u is exactly 0.0 from row 0's live extent on, so F never pays for eta_q there
    from tricomilab.cli import EXIT_OK, dispatch

    extents, calls = [], []
    real_f, real_eta = pde.functional_F, pde.eta_q

    def spied_f(state, cfg):
        extents.append(state.r[state.rows[0].live])
        return real_f(state, cfg)

    def spied_eta(x_norm, t, s, p):
        calls.append((np.max(x_norm), extents[-1]))
        return real_eta(x_norm, t, s, p)

    monkeypatch.setattr(pde, "functional_F", spied_f)
    monkeypatch.setattr(pde, "eta_q", spied_eta)
    argv = ["simulate", "--set", "model.m=1", "--set", "model.n=1", "--set", "model.p=2",
            "--set", "grid.dx=0.05", "--set", "grid.t_max=3", "--set", "grid.n_f_samples=8",
            "--output", str(tmp_path / "run.csv")]
    assert dispatch(argv) == EXIT_OK
    assert len(calls) == len(extents) >= 8
    assert all(radius < extent for radius, extent in calls)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_f_tracked_simulate_makes_no_quadrature_call(monkeypatch, tmp_path, n):
    # F's diagonal eta_q is the sphere average of the Kummer kernel at every
    # n the solver supports, so the lambda-quadrature is never called
    from tricomilab import testfun
    from tricomilab.cli import EXIT_OK, dispatch

    def refuse(*args, **kwargs):
        raise AssertionError("lambda-quadrature called by F")

    monkeypatch.setattr(testfun, "integrate_lambda_weighted", refuse)
    out = tmp_path / "run.csv"
    argv = ["simulate", "--set", "model.m=1", "--set", f"model.n={n}", "--set", "model.p=2",
            "--set", "grid.dx=0.05", "--set", "grid.t_max=3", "--set", "grid.n_f_samples=8",
            "--output", str(out)]
    assert dispatch(argv) == EXIT_OK
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    col = lines[0].split(",").index("f")
    f = [float(ln.split(",")[col]) for ln in lines[1:] if ln.split(",")[col]]
    assert len(f) >= 8 and all(math.isfinite(v) and v > 0 for v in f)


def test_pick_dt_shrinks_where_the_speed_overflows():
    # m = 1e6: t^{m/2} leaves the double range just past t = 1, so the
    # fixed-point trial steps overflow there; the step taken instead keeps the
    # CFL rule at its end with a finite speed, and the run reaches t = 1
    cfg = RunConfig(ModelParams(1e6, 1, 2.0), t_max=1.0)
    floor = math.sqrt(cfg.dx)
    for t in (0.97, 0.999, 0.99999, 1.0, 1.0000036):
        dt = pde._pick_dt(cfg, t)
        speed = (t + dt) ** (cfg.model.m / 2.0)
        assert t + dt > t and dt * max(speed, floor) <= cfg.cfl_safety * cfg.dx, t
    rec, ser = run_until_blowup(cfg)
    assert rec.censored and ser.t[-2] < 1.0 <= ser.t[-1] < 1.0 + 1e-5
    # where the speed at t itself overflows, no step can keep the rule
    with pytest.raises(DomainError, match="within any step"):
        pde._pick_dt(cfg, 1.01)


def test_pick_dt_unchanged_where_the_fixed_point_is_finite():
    # the halving never runs on an ordinary step: dt is the 4-pass fixed point
    cfg = small_cfg()
    for t in (0.0, 0.3, 2.0, 7.5):
        dt = 0.0
        for _ in range(4):
            dt = cfg.cfl_safety * cfg.dx / max((t + dt) ** (cfg.model.m / 2.0), math.sqrt(cfg.dx))
        assert pde._pick_dt(cfg, t) == dt


def _pick_dt_four_passes(cfg, t):
    """``_pick_dt`` with all four fixed-point passes always taken."""
    m, floor = cfg.model.m, math.sqrt(cfg.dx)
    dt = trial = 0.0
    for _ in range(4):
        speed = pow_or_inf(t + dt, m / 2.0)
        if speed == math.inf:
            break
        trial, dt = dt, cfg.cfl_safety * cfg.dx / max(speed, floor)
    else:
        if t + dt > t:
            return dt
        dt = trial
    while t + dt > t:
        dt *= 0.5
        if dt * max(pow_or_inf(t + dt, m / 2.0), floor) <= cfg.cfl_safety * cfg.dx:
            return dt
    raise DomainError("no step")


def test_pick_dt_stops_at_a_repeated_dt_with_the_four_pass_value():
    # a repeated dt gives the same next pass, so stopping there keeps every
    # bit: seeded (m, t, dx, cfl_safety), in the floor phase t^{m/2} < sqrt(dx)
    # and past it, plus the halving steps of test_pick_dt_shrinks_where_the_speed_overflows
    rng = np.random.default_rng(31)
    cases = [(float(rng.uniform(0.0, 8.0)), float(10.0 ** rng.uniform(-8.0, 3.0)),
              float(rng.choice([0.005, 0.02, 0.1])), float(rng.uniform(0.1, 0.9)))
             for _ in range(200)]
    cases += [(1e6, t, 0.02, 0.6) for t in (0.97, 0.999, 0.99999, 1.0, 1.0000036)]
    floored = 0
    for m, t, dx, cfl in cases + [(m, 0.0, dx, cfl) for m, _, dx, cfl in cases[:5]]:
        cfg = RunConfig(ModelParams(m, 1, 2.0), dx=dx, cfl_safety=cfl)
        assert pde._pick_dt(cfg, t) == _pick_dt_four_passes(cfg, t), (m, t, dx, cfl)
        floored += pow_or_inf(t, m / 2.0) < math.sqrt(dx)
    assert 40 <= floored <= len(cases) - 40


def test_default_courant_number_is_below_the_derived_stability_limit():
    # the module docstring's limit: rho dx^2 of the operator _next_level
    # applies, one basis vector per row (linear, m = 0, u_prev = u and
    # dt = dt_prev = dx, so the new level is u + dx^2 L_h u)
    size = 200
    for n, rho_dx2 in ((1, 4.0), (2, 4.842), (3, 6.0)):
        cfg = RunConfig(ModelParams(0.0, n, 2.0), linear_only=True)
        u = np.asfortranarray(np.eye(size))
        new = u.copy(order="F")
        pde._next_level(cfg, u, new, np.arange(size) * cfg.dx, 1.0, cfg.dx, cfg.dx,
                        np.empty((2, u.size)))
        rho = np.max(np.abs(np.linalg.eigvals(new - u)))
        assert abs(rho - rho_dx2) <= 1e-3, n
        assert RunConfig.cfl_safety < 0.75 * 2.0 / math.sqrt(rho)
        # at the default, long linear runs stay bounded
        (rec,) = pde._run(replace(cfg, t_max=25.0))
        assert rec.censored and rec.peak < 1.1, n
    # past n = 3's limit of 0.816 the scheme blows up
    (rec,) = pde._run(replace(cfg, t_max=25.0, cfl_safety=0.85))
    assert not rec.censored


def test_zero_front_trails_the_step_count():
    # criterion 8's grid and largest eps at cfl_safety 0.4: the precursor
    # ahead of the front underflows to 0.0, so the extent stops gaining a
    # cell every step (at the default 0.6 it passes the step count)
    cfg = RunConfig(model=ModelParams(1.0, 1, 2.0, eps=1.2), dx=0.02, t_max=60.0,
                    cfl_safety=0.4, u1_mode="zero")
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


def test_derived_domain_reflection_error(monkeypatch):
    # a domain wider by 2 keeps the record and moves G by the reflection
    # error that domain_radius states, 7.1e-10 relative at the horizon
    cfg = RunConfig(model=ModelParams(2.0, 1, 3.0, eps=0.1), dx=0.05, t_max=5.0)
    rec, ser = run_until_blowup(cfg)
    assert rec.censored and cfg.domain_radius() == 14.25
    derived = RunConfig.domain_radius
    monkeypatch.setattr(RunConfig, "domain_radius", lambda self: derived(self) + 2.0)
    wide_rec, wide = run_until_blowup(cfg)
    assert wide_rec == rec and np.array_equal(wide.t, ser.t)
    assert np.max(np.abs(wide.g / ser.g - 1.0)) <= 1e-9


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

    def spy(cfg, *pairs, observe=None):
        recs = run(cfg, *pairs, observe=observe)
        runs.extend(zip(_runs_at(cfg, *pairs), recs))
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
    ((0.0, 1, 3.0), dict(t_max=20.0, cfl_safety=0.4, u1_mode="zero"), [0.7, 1.0, 3.0],
     {"edge"}),
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
    # every level of every row, all its cells included, is bit-identical to
    # the single run's: the eps = 1.0 row blows up after its frontier
    # reached its outer boundary, the eps = 0.5 row is censored, and the
    # eps = 0.7 row on the largest domain runs on after both left.  The
    # levels are taken from step itself, so a run's level count is its step
    # count on the time grid the runs share
    cfg = small_cfg(model=ModelParams(0.0, 1, 3.0), dx=0.1, u1_mode="zero")
    runs = [(1.0, 24.0), (0.5, 12.0), (0.7, 60.0)]
    grid = [0.0]
    while grid[-1] < max(t_max for _, t_max in runs):
        grid.append(grid[-1] + pde._pick_dt(cfg, grid[-1]))
    real_step, on_level = pde.step, None

    def level_step(state, step_cfg):
        real_step(state, step_cfg)
        on_level(state)
        return state

    monkeypatch.setattr(pde, "step", level_step)
    singles = []
    for run in runs:
        levels = []
        on_level = lambda state: levels.append((state.t, state.u[0].copy()))
        (rec,) = pde._run(cfg, run)
        steps = (grid.index(rec.t_blowup) if not rec.censored
                 else next(k for k, t in enumerate(grid) if t >= run[1]))
        assert [t for t, _ in levels] == grid[1:steps + 1]
        singles.append([u for _, u in levels])
    assert sorted(len(levels) for levels in singles)[0] > 100
    batch = []

    def check_batch(state):  # each batch level, as it comes
        k = len(batch)
        active = [levels[k] for levels in singles if k < len(levels)]
        assert state.u.shape[0] == len(active)
        for row, single in zip(state.u, active):
            width = max(row.size, single.size)
            assert (np.pad(row, (0, width - row.size)).tobytes()
                    == np.pad(single, (0, width - single.size)).tobytes()), k
        batch.append(state.t)

    on_level = check_batch
    pde._run(cfg, *runs)
    assert batch == grid[1:max(len(levels) for levels in singles) + 1]


def test_batch_arrays_stay_column_major(monkeypatch):
    # u and u_prev stay F-ordered through initialize, growth and the row
    # drop of _run, so a step's window u[:, :w] is one contiguous block.  A
    # fall-back to C order would keep every bit and lose the speed, so only
    # this test sees it
    cfg = small_cfg(model=ModelParams(0.0, 1, 3.0), dx=0.1, u1_mode="zero")
    real_initialize, real_step = pde.initialize, pde.step
    seen = []

    def checked(state):
        w = max(min(row.live + 2, row.edge + 1) for row in state.rows)
        for a in (state.u, state.u_prev):
            assert a.flags.f_contiguous and a[:, :w].flags.f_contiguous
        seen.append((len(state.rows), state.r.size))

    def checked_initialize(cfg, *runs):
        state = real_initialize(cfg, *runs)
        checked(state)
        return state

    def checked_step(state, step_cfg):
        checked(state)  # after _run dropped the rows that left
        real_step(state, step_cfg)
        checked(state)
        return state

    monkeypatch.setattr(pde, "initialize", checked_initialize)
    monkeypatch.setattr(pde, "step", checked_step)
    pde._run(cfg, (1.0, 24.0), (0.5, 12.0), (0.7, 60.0))
    rows = [k for k, _ in seen]
    assert rows[0] == 3 and sorted(set(rows)) == [1, 2, 3]  # rows left mid-run
    assert len({size for k, size in seen if k > 1}) > 1  # multi-row arrays grew


def test_batch_step_allocates_less_than_a_window():
    # after a warm-up, 50 steps of a 3-row batch allocate less than one
    # (rows x window) block at their peak: the new level is written in place
    # into u_prev's buffer, through the state's scratch blocks
    cfg = small_cfg()
    state = initialize(cfg, (1.0, 12.0), (0.8, 12.0), (0.6, 12.0))
    tracemalloc.start()
    try:
        for _ in range(200):
            step(state, cfg)
        size, base = state.r.size, tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in range(50):
            step(state, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert state.r.size == size  # no growth among the measured steps
    w = max(min(row.live + 2, row.edge + 1) for row in state.rows)
    assert peak < len(state.rows) * w * 8, (peak, w)


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
