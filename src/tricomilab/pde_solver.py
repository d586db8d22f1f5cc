"""Radial finite-difference simulation of u_tt - t^m Lap(u) = |u|^p.

Explicit central time stepping on a uniform radial grid for n in {1, 2, 3},
with compactly supported data u(0) = eps u0, u_t(0) = eps u1.  The wave
speed t^{m/2} grows with time, so the step obeys a time-dependent CFL rule

    dt_k = cfl_safety * dx / max(t_{k+1}^{m/2}, sqrt(dx)),

where the sqrt(dx) floor keeps the Taylor start near the degenerate t = 0
accurate.  Because dt varies, the update uses the nonuniform-step central
formula (it reduces to plain leapfrog for constant dt):

    u^{k+1} = u^k + (dt_k/dt_{k-1}) (u^k - u^{k-1})
              + dt_k (dt_k + dt_{k-1})/2 * (t_k^m Lap_h(u^k) + |u^k|^p).

Each step updates only the live window: the cells below the live extent
(past it u and u_prev are exactly 0.0), the frontier cell at the extent and
one zero ghost cell.  The extent starts at the support of the data and
moves on one cell only when the frontier cell just computed is not exactly
0.0 (the held outer boundary cell never is).  The window is exact: the
3-point scheme moves information by at most one cell per step, and a cell
whose inputs are all exactly zero stays exactly zero, so the update is
bit-identical to the full-grid one.  The scheme's precursor ahead of the
front underflows to 0.0, so the extent trails the step count.

dt depends only on (t, dx, m, cfl_safety), so runs that differ only in eps
and t_max step as the rows of one ``SolverState``, each with its own extent,
outer boundary cell and amplitude history; a row leaves at a blow-up
threshold crossing (with a threshold-sensitivity diagnostic), at a
nonfinite value, or censored at its horizon.  A single run is a one-row
state, whose tracked functionals span its whole grid: G(t) = int u dx,
int |u|^p dx, F(t) = int u(x,t) eta_q(x,t,t) dx, the support radius and the
peak amplitude.  ``lifespan_scan`` sweeps eps, subcritical only (the regime
and the eps-exponent come from ``exponents.lifespan_law``), keeping only
each run's record; ``fit_scaling`` fits its slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import ConfigError, DomainError
from .exponents import ExponentContext, lifespan_law, pow_or_inf, q_choice
from .specfun import surface_area
from .testfun import TestFnParams, eta_q
from .tricomi_ode import phi_of_t

# unused here; re-exported because the benchmark tracer wraps this name in this module
from .exponents import gamma_mnp  # noqa: F401


@dataclass(frozen=True)
class ModelParams:
    """Equation and data parameters: exponents (m,n,p), support radius R, eps."""

    m: float
    n: int
    p: float
    R: float = 1.0
    eps: float = 1.0

    def __post_init__(self):
        if not 0 <= self.m < math.inf:
            raise ConfigError(f"m must be finite and >= 0, got {self.m}")
        if self.n not in (1, 2, 3):
            raise ConfigError(f"radial solver supports n in {{1,2,3}}, got {self.n}")
        if not 1 < self.p < math.inf:
            raise ConfigError(f"p must be finite and > 1, got {self.p}")
        if not 0 < self.R < math.inf:
            raise ConfigError(f"R must be finite and > 0, got {self.R}")
        if not 0 <= self.eps < math.inf:
            raise ConfigError(f"eps must be finite and >= 0, got {self.eps}")


@dataclass(frozen=True)
class RunConfig:
    """One simulation: model, grid resolution, horizon, and tracking options.

    The domain is derived, not set: ``domain_radius`` covers the support
    cone R + phi(t_max) of the data plus a margin (finite propagation speed).
    """

    model: ModelParams
    dx: float = 0.02
    t_max: float = 10.0
    cfl_safety: float = 0.4
    blowup_threshold: float = 1e8
    u1_mode: str = "same"  # "same" -> u1 = u0, "zero" -> u1 = 0
    linear_only: bool = False
    track_f: bool = False
    n_f_samples: int = 64

    def __post_init__(self):
        if not 0 < self.dx < self.model.R:
            raise ConfigError(f"dx must be in (0, R) so the data span a cell, got {self.dx}")
        if not 0 < self.cfl_safety < 1:
            raise ConfigError(f"cfl_safety must be in (0,1), got {self.cfl_safety}")
        if not 0 < self.t_max < math.inf:
            raise ConfigError(f"t_max must be finite and > 0, got {self.t_max}")
        if self.u1_mode not in ("same", "zero"):
            raise ConfigError(f"u1_mode must be 'same' or 'zero', got {self.u1_mode}")
        if not self.blowup_threshold > 1:
            raise ConfigError("blowup_threshold must be > 1")

    def domain_radius(self) -> float:
        """R + phi(t_max), the support cone at the horizon, plus a margin."""
        cone = self.model.R + phi_of_t(self.model.m, self.t_max)
        return cone + 5.0 * self.dx + max(0.5, 5.0 * self.dx)

    def default_testfn(self) -> TestFnParams:
        md = self.model
        return TestFnParams(
            q=q_choice(md.n, md.p), lambda0=0.5, R=md.R, n=md.n, m=md.m
        )


@dataclass(frozen=True)
class LifespanRecord:
    """One sweep point: eps, the blow-up time (None if censored), diagnostics."""

    eps: float
    t_blowup: float | None
    censored: bool
    peak: float
    threshold_sensitivity: float | None


@dataclass
class _Row:
    """One run's row of a ``SolverState``: its eps and horizon, its live
    extent and outer boundary cell, and its amplitude history (the peak, the
    first time it reached blowup_threshold/100, and the blow-up time)."""

    eps: float
    t_max: float
    live: int
    edge: int
    peak: float = 0.0
    t_low: float | None = None
    blown_up: bool = False
    blowup_time: float | None = None

    def note(self, amp: float, t: float, threshold: float) -> None:
        """Take in max|u| of the level at time t; a nonfinite one is blow-up."""
        amp = amp if math.isfinite(amp) else math.inf
        self.peak = max(self.peak, amp)
        if amp >= threshold / 100.0 and self.t_low is None:
            self.t_low = t
        if amp >= threshold:
            self.blown_up, self.blowup_time = True, t

    def record(self) -> LifespanRecord:
        """The run's record; censored unless it blew up."""
        t_b = self.blowup_time
        return LifespanRecord(
            eps=self.eps,
            t_blowup=t_b,
            censored=not self.blown_up,
            peak=self.peak,
            threshold_sensitivity=None if t_b is None else (t_b - self.t_low) / t_b,
        )


@dataclass
class SolverState:
    """Mutable stepping state of runs that differ only in eps and t_max, one
    row per run; the runs own their state exclusively.

    u and u_prev are (rows, width) arrays over the radii r.  The width starts
    at the smallest domain of the rows, so a single run's arrays span its
    whole grid, and grows by doubling up to the largest.  Row i is exactly
    0.0 from ``rows[i].live`` on.  ``step`` recycles the buffer of u_prev
    (zero before the first step) for the new level.
    """

    r: np.ndarray
    u: np.ndarray
    u_prev: np.ndarray
    t: float
    dt_prev: float
    rows: list[_Row]


@dataclass(frozen=True)
class TimeSeries:
    """Per-step scalars plus sparsely sampled weighted functional F."""

    t: np.ndarray
    max_u: np.ndarray
    g: np.ndarray
    lp: np.ndarray
    support_radius: np.ndarray
    f_times: np.ndarray
    f_values: np.ndarray


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float
    n_used: int

    # a class constant, not a field: every fit carries the same note
    note = (
        "theory slope comes from the lifespan upper bound; the fit tests "
        "consistency with that exponent, not sharpness"
    )


def _bump(r: np.ndarray, radius: float) -> np.ndarray:
    inside = r < radius
    prof = np.zeros_like(r)
    prof[inside] = (1.0 - (r[inside] / radius) ** 2) ** 4
    return prof


def _grid_size(cfg: RunConfig) -> int:
    """Number of grid points r_i = i dx of the run's domain, boundary included
    (more than 11, as dx < R and the margin spans 10 cells)."""
    return int(math.ceil(cfg.domain_radius() / cfg.dx)) + 1


def _shared_config(cfgs) -> RunConfig:
    """The configuration runs step with; a ConfigError names the first field
    other than eps and t_max where they differ."""
    for cfg in cfgs[1:]:
        for ours, theirs in ((cfgs[0], cfg), (cfgs[0].model, cfg.model)):
            for name in (f.name for f in fields(ours)):
                a, b = getattr(ours, name), getattr(theirs, name)
                if name not in ("model", "eps", "t_max") and a != b:
                    raise ConfigError(f"batched runs must share {name}, got {a!r} and {b!r}")
    return cfgs[0]


def initialize(*cfgs: RunConfig) -> SolverState:
    """Sample the initial data eps*u0 of each run, one row per run, on the
    radial grid; the runs may differ only in eps and t_max (and so in the
    domain)."""
    cfg = _shared_config(cfgs)
    edges = [_grid_size(c) - 1 for c in cfgs]
    r = np.arange(min(edges) + 1) * cfg.dx  # the smallest domain
    u = np.array([c.model.eps for c in cfgs])[:, None] * _bump(r, cfg.model.R)
    live = int(np.count_nonzero(r < cfg.model.R))
    rows = [_Row(c.model.eps, c.t_max, live, edge, peak=amp)
            for c, edge, amp in zip(cfgs, edges, _amplitude(u).tolist())]
    return SolverState(r=r, u=u, u_prev=np.zeros_like(u), t=0.0, dt_prev=0.0, rows=rows)


def radial_laplacian(u: np.ndarray, r: np.ndarray, dx: float, n: int) -> np.ndarray:
    """3-point radial Laplacian u_rr + (n-1)/r u_r over the last axis of u;
    n*u_rr at the origin, 0 at the last cell."""
    lap = np.zeros_like(u)
    lap[..., 1:-1] = (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / dx**2
    if n > 1:
        lap[..., 1:-1] += (n - 1.0) / r[1:-1] * (u[..., 2:] - u[..., :-2]) / (2.0 * dx)
    lap[..., 0] = n * 2.0 * (u[..., 1] - u[..., 0]) / dx**2
    return lap


def _pick_dt(cfg: RunConfig, t: float) -> float:
    """The CFL step from t; a DomainError where the speed t^{m/2} leaves the
    double range (an infinite speed would stall the run at dt = 0)."""
    m = cfg.model.m
    floor = math.sqrt(cfg.dx)
    dt = 0.0
    for _ in range(4):  # dt depends on t_{k+1}; fixed point converges fast
        speed = pow_or_inf(t + dt, m / 2.0)
        if speed == math.inf:
            raise DomainError(f"wave speed t^(m/2) leaves the double range at "
                              f"t={t + dt:.12g}, m={m:.12g}")
        dt = cfg.cfl_safety * cfg.dx / max(speed, floor)
    return dt


def _next_level(cfg: RunConfig, u, u_prev, r, t: float, dt: float, dt_prev: float):
    """The scheme's next level over the last axis of the window u at time t;
    u_prev None is the Taylor start from the data u = u0, u1 = u0 or 0:
    u(dt) = u0 + dt u1 + dt^2/2 (t^m Lap u0 + |u0|^p)|_{t=0} (the degenerate
    factor t^m kills the Laplacian term for m > 0)."""
    md = cfg.model
    rhs = t**md.m * radial_laplacian(u, r, cfg.dx, md.n)
    if not cfg.linear_only:
        rhs = rhs + np.abs(u) ** md.p
    if u_prev is None:
        v0 = u if cfg.u1_mode == "same" else np.zeros_like(u)
        return u + dt * v0 + 0.5 * dt * dt * rhs
    return u + dt / dt_prev * (u - u_prev) + 0.5 * dt * (dt + dt_prev) * rhs


def _amplitude(u):
    """max |u| over the last axis (nan where a value is nan)."""
    return np.abs(u).max(axis=-1)


def step(state: SolverState, cfg: RunConfig) -> SolverState:
    """Advance every row one time level; a row flags blow-up on its
    threshold crossing or nonfinite values.

    Only the widest live window is updated (see the module docstring); past
    its own window every row stays exactly 0.0.
    """
    if any(row.blown_up for row in state.rows):
        raise DomainError("cannot step a blown-up state")
    dt = _pick_dt(cfg, state.t)
    # each row's frontier cell plus the zero ghost, up to its outer boundary
    w = max(min(row.live + 2, row.edge + 1) for row in state.rows)
    if w > state.r.size:  # grow the arrays, at least doubling, up to the largest domain
        size = min(max(2 * state.r.size, w), max(row.edge for row in state.rows) + 1)
        grow = ((0, 0), (0, size - state.r.size))
        state.r = np.arange(size) * cfg.dx
        state.u, state.u_prev = (np.pad(a, grow) for a in (state.u, state.u_prev))
    # u_prev's buffer is zero past the previous windows, so only :w is written
    u_new = state.u_prev
    u_new[:, :w] = _next_level(cfg, state.u[:, :w], None if state.t == 0.0 else
                               u_new[:, :w], state.r[:w], state.t, dt, state.dt_prev)
    for i, row in enumerate(state.rows):
        if row.edge < w:  # past it the row's cells never leave 0.0
            u_new[i, row.edge] = 0.0
        if u_new[i, row.live] != 0.0:
            row.live += 1
    state.u_prev, state.u = state.u, u_new
    state.t += dt
    state.dt_prev = dt
    for row, amp in zip(state.rows, _amplitude(u_new[:, :w]).tolist()):
        row.note(amp, state.t, cfg.blowup_threshold)
    return state


def _radial_integral(values: np.ndarray, state: SolverState, cfg: RunConfig) -> float:
    """int f dx over R^n for the values of f at the radii r, by the trapezoid rule."""
    n = cfg.model.n
    return surface_area(n) * float(np.trapezoid(values * state.r ** (n - 1), dx=cfg.dx))


def functional_G(state: SolverState, cfg: RunConfig) -> float:
    """G(t) = int u dx."""
    return _radial_integral(state.u[0], state, cfg)


def functional_lp(state: SolverState, cfg: RunConfig) -> float:
    """int |u|^p dx."""
    return _radial_integral(np.abs(state.u[0]) ** cfg.model.p, state, cfg)


def functional_F(state: SolverState, cfg: RunConfig) -> float:
    """F(t) = int u(x,t) eta_q(x,t,t) dx (diagonal weight, ``default_testfn``)."""
    eta_diag = eta_q(state.r, state.t, state.t, cfg.default_testfn())
    return _radial_integral(state.u[0] * eta_diag, state, cfg)


def support_radius(state: SolverState) -> float:
    """Largest radius where |u| exceeds 1e-4 * max(1, |u|_inf).

    The threshold must sit above the dispersive precursor of the
    second-order scheme (measured O(dx^2.5), ~1e-5 relative at dx = 0.02),
    otherwise scheme noise ahead of the true front is counted as support.
    """
    thresh = 1e-4 * max(1.0, float(_amplitude(state.u[0])))
    idx = np.nonzero(np.abs(state.u[0]) > thresh)[0]
    return float(state.r[idx[-1]]) if len(idx) else 0.0


def _run(*cfgs: RunConfig, observe=None) -> list[LifespanRecord]:
    """Step runs as the rows of one state; a row leaves at blow-up, at
    nonfinite values, or censored at its horizon.  ``observe(state)`` (one
    row) sees the initial state and every step that does not blow up.
    """
    state = initialize(*cfgs)
    rows = state.rows[:]
    if observe is not None:
        observe(state)
    while state.rows:
        step(state, cfgs[0])
        if observe is not None and not state.rows[0].blown_up:
            observe(state)
        keep = [not row.blown_up and state.t < row.t_max for row in state.rows]
        if not all(keep):
            state.u, state.u_prev = state.u[keep], state.u_prev[keep]
            state.rows = [row for row, k in zip(state.rows, keep) if k]
    return [row.record() for row in rows]


def run_until_blowup(cfg: RunConfig) -> tuple[LifespanRecord, TimeSeries]:
    """Step until blow-up, nonfinite values, or the horizon (censored).

    The record's threshold sensitivity compares the crossing times of
    blowup_threshold and blowup_threshold/100; a small value certifies the
    reported time is insensitive to the detection level.  The series holds
    the per-step scalars and, with ``track_f``, about n_f_samples F values.
    """
    ts, amps, gs, lps, supps = [], [], [], [], []
    f_t, f_v = [], []
    f_next = 0.0
    f_stride = cfg.t_max / max(1, cfg.n_f_samples)

    def record(state):
        nonlocal f_next
        ts.append(state.t)
        amps.append(float(_amplitude(state.u[0])))
        gs.append(functional_G(state, cfg))
        lps.append(functional_lp(state, cfg))
        supps.append(support_radius(state))
        if cfg.track_f and state.t >= f_next:
            f_t.append(state.t)
            f_v.append(functional_F(state, cfg))
            f_next += f_stride

    (record_out,) = _run(cfg, observe=record)
    series = TimeSeries(
        t=np.asarray(ts),
        max_u=np.asarray(amps),
        g=np.asarray(gs),
        lp=np.asarray(lps),
        support_radius=np.asarray(supps),
        f_times=np.asarray(f_t),
        f_values=np.asarray(f_v),
    )
    return record_out, series


def _horizon_power(eps: float, expo: float) -> float:
    """eps**expo of the horizon law; a DomainError where it leaves the double range."""
    out = pow_or_inf(eps, expo)
    if not 0.0 < out < math.inf:
        raise DomainError(f"horizon law eps^-theta leaves the double range at "
                          f"eps={eps:.12g}, theta={abs(expo):.12g}")
    return out


def lifespan_scan(cfg: RunConfig, eps_values) -> list[LifespanRecord]:
    """Independent subcritical runs over eps (sorted descending internally).

    Horizons are auto-sized from the theoretical scaling eps^{-theta}
    calibrated on the largest eps that blows up (a DomainError where that
    leaves the double range); censored runs are retried once with a doubled
    horizon and kept (flagged) if still censored.  Records return sorted by
    eps.  The runs up to the calibration go one by one; the rest step as
    the rows of one state.  Each record is the one ``run_until_blowup``
    gives for the run's configuration; no per-step functional is computed.
    Of ``cfg`` the sweep ignores eps and the F-tracking fields track_f and
    n_f_samples; every run takes the domain of its own horizon.
    """
    eps_sorted = sorted(float(e) for e in eps_values)
    if not all(0 < e < math.inf for e in eps_sorted):
        raise ConfigError("eps values must be finite and positive")
    md = cfg.model
    law = lifespan_law(ExponentContext(md.m, md.n, md.p))
    if law.regime != "subcritical":
        raise DomainError("lifespan scaling applies to subcritical runs only")

    def run_cfg(eps: float, t_max: float) -> RunConfig:
        return replace(cfg, model=replace(md, eps=eps), t_max=t_max)

    def retried(run: RunConfig, rec: LifespanRecord) -> LifespanRecord:
        return _run(run_cfg(run.model.eps, 2.0 * run.t_max))[0] if rec.censored else rec

    records: dict[float, LifespanRecord] = {}
    pending = eps_sorted[::-1]
    c_emp = None
    while pending and c_emp is None:
        eps = pending.pop(0)
        run = run_cfg(eps, cfg.t_max)
        records[eps] = rec = retried(run, _run(run)[0])
        if rec.t_blowup is not None:
            c_emp = rec.t_blowup * _horizon_power(eps, law.theta)
    runs = [run_cfg(e, min(4.0 * c_emp * _horizon_power(e, -law.theta), 1e4))
            for e in pending]
    for run, rec in zip(runs, _run(*runs) if runs else ()):
        records[run.model.eps] = retried(run, rec)
    return [records[e] for e in eps_sorted]


def fit_scaling(records) -> FitResult:
    """Least squares of log T against log eps (slope -theta in theory).

    Censored records are excluded; at least 4 uncensored points required.
    """
    used = [r for r in records if not r.censored and r.t_blowup]
    if len(used) < 4:
        raise DomainError(
            f"need >= 4 uncensored records to fit, got {len(used)} "
            f"({len(records) - len(used)} censored/invalid excluded)"
        )
    x = np.log([r.eps for r in used])
    t = np.asarray([r.t_blowup for r in used])
    y = np.log(t)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        residual=resid,
        n_used=len(used),
    )
