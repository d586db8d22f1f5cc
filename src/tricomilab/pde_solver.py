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

Each step updates only the live window: the cells below the live extent,
one past the last cell that may be nonzero, plus one ghost cell for the
3-point Laplacian.  The extent starts at the support of the data and grows
by one cell per step, capped at the grid end.  The window is exact, not an
approximation: the explicit 3-point scheme moves information by at most one
cell per step, so every cell past it stays exactly 0.0, and the windowed
update is bit-identical to the full-grid one.

Tracked functionals: G(t) = int u dx, the nonlinear mass int |u|^p dx,
F(t) = int u(x,t) eta_q(x,t,t) dx, the discrete support radius, and the
peak amplitude.  Runs end at a blow-up threshold crossing (with a
threshold-sensitivity diagnostic), at a nonfinite value, or censored at
the horizon.  ``lifespan_scan`` sweeps eps, subcritical only (the regime
and the eps-exponent come from ``exponents.lifespan_law``), keeping only
each run's record (no per-step series); ``fit_scaling`` fits its slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DomainError
from .exponents import ExponentContext, lifespan_law, q_choice
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
        if not self.m >= 0:
            raise ConfigError(f"m must be >= 0, got {self.m}")
        if self.n not in (1, 2, 3):
            raise ConfigError(f"radial solver supports n in {{1,2,3}}, got {self.n}")
        if not self.p > 1:
            raise ConfigError(f"p must be > 1, got {self.p}")
        if not self.R > 0:
            raise ConfigError(f"R must be > 0, got {self.R}")
        if not self.eps >= 0:
            raise ConfigError(f"eps must be >= 0, got {self.eps}")


@dataclass(frozen=True)
class RunConfig:
    """One simulation: model, grid resolution, horizon, and tracking options.

    domain_radius defaults to R + phi(t_max) + margin so the support cone
    never reaches the outer boundary (finite propagation speed).
    """

    model: ModelParams
    dx: float = 0.02
    t_max: float = 10.0
    cfl_safety: float = 0.4
    blowup_threshold: float = 1e8
    domain_radius: float | None = None
    u1_mode: str = "same"  # "same" -> u1 = u0, "zero" -> u1 = 0
    linear_only: bool = False
    track_f: bool = False
    n_f_samples: int = 64

    def __post_init__(self):
        if not self.dx > 0:
            raise ConfigError(f"dx must be > 0, got {self.dx}")
        if not 0 < self.cfl_safety < 1:
            raise ConfigError(f"cfl_safety must be in (0,1), got {self.cfl_safety}")
        if not 0 < self.t_max < math.inf:
            raise ConfigError(f"t_max must be finite and > 0, got {self.t_max}")
        if self.u1_mode not in ("same", "zero"):
            raise ConfigError(f"u1_mode must be 'same' or 'zero', got {self.u1_mode}")
        if not self.blowup_threshold > 1:
            raise ConfigError("blowup_threshold must be > 1")
        if self.domain_radius is not None and not (
            self.min_domain_radius() <= self.domain_radius < math.inf
        ):
            raise ConfigError(
                f"domain_radius {self.domain_radius} must be finite and >= required "
                f"{self.min_domain_radius()} (support cone + margin)"
            )

    def min_domain_radius(self) -> float:
        return self.model.R + phi_of_t(self.model.m, self.t_max) + 5.0 * self.dx

    def resolved_domain_radius(self) -> float:
        if self.domain_radius is not None:
            return self.domain_radius
        return self.min_domain_radius() + max(0.5, 5.0 * self.dx)

    def default_testfn(self) -> TestFnParams:
        md = self.model
        return TestFnParams(
            q=q_choice(md.n, md.p), lambda0=0.5, R=md.R, n=md.n, m=md.m
        )


@dataclass
class SolverState:
    """Mutable stepping state; one run owns its state exclusively.

    u and u_prev are exactly 0.0 from index ``live`` on.  ``step`` recycles
    the buffer of u_prev for the new level.
    """

    r: np.ndarray
    u: np.ndarray
    u_prev: np.ndarray | None
    t: float
    dt_prev: float
    step_index: int
    live: int
    blown_up: bool = False
    blowup_time: float | None = None
    peak: float = 0.0
    crossings: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LifespanRecord:
    """One sweep point: eps, the blow-up time (None if censored), diagnostics."""

    eps: float
    t_blowup: float | None
    censored: bool
    peak: float
    threshold_sensitivity: float | None


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
    note: str = (
        "theory slope comes from the lifespan upper bound; the fit tests "
        "consistency with that exponent, not sharpness"
    )


def _bump(r: np.ndarray, radius: float) -> np.ndarray:
    inside = r < radius
    prof = np.zeros_like(r)
    prof[inside] = (1.0 - (r[inside] / radius) ** 2) ** 4
    return prof


def initialize(cfg: RunConfig) -> SolverState:
    """Sample the initial data eps*u0 on the radial grid."""
    radius = cfg.resolved_domain_radius()
    n_cells = int(math.ceil(radius / cfg.dx))
    if n_cells < 8:
        raise ConfigError("domain too small: fewer than 8 cells")
    r = np.arange(n_cells + 1) * cfg.dx
    u0 = cfg.model.eps * _bump(r, cfg.model.R)
    state = SolverState(
        r=r, u=u0, u_prev=None, t=0.0, dt_prev=0.0, step_index=0,
        live=int(np.count_nonzero(r < cfg.model.R)),
    )
    state.peak = float(np.max(np.abs(u0)))
    return state


def _initial_velocity(cfg: RunConfig, r: np.ndarray) -> np.ndarray:
    if cfg.u1_mode == "zero":
        return np.zeros_like(r)
    return cfg.model.eps * _bump(r, cfg.model.R)


def radial_laplacian(u: np.ndarray, r: np.ndarray, dx: float, n: int) -> np.ndarray:
    """3-point radial Laplacian u_rr + (n-1)/r u_r; n*u_rr at the origin."""
    lap = np.zeros_like(u)
    lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / dx**2
    if n > 1:
        lap[1:-1] += (n - 1.0) / r[1:-1] * (u[2:] - u[:-2]) / (2.0 * dx)
    lap[0] = n * 2.0 * (u[1] - u[0]) / dx**2
    return lap


def _pick_dt(cfg: RunConfig, t: float) -> float:
    m = cfg.model.m
    floor = math.sqrt(cfg.dx)
    dt = cfg.cfl_safety * cfg.dx / max(t**(m / 2.0), floor)
    for _ in range(3):  # dt depends on t_{k+1}; fixed point converges fast
        dt = cfg.cfl_safety * cfg.dx / max((t + dt) ** (m / 2.0), floor)
    return dt


def _rhs(cfg: RunConfig, u: np.ndarray, r: np.ndarray, t: float) -> np.ndarray:
    md = cfg.model
    out = t**md.m * radial_laplacian(u, r, cfg.dx, md.n)
    if not cfg.linear_only:
        out = out + np.abs(u) ** md.p
    return out


def step(state: SolverState, cfg: RunConfig) -> SolverState:
    """Advance one time level; flags blow-up on threshold or nonfinite values.

    Only the live window is updated (see the module docstring); the cells
    past it stay exactly 0.0.
    """
    if state.blown_up:
        raise DomainError("cannot step a blown-up state")
    dt = _pick_dt(cfg, state.t)
    size = state.u.size
    state.live = min(state.live + 1, size)
    win = slice(0, min(state.live + 1, size))  # plus the zero ghost cell
    u, r = state.u[win], state.r[win]
    if state.step_index == 0:
        # Taylor start: u(dt) = u0 + dt u1 + dt^2/2 (t^m Lap u0 + |u0|^p)|_{t=0};
        # the degenerate factor t^m kills the Laplacian term for m > 0.
        v0 = _initial_velocity(cfg, r)
        u_win = u + dt * v0 + 0.5 * dt * dt * _rhs(cfg, u, r, 0.0)
        u_new = np.zeros_like(state.u)
    else:
        rho = dt / state.dt_prev
        coeff = 0.5 * dt * (dt + state.dt_prev)
        u_win = u + rho * (u - state.u_prev[win]) + coeff * _rhs(cfg, u, r, state.t)
        u_new = state.u_prev  # zero past the previous extent, so only win is written
    u_new[win] = u_win
    u_new[-1] = 0.0
    state.u_prev = state.u
    state.u = u_new
    state.t += dt
    state.dt_prev = dt
    state.step_index += 1

    with np.errstate(invalid="ignore"):
        amp = float(np.max(np.abs(u_new[win])))
    if not math.isfinite(amp):
        state.blown_up = True
        state.blowup_time = state.t
        amp = math.inf
    state.peak = max(state.peak, amp)
    for level in (cfg.blowup_threshold / 100.0, cfg.blowup_threshold):
        if amp >= level and level not in state.crossings:
            state.crossings[level] = state.t
    if amp >= cfg.blowup_threshold:
        state.blown_up = True
        state.blowup_time = state.crossings[cfg.blowup_threshold]
    return state


def _radial_integral(values: np.ndarray, state: SolverState, cfg: RunConfig) -> float:
    """int f dx over R^n for the radial grid values of f, by the trapezoid rule."""
    n = cfg.model.n
    return surface_area(n) * float(np.trapezoid(values * state.r ** (n - 1), dx=cfg.dx))


def functional_G(state: SolverState, cfg: RunConfig) -> float:
    """G(t) = int u dx."""
    return _radial_integral(state.u, state, cfg)


def functional_lp(state: SolverState, cfg: RunConfig) -> float:
    """int |u|^p dx."""
    return _radial_integral(np.abs(state.u) ** cfg.model.p, state, cfg)


def functional_F(state: SolverState, cfg: RunConfig) -> float:
    """F(t) = int u(x,t) eta_q(x,t,t) dx (diagonal weight, ``default_testfn``)."""
    eta_diag = eta_q(state.r, state.t, state.t, cfg.default_testfn())
    return _radial_integral(state.u * eta_diag, state, cfg)


def support_radius(state: SolverState) -> float:
    """Largest radius where |u| exceeds 1e-4 * max(1, |u|_inf).

    The threshold must sit above the dispersive precursor of the
    second-order scheme (measured O(dx^2.5), ~1e-5 relative at dx = 0.02),
    otherwise scheme noise ahead of the true front is counted as support.
    """
    thresh = 1e-4 * max(1.0, float(np.max(np.abs(state.u))))
    idx = np.nonzero(np.abs(state.u) > thresh)[0]
    return float(state.r[idx[-1]]) if len(idx) else 0.0


def _solve(cfg: RunConfig, observe=None) -> LifespanRecord:
    """Step until blow-up, nonfinite values, or the horizon (censored).

    ``observe(state)`` is called on the initial state and after every step
    that does not blow up.
    """
    state = initialize(cfg)
    if observe is not None:
        observe(state)
    while not state.blown_up and state.t < cfg.t_max:
        step(state, cfg)
        if observe is not None and not state.blown_up:
            observe(state)
    censored = not state.blown_up
    sens = None
    low = cfg.blowup_threshold / 100.0
    if not censored and low in state.crossings and state.blowup_time:
        sens = (state.blowup_time - state.crossings[low]) / state.blowup_time
    return LifespanRecord(
        eps=cfg.model.eps,
        t_blowup=None if censored else state.blowup_time,
        censored=censored,
        peak=state.peak,
        threshold_sensitivity=sens,
    )


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
        amps.append(float(np.max(np.abs(state.u))))
        gs.append(functional_G(state, cfg))
        lps.append(functional_lp(state, cfg))
        supps.append(support_radius(state))
        if cfg.track_f and state.t >= f_next:
            f_t.append(state.t)
            f_v.append(functional_F(state, cfg))
            f_next += f_stride

    record_out = _solve(cfg, record)
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
    try:
        out = eps**expo
    except OverflowError:
        out = math.inf
    if not 0.0 < out < math.inf:
        raise DomainError(f"horizon law eps^-theta leaves the double range at "
                          f"eps={eps:.12g}, theta={abs(expo):.12g}")
    return out


def lifespan_scan(cfg: RunConfig, eps_values) -> list[LifespanRecord]:
    """Independent subcritical runs over eps (sorted descending internally).

    Horizons are auto-sized from the theoretical scaling eps^{-theta}
    calibrated on the largest eps (a DomainError where that leaves the
    double range); censored runs are retried once with a doubled horizon and
    kept (flagged) if still censored.  Records return sorted by eps.  Each
    run is the stepping loop of ``run_until_blowup`` without its per-step
    series: no functional is computed, and every step updates only the live
    window.
    """
    eps_sorted = sorted(float(e) for e in eps_values)
    if not all(e > 0 for e in eps_sorted):
        raise ConfigError("eps values must be positive")
    md = cfg.model
    law = lifespan_law(ExponentContext(md.m, md.n, md.p))
    if law.regime != "subcritical":
        raise DomainError("lifespan scaling applies to subcritical runs only")
    records: dict[float, LifespanRecord] = {}
    c_emp = None
    for eps in reversed(eps_sorted):
        if c_emp is None:
            t_horizon = cfg.t_max
        else:
            t_horizon = min(4.0 * c_emp * _horizon_power(eps, -law.theta), 1e4)
        run_cfg = replace(
            cfg,
            model=replace(cfg.model, eps=eps),
            t_max=t_horizon,
            domain_radius=None,
        )
        rec = _solve(run_cfg)
        if rec.censored:
            run_cfg = replace(run_cfg, t_max=2.0 * run_cfg.t_max, domain_radius=None)
            rec = _solve(run_cfg)
        if rec.t_blowup is not None and c_emp is None:
            c_emp = rec.t_blowup * _horizon_power(eps, law.theta)
        records[eps] = rec
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
