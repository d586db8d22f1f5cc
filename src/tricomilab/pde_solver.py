"""Radial finite-difference simulation of u_tt - t^m Lap(u) = |u|^p.

Explicit central time stepping on a uniform radial grid for n in {1, 2, 3},
with compactly supported data u(0) = eps u0, u_t(0) = eps u1.  The wave
speed t^{m/2} grows with time, so the step obeys a time-dependent CFL rule

    dt_k = cfl_safety * dx / max(t_{k+1}^{m/2}, sqrt(dx)),

where the sqrt(dx) floor keeps the Taylor start near the degenerate t = 0
accurate.  Where the speed at t_{k+1} leaves the double range (or the step
would not move t), dt is halved until the rule holds at the step's end.
Because dt varies, the update uses the nonuniform-step central
formula (it reduces to plain leapfrog for constant dt):

    u^{k+1} = u^k + (dt_k/dt_{k-1}) (u^k - u^{k-1})
              + dt_k (dt_k + dt_{k-1})/2 * (t_k^m Lap_h(u^k) + |u^k|^p).

The limit on cfl_safety comes from the scheme.  Without |u|^p and at a
fixed dt, a level is u^{k+1} - 2 u^k + u^{k-1} = dt^2 t^m L_h u^k, with
L_h the 3-point radial operator of ``_next_level``: its centre row
2n(u_1 - u_0)/dx^2 and its held last row (zero) included.  The eigenvalues
of L_h are real and <= 0 (it is symmetric in the weight r^{n-1}), so the
recursion stays bounded while dt^2 t^m rho < 4, rho the spectral radius of
L_h: the Courant number dt t^{m/2}/dx must stay below 2/sqrt(rho dx^2).
rho dx^2 is 4, 4.842 and 6 at n = 1, 2, 3 (to 1e-3) on every grid of 50 to
800 cells, so the limits are 1, 0.909 and sqrt(2/3) = 0.816.  The rule takes
the speed at t_{k+1} >= t_k, so its Courant number is at most cfl_safety;
the default 0.6 is 27% below the smallest limit, n = 3's.

Each step updates only the live window: the cells below the live extent
(past it u and u_prev are exactly 0.0), the frontier cell at the extent and
one zero ghost cell.  The extent starts at the support of the data and
moves on one cell only when the frontier cell just computed is not exactly
0.0 (the held outer boundary cell never is).  The window is exact: the
3-point scheme moves information by at most one cell per step, and a cell
whose inputs are all exactly zero stays exactly zero, so the update is
bit-identical to the full-grid one.  The scheme's precursor ahead of the
front underflows to 0.0, so the extent need not gain a cell every step.  On
criterion 8's grid (m = 1, n = 1, dx 0.02, eps 1.2, u1 = 0) it gains one in
826 of the 1136 steps to blow-up at cfl_safety 0.4, and it stays below the
step count up to 0.55; at 0.6 it gains one in 751 of 759 steps.

dt depends only on (t, dx, m, cfl_safety), so the runs of one ``RunConfig``
at several (eps, t_max) step as the rows of one ``SolverState``, each with
its own extent, outer boundary cell and amplitude history; a row leaves at
a blow-up threshold crossing (with a threshold-sensitivity diagnostic), at
a nonfinite value, or censored at its horizon.  The state's arrays are
column-major, so the window of a step is one contiguous block of rows * w
values and the leapfrog update runs in place through flat views of it, the
radial neighbours of a cell ``rows`` values away.  In C order the window
would be ``rows`` strips one array width apart, and every ufunc of a batch
step would pay for that stride.  A single run is a one-row state, whose
arrays span its whole grid.  Its tracked functionals are G(t) = int u dx,
int |u|^p dx, F(t) = int u(x,t) eta_q(x,t,t) dx, the support radius and the
peak amplitude.  They read only the live window of row 0: past it u
is exactly 0.0, so the peak and the support radius are those of the whole
grid, and the integrals are the whole grid's trapezoid rule summed in
another order.  One pass over |u| gives the four per-step scalars, with
radial trapezoid weights built once per grid, and F takes the diagonal
eta_q, a sphere average of one Kummer kernel, only at the radii of the
window.  The weights and the Laplacian's (n-1)/r are read-only arrays of
pure builders under a bounded ``functools.lru_cache``, keyed on the grid.
``lifespan_scan`` sweeps eps, subcritical only
(the regime and the eps-exponent come from ``exponents.lifespan_law``),
keeping only each run's record; ``fit_scaling`` fits its slope.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

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
    cfl_safety: float = 0.6
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
        if self.n_f_samples < 1:
            raise ConfigError(f"n_f_samples must be >= 1, got {self.n_f_samples}")

    def domain_radius(self) -> float:
        """R + phi(t_max), the support cone at the horizon, plus a margin.

        Reflection off its edge stays below 1e-9: at (m, n, p) = (2, 1, 3), eps
        0.1, dx 0.05, t_max 5, a domain wider by 0.5, 2 or 10 keeps the record
        and moves G in 265-291 of 629 rows, by at most 7.1e-10 relative.
        """
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
    blowup_time: float | None = None

    @property
    def blown_up(self) -> bool:
        return self.blowup_time is not None

    def note(self, amp: float, t: float, threshold: float) -> None:
        """Take in max|u| of the level at time t; a nonfinite one is blow-up."""
        amp = amp if math.isfinite(amp) else math.inf
        self.peak = max(self.peak, amp)
        if amp >= threshold / 100.0 and self.t_low is None:
            self.t_low = t
        if amp >= threshold:
            self.blowup_time = t

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
    """Mutable stepping state of the runs (eps, t_max) of one ``RunConfig``,
    one row per run; the runs own their state exclusively.

    u and u_prev are (rows, width) arrays over the radii r.  The width starts
    at the smallest domain of the rows, so a single run's arrays span its
    whole grid, and grows by doubling up to the largest.  Row i is exactly
    0.0 from ``rows[i].live`` on, so the functionals read row 0 only below
    that extent.  ``step`` recycles the buffer of u_prev (zero before the
    first step) for the new level.

    Both arrays are column-major (Fortran order), so the window ``[:, :w]``
    that a step updates is one contiguous block (see the module docstring).
    A one-row array is both C- and F-contiguous, so a single run's memory is
    that of C order.  work holds the step's two scratch blocks of
    rows * width values.
    """

    r: np.ndarray
    u: np.ndarray
    u_prev: np.ndarray
    t: float
    dt_prev: float
    rows: list[_Row]
    work: np.ndarray


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


# the most grid points a run's domain may take: 32 MiB per float64 row
_MAX_CELLS = 2**22


def _grid_size(cfg: RunConfig) -> int:
    """Number of grid points r_i = i dx of the run's domain, boundary included
    (more than 11, as dx < R and the margin spans 10 cells); a ConfigError
    past _MAX_CELLS, before any array is allocated."""
    radius = cfg.domain_radius()
    edge = radius / cfg.dx
    if not edge <= _MAX_CELLS - 1:
        raise ConfigError(f"the grid takes {edge + 1.0:.6g} cells (domain radius {radius:.6g}, "
                          f"dx={cfg.dx:.6g}), past the cap of {_MAX_CELLS}")
    return int(math.ceil(edge)) + 1


def initialize(cfg: RunConfig, *runs: tuple[float, float]) -> SolverState:
    """Sample the initial data eps*u0 of cfg's runs (eps, t_max), by default
    its own, one row per run on the radial grid of its horizon's domain."""
    runs = runs or ((cfg.model.eps, cfg.t_max),)
    edges = [_grid_size(replace(cfg, t_max=t_max)) - 1 for _, t_max in runs]
    r = np.arange(min(edges) + 1) * cfg.dx  # the smallest domain
    u = np.asfortranarray(np.array([eps for eps, _ in runs])[:, None] * _bump(r, cfg.model.R))
    live = int(np.count_nonzero(r < cfg.model.R))
    work = np.empty((2, u.size))
    rows = [_Row(eps, t_max, live, edge, peak=amp)
            for (eps, t_max), edge, amp in zip(runs, edges, _amplitude(u, work[1]))]
    return SolverState(r=r, u=u, u_prev=np.zeros_like(u), t=0.0, dt_prev=0.0, rows=rows,
                       work=work)


def _pick_dt(cfg: RunConfig, t: float) -> float:
    """The CFL step from t.  Where the speed t^{m/2} at t + dt leaves the
    double range, or the step is too small to move t, the trial dt that set
    it is halved until the rule holds at the step's end with a finite speed;
    a DomainError where no step t + dt > t does."""
    m = cfg.model.m
    floor = math.sqrt(cfg.dx)
    dt = trial = 0.0
    for _ in range(4):  # dt depends on t_{k+1}; fixed point converges fast
        speed = pow_or_inf(t + dt, m / 2.0)
        if speed == math.inf:
            break
        trial, dt = dt, cfg.cfl_safety * cfg.dx / max(speed, floor)
        if dt == trial:  # every later pass would repeat it
            break
    if speed < math.inf:
        if t + dt > t:
            return dt
        dt = trial
    while t + dt > t:
        dt *= 0.5
        if dt * max(pow_or_inf(t + dt, m / 2.0), floor) <= cfg.cfl_safety * cfg.dx:
            return dt
    raise DomainError(f"wave speed t^(m/2) leaves the double range within any "
                      f"step from t={t:.12g}, m={m:.12g}")


@functools.lru_cache(maxsize=4)
def _radial_coef(n: int, dx: float, size: int, rows: int) -> np.ndarray:
    """Read-only (n-1)/r at r_1, ..., r_{size-1} of the grid r_i = i dx, each
    repeated for the rows of a flat block; built once per grid and row count."""
    coef = np.repeat((n - 1.0) / (np.arange(1, size) * dx), rows)
    coef.flags.writeable = False
    return coef


def _next_level(cfg: RunConfig, u, u_prev, r, t: float, dt: float, dt_prev: float, work):
    """Overwrite u_prev, the level before the window u at time t, with the
    scheme's next level; r is the state's grid and work its scratch.

    u and u_prev are F-ordered (rows, w) windows, each one contiguous block.
    The update runs through flat views of them, in place, with a cell's
    radial neighbours ``rows`` values away.  Lap_h is the 3-point radial
    Laplacian (u_{j+1} - 2 u_j + u_{j-1})/dx^2 + (n-1)/r_j (u_{j+1} -
    u_{j-1})/(2 dx), with 2 n (u_1 - u_0)/dx^2 at the origin and 0 at the
    last cell; the ufuncs follow this formula and the update in the module
    docstring in order, so each row gets the bits of a run of its own.  At t = 0
    u_prev is zero and the level is the Taylor start from the data u = u0,
    u1 = u0 or 0: u(dt) = u0 + dt u1 + dt^2/2 (t^m Lap u0 + |u0|^p)|_{t=0}
    (the degenerate factor t^m kills the Laplacian term for m > 0)."""
    md = cfg.model
    k = u.shape[0]
    # row i of radius j at j * k + i; views, as the windows are F-contiguous
    x, y = u.ravel(order="F"), u_prev.ravel(order="F")
    rhs, tmp = work[0, :x.size], work[1, :x.size]
    inner, tmp_in = rhs[k:-k], tmp[k:-k]
    # rhs = t^m Lap_h(u) + |u|^p
    np.multiply(2.0, x[k:-k], out=tmp_in)
    np.subtract(x[2 * k:], tmp_in, out=tmp_in)
    np.add(tmp_in, x[:-2 * k], out=tmp_in)
    np.divide(tmp_in, cfg.dx**2, out=inner)
    if md.n > 1:
        np.subtract(x[2 * k:], x[:-2 * k], out=tmp_in)
        coef = _radial_coef(md.n, cfg.dx, r.size, k)
        np.multiply(coef[:tmp_in.size], tmp_in, out=tmp_in)
        np.divide(tmp_in, 2.0 * cfg.dx, out=tmp_in)
        np.add(inner, tmp_in, out=inner)
    origin = rhs[:k]
    np.subtract(x[k:2 * k], x[:k], out=origin)
    np.multiply(md.n * 2.0, origin, out=origin)
    np.divide(origin, cfg.dx**2, out=origin)
    rhs[-k:] = 0.0
    np.multiply(t**md.m, rhs, out=rhs)
    if not cfg.linear_only:
        np.abs(x, out=tmp)
        tmp **= md.p  # the operator, as in np.abs(u) ** p: p = 2 squares
        np.add(rhs, tmp, out=rhs)
    # u + dt/dt_prev (u - u_prev) + dt (dt + dt_prev)/2 rhs; the Taylor start
    # takes dt u1 for the middle term, and u_prev (zero) is that for u1 = 0
    if t > 0.0:
        np.subtract(x, y, out=y)
        np.multiply(dt / dt_prev, y, out=y)
    elif cfg.u1_mode == "same":
        np.multiply(dt, x, out=y)
    np.add(x, y, out=y)
    np.multiply(0.5 * dt * (dt + dt_prev), rhs, out=rhs)
    np.add(y, rhs, out=y)


def _amplitude(u: np.ndarray, out: np.ndarray) -> list[float]:
    """Each row's max |u| over the window u (nan where a value is nan).  |u|
    goes row by row into the flat buffer out, row-major, so that each max
    reads one contiguous strip (one 2-D abs into it would buffer the
    transposition; a max over a strided row is slower)."""
    a = out[:u.size].reshape(u.shape)
    for row, dest in zip(u, a):
        np.abs(row, out=dest)
    return a.max(axis=-1).tolist()


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
        state.u, state.u_prev = (np.pad(a, grow) for a in (state.u, state.u_prev))  # F order
        state.work = np.empty((2, state.u.size))
    # u_prev's buffer is zero past the previous windows, so only :w is written
    u_new = state.u_prev
    _next_level(cfg, state.u[:, :w], u_new[:, :w], state.r, state.t, dt, state.dt_prev,
                state.work)
    for i, row in enumerate(state.rows):
        if row.edge < w:  # past it the row's cells never leave 0.0
            u_new[i, row.edge] = 0.0
        if u_new[i, row.live] != 0.0:
            row.live += 1
    state.u_prev, state.u = state.u, u_new
    state.t += dt
    state.dt_prev = dt
    for row, amp in zip(state.rows, _amplitude(u_new[:, :w], state.work[1])):
        row.note(amp, state.t, cfg.blowup_threshold)
    return state


@functools.lru_cache(maxsize=4)
def _weights(n: int, dx: float, size: int) -> np.ndarray:
    """Read-only radial trapezoid weights surface_area(n) dx r^{n-1} of the
    grid r_i = i dx, i < size, halved at both ends: int f dx over R^n is
    their sum against f.  Built once per grid."""
    w = surface_area(n) * dx * (np.arange(size) * dx) ** (n - 1)
    w[[0, -1]] *= 0.5
    w.flags.writeable = False
    return w


def _support(r: np.ndarray, a: np.ndarray, amp: float) -> float:
    """Largest radius where a = |u| exceeds 1e-4 * max(1, amp), amp = max |u|."""
    above = np.flatnonzero(a > 1e-4 * max(1.0, amp))
    return float(r[above[-1]]) if above.size else 0.0


def _live_scalars(state: SolverState, cfg: RunConfig) -> tuple[float, float, float, float]:
    """(max |u|, G, int |u|^p, support radius) of row 0 from one |u| array
    over its live window; past the window u is exactly 0.0."""
    live = state.rows[0].live
    u = state.u[0, :live]
    a = np.abs(u)
    w = _weights(cfg.model.n, cfg.dx, state.r.size)[:live]
    amp = float(a.max())
    return (amp, float(np.einsum("i,i->", u, w)), float(np.einsum("i,i->", a ** cfg.model.p, w)),
            _support(state.r, a, amp))


def functional_G(state: SolverState, cfg: RunConfig) -> float:
    """G(t) = int u dx, by the trapezoid rule over row 0's live window."""
    return _live_scalars(state, cfg)[1]


def functional_lp(state: SolverState, cfg: RunConfig) -> float:
    """int |u|^p dx, by the trapezoid rule over row 0's live window."""
    return _live_scalars(state, cfg)[2]


def functional_F(state: SolverState, cfg: RunConfig) -> float:
    """F(t) = int u(x,t) eta_q(x,t,t) dx (diagonal weight, ``default_testfn``).

    The diagonal eta_q is the sphere average of one Kummer kernel (see
    ``testfun._sphere_average``; no lambda-quadrature at n <= 2, nor at
    n = 3 with q >= 0.01), taken only
    at the radii of row 0's live window, where u can be nonzero; the
    trapezoid weights are those of G.
    """
    live = state.rows[0].live
    eta_diag = eta_q(state.r[:live], state.t, state.t, cfg.default_testfn())
    w = _weights(cfg.model.n, cfg.dx, state.r.size)[:live]
    return float(np.einsum("i,i,i->", state.u[0, :live], eta_diag, w))


def support_radius(state: SolverState) -> float:
    """Largest radius where |u| exceeds 1e-4 * max(1, |u|_inf).

    The threshold must sit above the dispersive precursor of the
    second-order scheme (measured O(dx^2.5), ~1e-5 relative at dx = 0.02),
    otherwise scheme noise ahead of the true front is counted as support.
    """
    a = np.abs(state.u[0, :state.rows[0].live])
    return _support(state.r, a, float(a.max()))


def _run(cfg: RunConfig, *runs: tuple[float, float], observe=None) -> list[LifespanRecord]:
    """Step cfg's runs (eps, t_max), by default its own, as the rows of one
    state; a row leaves at blow-up, at nonfinite values, or censored at its
    horizon.  ``observe(state)`` (one row) sees the initial state and every
    step that does not blow up."""
    state = initialize(cfg, *runs)
    rows = state.rows[:]
    if observe is not None:
        observe(state)
    while state.rows:
        step(state, cfg)
        if observe is not None and not state.rows[0].blown_up:
            observe(state)
        keep = [not row.blown_up and state.t < row.t_max for row in state.rows]
        if not all(keep):
            # a boolean row pick returns C order: copy back to F
            state.u, state.u_prev = (np.asfortranarray(a[keep])
                                     for a in (state.u, state.u_prev))
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
    f_stride = cfg.t_max / cfg.n_f_samples

    def record(state):
        nonlocal f_next
        ts.append(state.t)
        for values, x in zip((amps, gs, lps, supps), _live_scalars(state, cfg)):
            values.append(x)
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
    one state, a row per (eps, t_max) of ``cfg``.  Each record is the one
    ``run_until_blowup`` gives for ``cfg`` at the run's eps and t_max; no
    per-step functional is computed.
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

    def retried(eps: float, t_max: float, rec: LifespanRecord) -> LifespanRecord:
        return _run(cfg, (eps, 2.0 * t_max))[0] if rec.censored else rec

    records: dict[float, LifespanRecord] = {}
    pending = eps_sorted[::-1]
    c_emp = None
    while pending and c_emp is None:
        eps = pending.pop(0)
        records[eps] = rec = retried(eps, cfg.t_max, _run(cfg, (eps, cfg.t_max))[0])
        if rec.t_blowup is not None:
            c_emp = rec.t_blowup * _horizon_power(eps, law.theta)
    runs = [(e, min(4.0 * c_emp * _horizon_power(e, -law.theta), 1e4)) for e in pending]
    for run, rec in zip(runs, _run(cfg, *runs) if runs else ()):
        records[run[0]] = retried(*run, rec)
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
