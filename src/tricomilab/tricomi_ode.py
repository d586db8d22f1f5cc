"""Fundamental system of the degenerate oscillator y'' = lambda^2 t^m y.

Everything is built in the modified-Bessel basis of the oscillator, with
nu = 1/(m+2), phi(t) = 2 t^{(m+2)/2}/(m+2) and x_t = lambda phi(t):

    V1(t) = Gamma(1-nu) (nu lam)^{nu}  sqrt(t) I_{-nu}(x_t),
    V2(t) = Gamma(1+nu) (nu lam)^{-nu} sqrt(t) I_{nu}(x_t),

normalized to V1(0)=1, V1'(0)=0, V2(0)=0, V2'(0)=1.  This is an exact
rewriting (DLMF 13.6, https://dlmf.nist.gov/13.6) of the confluent
hypergeometric forms

    V1(t) = e^{x_t} M(1/2-nu, 1-2nu; -2 x_t),
    V2(t) = e^{x_t} t M(1/2+nu, 1+2nu; -2 x_t),

and at m = 0 it reduces to cosh/sinh.  The derivative terms use
d/dx[x^nu I_nu] = x^nu I_{nu-1}, d/dx[x^nu I_{-nu}] = x^nu I_{1-nu} and
d/dx[x^nu K_nu] = -x^nu K_{nu-1}.

All values come from exponentially scaled Bessel functions (``ive``/``kve``,
which ``specfun`` forwards to scipy.special, imported on the first Bessel
call) with explicit exponent bookkeeping, so they stay bounded for
arbitrarily large t:

* ``fundamental_pair_scaled`` -- the pair times e^{-x_t} (``fundamental_pair``
  evaluates the same formula with the unscaled ``iv``);
* ``kernel_phi1_scaled`` / ``kernel_phi2_ratio_scaled`` -- the two-point
  propagators Phi1, Phi2/(t-s) (unit data at time s) times e^{-(x_t - x_s)},
  vectorized over lambda and over an array of times s (one row per s, each
  with the bits of its scalar call) for the test-function quadratures.  Both are
  exactly 1 on the diagonal s = t.  Off it they are Bessel products, with
  a (t-s)-series for Phi2/(t-s) next to the diagonal, where its Bessel
  difference cancels, and the leading small-s terms where lambda phi(s) < 1e-8.
  What they take from t alone, x_t, ive(nu, x_t) and kve(nu, x_t), is one
  read-only block, ``_time_block``, cached for the four most recent
  (t, lambda nodes), so one t and Gauss level of a quadrature builds it
  once.  The scaled V1(t) and V2(t)/t (with no negative order) are formed
  from it only where a row at s = 0 or an entry with x_s < 1e-8 needs
  them, each kernel the one it needs.  Only rows with 0 < s < t form per-s
  entries.  scipy's ive and kve return nan past x = 2^30 - 0.5, so the
  kernels and ``fundamental_pair_scaled`` raise a DomainError where x_t
  passes it.

``fundamental_pair``, ``phi1``, ``phi2`` and ``phi2_ratio`` are the unscaled
scalar forms.  ``ode_oracle_scaled`` is an independent check: adaptive
high-order integration of the same equation in scaled variables
(w = e^{-lambda phi} y); it returns e^{-lambda phi(t)} (y, y'), so compare
it with ``fundamental_pair_scaled``, or multiply by e^{lambda phi(t)} while
that stays below ~e^709.  It imports scipy.integrate on its first call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exponents import exp_or_inf, pow_or_inf
# looked up at call time, so a test can wrap them here
from .specfun import iv, ive, kve
# unused here; re-exported because the benchmark tracer wraps these names in this module
from .specfun import kummer_m, kummer_m_deriv  # noqa: F401


@dataclass(frozen=True)
class OdeParams:
    """Finite degeneracy exponent m >= 0 and frequency lambda > 0.

    m = 0 is the constant-speed (wave) reduction with cosh/sinh solutions.
    """

    m: float
    lam: float

    def __post_init__(self):
        if not 0 <= self.m < math.inf:
            raise DomainError(f"m must be finite and >= 0, got {self.m}")
        if not 0 < self.lam < math.inf:
            raise DomainError(f"lambda must be finite and > 0, got {self.lam}")


@dataclass(frozen=True)
class FundamentalEval:
    """Values of (V1, V1', V2, V2') at time t; Wronskian v1*dv2 - dv1*v2 = 1.

    For evaluations produced by ``fundamental_pair_scaled`` every field
    carries the factor e^{-lambda phi(t)} and the Wronskian identity holds
    with right-hand side e^{-2 lambda phi(t)}.
    """

    v1: float
    dv1: float
    v2: float
    dv2: float


def phi_of_t(m: float, t: float) -> float:
    """Degenerate characteristic distance phi(t) = 2 t^{(m+2)/2} / (m+2)."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    phi = 2.0 / (m + 2.0) * pow_or_inf(t, (m + 2.0) / 2.0)
    if not math.isfinite(phi):
        raise DomainError(f"phi(t) leaves the double range at m={m:.12g}, t={t:.12g}")
    return phi


def _nu(m: float) -> float:
    return 1.0 / (m + 2.0)


# below this x_t the leading Taylor terms of V1, V2 are exact in double
# precision (relative corrections < x_t^2 / 2), while x_t^{-nu} in the
# Bessel form loses digits and finally underflows to 0 * inf
_SMALL_X = 1e-8


# scipy's ive and kve return nan past x = 2^30 - 0.5, at every order
_MAX_BESSEL_X = 2.0**30 - 0.5


def _check_bessel_range(x_max: float) -> None:
    """A DomainError where the largest x = lambda phi(t) passes _MAX_BESSEL_X."""
    if not x_max <= _MAX_BESSEL_X:
        raise DomainError(f"lambda phi(t) = {x_max:.12g} passes the range of the "
                          f"scaled Bessel functions ({_MAX_BESSEL_X:.12g})")


def _pair(params: OdeParams, t: float, scaled: bool) -> FundamentalEval:
    m, lam = params.m, params.lam
    x = lam * phi_of_t(m, t)
    if scaled:
        _check_bessel_range(x)
    if x < _SMALL_X:
        e = math.exp(-x) if scaled else 1.0
        return FundamentalEval(e, e * lam * lam * t ** (m + 1.0) / (m + 1.0), e * t, e)
    nu = _nu(m)
    c1 = math.gamma(1.0 - nu) * (nu * lam) ** nu * math.sqrt(t)
    c2 = math.gamma(1.0 + nu) * (nu * lam) ** -nu * math.sqrt(t)
    dx = lam * t ** (m / 2.0)
    # one call for the four orders; the unscaled I_mu overflow to inf by
    # themselves, and as Python floats their products do so without a warning
    bessel_i = ive if scaled else iv
    i_neg, i_neg1, i_pos, i_pos1 = map(float, bessel_i((-nu, 1.0 - nu, nu, nu - 1.0), x))
    return FundamentalEval(c1 * i_neg, c1 * i_neg1 * dx, c2 * i_pos, c2 * i_pos1 * dx)


def fundamental_pair(params: OdeParams, t: float) -> FundamentalEval:
    """V1, V1', V2, V2' at time t; exact initial data (1,0,0,1) at t = 0.

    Values grow like e^{lambda phi(t)} and overflow to inf once
    lambda phi(t) exceeds ~710; use ``fundamental_pair_scaled`` there.
    """
    return _pair(params, t, scaled=False)


def fundamental_pair_scaled(params: OdeParams, t: float) -> FundamentalEval:
    """The fundamental pair premultiplied by e^{-lambda phi(t)} (bounded)."""
    return _pair(params, t, scaled=True)


def _time_block(t: float, lam: np.ndarray, m: float):
    """Read-only (x_t, ive(nu, x_t), kve(nu, x_t)) at x_t = lam phi(t),
    elementwise in lam: what every kernel row at 0 < s < t takes from t.
    Cached on the exact (t, m, lam); a DomainError past _MAX_BESSEL_X."""
    return _time_block_of(t, m, lam.shape, lam.tobytes())


@functools.lru_cache(maxsize=4)
def _time_block_of(t: float, m: float, shape: tuple, data: bytes):
    """``_time_block`` at the float array lam with this shape and data."""
    lam = np.frombuffer(data).reshape(shape)
    x_t = lam * phi_of_t(m, t)
    _check_bessel_range(float(np.max(x_t)))
    block = (x_t, ive(_nu(m), x_t), kve(_nu(m), x_t))
    for arr in block:
        arr.flags.writeable = False
    return block


def _v1_scaled(t: float, lam: np.ndarray, m: float) -> np.ndarray:
    """e^{-x_t} V1(t), elementwise in lam: the rows at s = 0 and the entries
    with x_s < _SMALL_X.

    V1 uses I_{-nu} = I_nu + (2/pi) sin(nu pi) K_nu (DLMF 10.27.2), so only the
    orders +nu are evaluated (the negative order costs ~3x in scipy); both
    terms are positive.  Below _SMALL_X it is e^{-x_t}, as in ``_pair``.
    """
    nu = _nu(m)
    x_t, i_nu, k_nu = _time_block(t, lam, m)
    v1 = math.gamma(1.0 - nu) * (nu * lam) ** nu * math.sqrt(t) * (
        i_nu + 2.0 / math.pi * math.sin(nu * math.pi) * (np.exp(-2.0 * x_t) * k_nu)
    )
    return np.where(x_t < _SMALL_X, np.exp(-x_t), v1)


def _v2_ratio_scaled(t: float, lam: np.ndarray, m: float) -> np.ndarray:
    """e^{-x_t} V2(t)/t, elementwise in lam, like ``_v1_scaled``."""
    nu = _nu(m)
    x_t, i_nu, _ = _time_block(t, lam, m)
    v2_ratio = math.gamma(1.0 + nu) * (nu * lam) ** (-nu) * math.sqrt(t) / t * i_nu
    return np.where(x_t < _SMALL_X, np.exp(-x_t), v2_ratio)


def _rows(t: float, s, lam: np.ndarray):
    """Both kernels' frame for one time s or a 1-d array of times: a block of
    ones with one row per time (the value on the diagonal s = t), the rows at
    s = 0, and {row: s} of the rows at 0 < s < t, s a Python float."""
    times = np.atleast_1d(np.asarray(s, dtype=float)).tolist()
    zero = [j for j, sj in enumerate(times) if sj == 0.0 != t]
    inner = {j: sj for j, sj in enumerate(times) if 0.0 != sj != t}
    return np.ones((len(times), lam.size)), zero, inner


def _entries(lam: np.ndarray, m: float, rows: dict):
    """The entries of the block x_s = lam phi(s) over ``rows`` ({row: s}),
    split at _SMALL_X: per side, each entry's out row, column, x_s and
    position among ``rows`` (to gather per-row scalars)."""
    x_s = np.array([phi_of_t(m, sj) for sj in rows.values()])[:, None] * lam
    out_row = np.array(list(rows), dtype=int)
    sides = []
    for side in (x_s < _SMALL_X, x_s >= _SMALL_X):
        pos, col = np.nonzero(side)
        sides.append((out_row[pos], col, x_s[pos, col], pos))
    return sides


def kernel_phi1_scaled(t: float, s, lam: np.ndarray, m: float) -> np.ndarray:
    """e^{-lam (phi(t)-phi(s))} Phi1(t,s;lam) for t >= s >= 0, elementwise in lam.

    Exactly 1 at s = t.  For t > s > 0 this is the sum of two positive Bessel
    products; for s = 0 it reduces to the scaled V1.  Where x_s < _SMALL_X
    those products lose digits and finally underflow to 0 * inf, so Phi1 =
    V1(t) V2'(s) - V2(t) V1'(s) is taken with V2'(s) = 1 and V1'(s) =
    lam^2 s^{m+1}/(m+1), whose relative corrections are O(x_s^2).

    ``s`` is one time, giving shape (L,), or a 1-d array of times, giving
    one row per time, shape (S, L).  The time-t block (``_time_block``) is
    read once for all rows; the per-row scalars (phi(s), the powers of s,
    t - s) are Python floats, so every row has the bits of the call at its
    own s.
    """
    nu = _nu(m)
    lam = np.asarray(lam, dtype=float)
    out, zero, inner = _rows(t, s, lam)
    if zero:
        out[zero] = _v1_scaled(t, lam, m)
    if inner:
        x_t, i_t, k_t = _time_block(t, lam, m)
        (row, col, x_s, pos), (row_b, col_b, x_b, pos_b) = _entries(lam, m, inner)
        if row.size:
            v1, v2_ratio = _v1_scaled(t, lam, m), _v2_ratio_scaled(t, lam, m)
            lo = lam[col]
            s_pow = np.array([sj ** (m + 1.0) for sj in inner.values()])[pos]
            out[row, col] = np.exp(x_s) * (
                v1[col] - lo * lo * s_pow / (m + 1.0) * t * v2_ratio[col]
            )
        if row_b.size:
            lb = lam[col_b]
            delta = x_t[col_b] - x_b
            s_pow = np.array([sj ** (m / 2.0) for sj in inner.values()])[pos_b]
            pref = 2.0 * nu * (2.0 * nu * lb) ** (-nu) * lb * s_pow * math.sqrt(t)
            grow = i_t[col_b] * x_b**nu * kve(nu - 1.0, x_b)
            decay = np.exp(-2.0 * delta) * k_t[col_b] * x_b**nu * ive(nu - 1.0, x_b)
            out[row_b, col_b] = pref * (grow + decay)
    return out if np.ndim(s) else out[0]


# below this separation the Bessel difference cancels more than the local
# expansion error of the (t-s)-series for Phi2/(t-s)
_RATIO_SWITCH = 1e-6


def kernel_phi2_ratio_scaled(t: float, s, lam: np.ndarray, m: float) -> np.ndarray:
    """e^{-lam (phi(t)-phi(s))} Phi2(t,s;lam)/(t-s) for t >= s >= 0.

    Exactly 1 at s = t, and continuous there (a (t-s)-series on the rows
    with t - s < _RATIO_SWITCH max(1, t)).  Where x_s < _SMALL_X, Phi2 =
    V2(t) V1(s) - V1(t) V2(s) is taken with V1(s) = 1 and V2(s) = s, as in
    ``kernel_phi1_scaled``, whose contract for an array of times s this
    kernel shares.
    """
    nu = _nu(m)
    lam = np.asarray(lam, dtype=float)
    out, zero, inner = _rows(t, s, lam)
    if zero:
        out[zero] = _v2_ratio_scaled(t, lam, m)
    if inner:
        x_t, i_t, k_t = _time_block(t, lam, m)
    near = {j: sj for j, sj in inner.items() if t - sj < _RATIO_SWITCH * max(1.0, t)}
    far = {j: sj for j, sj in inner.items() if j not in near}
    if near:
        # Phi2(t,s) = (t-s) + lam^2 s^m (t-s)^3/6 + lam^2 m s^{m-1} (t-s)^4/24 + ...
        s_near = near.values()
        x_s = np.array([[phi_of_t(m, sj)] for sj in s_near]) * lam
        dt = np.array([[t - sj] for sj in s_near])
        s_m = np.array([[sj**m] for sj in s_near])
        s_m1 = np.array([[sj ** (m - 1.0)] for sj in s_near])
        dt3 = np.array([[(t - sj) ** 3] for sj in s_near])
        lam2 = lam * lam
        corr = lam2 * s_m * dt * dt / 6.0 + lam2 * m * s_m1 * dt3 / 24.0
        out[list(near)] = np.exp(-(x_t - x_s)) * (1.0 + corr)
    if far:
        (row, col, x_s, pos), (row_b, col_b, x_b, pos_b) = _entries(lam, m, far)
        if row.size:
            v1, v2_ratio = _v1_scaled(t, lam, m), _v2_ratio_scaled(t, lam, m)
            s_small = np.array(list(far.values()))[pos]
            dt = np.array([t - sj for sj in far.values()])[pos]
            out[row, col] = np.exp(x_s) * (t * v2_ratio[col] - s_small * v1[col]) / dt
        if row_b.size:
            delta = x_t[col_b] - x_b
            pref = np.array([2.0 * nu * math.sqrt(sj * t) / (t - sj) for sj in far.values()])
            main = kve(nu, x_b) * i_t[col_b]
            sub = np.exp(-2.0 * delta) * ive(nu, x_b) * k_t[col_b]
            out[row_b, col_b] = pref[pos_b] * (main - sub)
    return out if np.ndim(s) else out[0]


def _unscaled(kernel, t: float, s: float, params: OdeParams) -> float:
    """A propagator kernel at the single frequency params.lam, times its growth."""
    if t < s:
        raise DomainError(f"need t >= s, got t={t} < s={s}")
    m, lam = params.m, params.lam
    scaled = float(kernel(t, s, np.array([lam]), m)[0])
    growth = lam * (phi_of_t(m, t) - phi_of_t(m, s))
    if growth < 709.0 or not scaled:
        return scaled * exp_or_inf(growth)
    # e^growth alone leaves the double range, the product need not: add the logs
    return math.copysign(exp_or_inf(growth + math.log(abs(scaled))), scaled)


def phi1(t: float, s: float, params: OdeParams) -> float:
    """Propagator with Phi1(s,s)=1, d/dt Phi1(s,s)=0."""
    return _unscaled(kernel_phi1_scaled, t, s, params)


def phi2_ratio(t: float, s: float, params: OdeParams) -> float:
    """Phi2(t,s)/(t-s), exactly 1 at s = t and continuous there."""
    return _unscaled(kernel_phi2_ratio_scaled, t, s, params)


def phi2(t: float, s: float, params: OdeParams) -> float:
    """Propagator with Phi2(s,s)=0, d/dt Phi2(s,s)=1."""
    return phi2_ratio(t, s, params) * (t - s)


def _scaled_rhs(m: float, lam: float):
    """Right side of the scaled first-order system for (w, v) = e^{-lam phi}(y, y')."""

    def rhs(t, wv):
        w, v = wv
        c = lam * t ** (m / 2.0)
        return [v - c * w, lam * lam * t**m * w - c * v]

    return rhs


# the oracle's largest lambda phi(t_end): its step count grows in proportion
# (~0.36 s per solve at 1e4 on a 2-vCPU VM), and the pair's own checks reach
# ~3.6e3 (m = 3, lambda = 5, t = 20)
_ORACLE_MAX_GROWTH = 1e4
# scipy raises a smaller rtol to 100 eps with a warning; with atol = rtol
# far below it the step size underflows, after numpy warnings
_ORACLE_MIN_RTOL = 100.0 * float(np.finfo(float).eps)


def ode_oracle_scaled(
    params: OdeParams,
    t_end: float,
    ic: tuple[float, float],
    rtol: float = 1e-10,
) -> tuple[float, float]:
    """Integrate the scaled system; returns e^{-lambda phi(t_end)} (y, y').

    Initial data coincide with the unscaled data because phi(0) = 0.
    Independent of the Bessel evaluation path.  A DomainError refuses a
    lambda phi(t_end) above _ORACLE_MAX_GROWTH, whose cost is unbounded, and
    an rtol outside [_ORACLE_MIN_RTOL, 1).
    """
    from scipy.integrate import solve_ivp

    if not t_end >= 0:
        raise DomainError(f"t_end must be >= 0, got {t_end}")
    if not _ORACLE_MIN_RTOL <= rtol < 1:
        raise DomainError(f"rtol must be in [{_ORACLE_MIN_RTOL:.3g}, 1), got {rtol}")
    growth = params.lam * phi_of_t(params.m, t_end)
    if not growth <= _ORACLE_MAX_GROWTH:
        raise DomainError(f"oracle growth lambda phi(t)={growth:.12g} exceeds "
                          f"{_ORACLE_MAX_GROWTH:.12g}")
    if t_end == 0:
        return (float(ic[0]), float(ic[1]))
    sol = solve_ivp(
        _scaled_rhs(params.m, params.lam),
        (0.0, t_end),
        [float(ic[0]), float(ic[1])],
        method="DOP853",
        rtol=rtol,
        atol=rtol,
        dense_output=False,
    )
    if not sol.success:
        raise DomainError(f"oracle integration failed: {sol.message}")
    return (float(sol.y[0, -1]), float(sol.y[1, -1]))
