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

All values come from exponentially scaled Bessel functions (scipy
``ive``/``kve``) with explicit exponent bookkeeping, so they stay bounded
for arbitrarily large t:

* ``fundamental_pair_scaled`` -- the pair times e^{-x_t} (``fundamental_pair``
  evaluates the same formula with the unscaled ``iv``);
* ``kernel_phi1_scaled`` / ``kernel_phi2_ratio_scaled`` -- the two-point
  propagators Phi1, Phi2 (unit data at time s) times e^{-(x_t - x_s)},
  vectorized over lambda for the test-function quadratures.  Away from the
  diagonal s = t they are sums of positive Bessel products, so no
  subtractive cancellation occurs; a (t-s)-series takes over at the
  diagonal, and the leading small-s terms where lambda phi(s) < 1e-8.
  The time-t pair ive(nu, x_t), kve(nu, x_t) is memoized (``_bessel_pair``),
  so one t and Gauss level of a quadrature evaluates it once; at s = 0 it
  gives V1 and V2 with no negative order (see ``_small_s_factors``).

``fundamental_pair``, ``phi1``, ``phi2`` and ``phi2_ratio`` are the unscaled
scalar forms.  ``ode_oracle_scaled`` is an independent check: adaptive
high-order integration of the same equation in scaled variables
(w = e^{-lambda phi} y); it returns e^{-lambda phi(t)} (y, y'), so compare
it with ``fundamental_pair_scaled``, or multiply by e^{lambda phi(t)} while
that stays below ~e^709.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import iv, ive, kve

from .errors import DomainError
from .exponents import exp_or_inf, pow_or_inf
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


def _pair(params: OdeParams, t: float, scaled: bool) -> FundamentalEval:
    m, lam = params.m, params.lam
    x = lam * phi_of_t(m, t)
    if x < _SMALL_X:
        e = math.exp(-x) if scaled else 1.0
        return FundamentalEval(e, e * lam * lam * t ** (m + 1.0) / (m + 1.0), e * t, e)
    nu = _nu(m)
    c1 = math.gamma(1.0 - nu) * (nu * lam) ** nu * math.sqrt(t)
    c2 = math.gamma(1.0 + nu) * (nu * lam) ** -nu * math.sqrt(t)
    dx = lam * t ** (m / 2.0)
    # one call for the four orders; the unscaled I_mu overflow to inf by themselves
    bessel_i = ive if scaled else iv
    i_neg, i_neg1, i_pos, i_pos1 = bessel_i((-nu, 1.0 - nu, nu, nu - 1.0), x)
    return FundamentalEval(
        float(c1 * i_neg),
        float(c1 * i_neg1 * dx),
        float(c2 * i_pos),
        float(c2 * i_pos1 * dx),
    )


def fundamental_pair(params: OdeParams, t: float) -> FundamentalEval:
    """V1, V1', V2, V2' at time t; exact initial data (1,0,0,1) at t = 0.

    Values grow like e^{lambda phi(t)} and overflow to inf once
    lambda phi(t) exceeds ~710; use ``fundamental_pair_scaled`` there.
    """
    return _pair(params, t, scaled=False)


def fundamental_pair_scaled(params: OdeParams, t: float) -> FundamentalEval:
    """The fundamental pair premultiplied by e^{-lambda phi(t)} (bounded)."""
    return _pair(params, t, scaled=True)


def _memoized(memo: dict, key, build):
    """memo[key]; on a miss build() makes it (an array or a tuple of arrays),
    stored read-only.  At most 4 entries (one per Gauss level of
    testfun.integrate_lambda_weighted), evicted first-in-first-out."""
    value = memo.get(key)
    if value is None:
        value = build()
        for arr in value if isinstance(value, tuple) else (value,):
            arr.flags.writeable = False
        if len(memo) >= 4:
            del memo[next(iter(memo))]
        memo[key] = value
    return value


_PAIR_MEMO: dict[tuple, tuple] = {}


def _bessel_pair(nu: float, x: np.ndarray):
    """Read-only (ive(nu, x), kve(nu, x)), memoized on the exact (nu, x)."""
    return _memoized(_PAIR_MEMO, (nu, x.shape, x.tobytes()), lambda: (ive(nu, x), kve(nu, x)))


def _small_s_factors(t: float, lam: np.ndarray, m: float, i_nu, k_nu):
    """(e^{-x_t} V1(t), e^{-x_t} V2(t)/t), elementwise in lam, from the time
    pair i_nu = ive(nu, x_t), k_nu = kve(nu, x_t) at the same lam.

    V1 uses I_{-nu} = I_nu + (2/pi) sin(nu pi) K_nu (DLMF 10.27.2), so only the
    orders +nu are evaluated (the negative order costs ~3x in scipy); both
    terms are positive.  Below _SMALL_X both values are e^{-x_t}, as in ``_pair``.
    """
    nu = _nu(m)
    x_t = lam * phi_of_t(m, t)
    k_nu = np.exp(-2.0 * x_t) * k_nu
    v1 = math.gamma(1.0 - nu) * (nu * lam) ** nu * math.sqrt(t) * (
        i_nu + 2.0 / math.pi * math.sin(nu * math.pi) * k_nu
    )
    v2_ratio = math.gamma(1.0 + nu) * (nu * lam) ** (-nu) * math.sqrt(t) / t * i_nu
    tiny = x_t < _SMALL_X
    return np.where(tiny, np.exp(-x_t), v1), np.where(tiny, np.exp(-x_t), v2_ratio)


def kernel_phi1_scaled(t: float, s: float, lam: np.ndarray, m: float) -> np.ndarray:
    """e^{-lam (phi(t)-phi(s))} Phi1(t,s;lam) for t >= s >= 0, elementwise in lam.

    For s > 0 this is the sum of two positive Bessel products; for s = 0 it
    reduces to the scaled V1.  Where x_s < _SMALL_X those products lose
    digits and finally underflow to 0 * inf, so Phi1 = V1(t) V2'(s) -
    V2(t) V1'(s) is taken with V2'(s) = 1 and V1'(s) = lam^2 s^{m+1}/(m+1),
    whose relative corrections are O(x_s^2).
    """
    nu = _nu(m)
    lam = np.asarray(lam, dtype=float)
    if t == 0.0:
        return np.ones_like(lam)
    x_t = lam * phi_of_t(m, t)
    i_t, k_t = _bessel_pair(nu, x_t)
    if s == 0.0:
        return _small_s_factors(t, lam, m, i_t, k_t)[0]
    x_s = lam * phi_of_t(m, s)
    small = x_s < _SMALL_X
    out = np.empty_like(lam)
    lo = lam[small]
    v1, v2_ratio = _small_s_factors(t, lo, m, i_t[small], k_t[small])
    out[small] = np.exp(x_s[small]) * (
        v1 - lo * lo * s ** (m + 1.0) / (m + 1.0) * t * v2_ratio
    )
    lam, x_t, x_s, i_t, k_t = (a[~small] for a in (lam, x_t, x_s, i_t, k_t))
    delta = x_t - x_s
    pref = 2.0 * nu * (2.0 * nu * lam) ** (-nu) * lam * s ** (m / 2.0) * math.sqrt(t)
    grow = i_t * x_s**nu * kve(nu - 1.0, x_s)
    decay = np.exp(-2.0 * delta) * k_t * x_s**nu * ive(nu - 1.0, x_s)
    out[~small] = pref * (grow + decay)
    return out


# below this separation the Bessel difference cancels more than the local
# expansion error of the (t-s)-series for Phi2/(t-s)
_RATIO_SWITCH = 1e-6


def kernel_phi2_ratio_scaled(
    t: float, s: float, lam: np.ndarray, m: float
) -> np.ndarray:
    """e^{-lam (phi(t)-phi(s))} Phi2(t,s;lam)/(t-s) for t >= s >= 0.

    The ratio is continuous through the diagonal (limit 1 at s = t).  Where
    x_s < _SMALL_X, Phi2 = V2(t) V1(s) - V1(t) V2(s) is taken with V1(s) = 1
    and V2(s) = s, as in ``kernel_phi1_scaled``.
    """
    nu = _nu(m)
    lam = np.asarray(lam, dtype=float)
    if t == 0.0:
        return np.ones_like(lam)
    x_t = lam * phi_of_t(m, t)
    if s == 0.0:
        return _small_s_factors(t, lam, m, *_bessel_pair(nu, x_t))[1]
    x_s = lam * phi_of_t(m, s)
    dt = t - s
    if dt < _RATIO_SWITCH * max(1.0, t):
        # Phi2(t,s) = (t-s) + lam^2 s^m (t-s)^3/6 + lam^2 m s^{m-1} (t-s)^4/24 + ...
        lam2 = lam * lam
        corr = lam2 * s**m * dt * dt / 6.0 + lam2 * m * s ** (m - 1.0) * dt**3 / 24.0
        return np.exp(-(x_t - x_s)) * (1.0 + corr)
    i_t, k_t = _bessel_pair(nu, x_t)
    small = x_s < _SMALL_X
    out = np.empty_like(lam)
    v1, v2_ratio = _small_s_factors(t, lam[small], m, i_t[small], k_t[small])
    out[small] = np.exp(x_s[small]) * (t * v2_ratio - s * v1) / dt
    x_t, x_s, i_t, k_t = (a[~small] for a in (x_t, x_s, i_t, k_t))
    delta = x_t - x_s
    pref = 2.0 * nu * math.sqrt(s * t) / dt
    main = kve(nu, x_s) * i_t
    sub = np.exp(-2.0 * delta) * ive(nu, x_s) * k_t
    out[~small] = pref * (main - sub)
    return out


def _unscaled(kernel, t: float, s: float, params: OdeParams) -> float:
    """A propagator kernel at the single frequency params.lam, times its growth."""
    if t < s:
        raise DomainError(f"need t >= s, got t={t} < s={s}")
    m, lam = params.m, params.lam
    scaled = float(kernel(t, s, np.array([lam]), m)[0])
    return scaled * exp_or_inf(lam * (phi_of_t(m, t) - phi_of_t(m, s)))


def phi1(t: float, s: float, params: OdeParams) -> float:
    """Propagator with Phi1(s,s)=1, d/dt Phi1(s,s)=0."""
    return _unscaled(kernel_phi1_scaled, t, s, params)


def phi2_ratio(t: float, s: float, params: OdeParams) -> float:
    """Phi2(t,s)/(t-s), continuous through the diagonal (limit 1 at s=t)."""
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
    an rtol outside (0, 1).
    """
    # the only scipy.integrate user; imported here to keep package import light
    from scipy.integrate import solve_ivp

    if not t_end >= 0:
        raise DomainError(f"t_end must be >= 0, got {t_end}")
    if not 0 < rtol < 1:
        raise DomainError(f"rtol must be in (0, 1), got {rtol}")
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
