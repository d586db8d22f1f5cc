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
  diagonal.

``fundamental_pair``, ``phi1``, ``phi2`` and ``phi2_ratio`` are the unscaled
scalar forms.  ``ode_oracle`` is an independent check: adaptive high-order
integration of the same equation in scaled variables (w = e^{-lambda phi} y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import iv, ive, kve

from .errors import DomainError
# unused here; re-exported because the benchmark tracer wraps these names in this module
from .specfun import kummer_m, kummer_m_deriv  # noqa: F401


@dataclass(frozen=True)
class OdeParams:
    """Degeneracy exponent m >= 0 and frequency lambda > 0.

    m = 0 is the constant-speed (wave) reduction with cosh/sinh solutions.
    """

    m: float
    lam: float

    def __post_init__(self):
        if not self.m >= 0:
            raise DomainError(f"m must be >= 0, got {self.m}")
        if not self.lam > 0:
            raise DomainError(f"lambda must be > 0, got {self.lam}")


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
    t: float


def phi_of_t(m: float, t: float) -> float:
    """Degenerate characteristic distance phi(t) = 2 t^{(m+2)/2} / (m+2)."""
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    return 2.0 / (m + 2.0) * t ** ((m + 2.0) / 2.0)


def _nu(m: float) -> float:
    return 1.0 / (m + 2.0)


def _growth(x: float) -> float:
    """e^x, or inf once it leaves the double range."""
    return math.exp(x) if x < 709.0 else math.inf


# below this x_t the leading Taylor terms of V1, V2 are exact in double
# precision (relative corrections < x_t^2 / 2), while x_t^{-nu} in the
# Bessel form loses digits and finally underflows to 0 * inf
_SMALL_X = 1e-8


def _pair(params: OdeParams, t: float, scaled: bool) -> FundamentalEval:
    m, lam = params.m, params.lam
    x = lam * phi_of_t(m, t)
    if x < _SMALL_X:
        e = math.exp(-x) if scaled else 1.0
        return FundamentalEval(e, e * lam * lam * t ** (m + 1.0) / (m + 1.0), e * t, e, t)
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
        t,
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


def kernel_phi1_scaled(t: float, s: float, lam: np.ndarray, m: float) -> np.ndarray:
    """e^{-lam (phi(t)-phi(s))} Phi1(t,s;lam) for t >= s >= 0, elementwise in lam.

    For s > 0 this is the sum of two positive Bessel products; for s = 0 it
    reduces to the scaled V1.
    """
    nu = _nu(m)
    lam = np.asarray(lam, dtype=float)
    x_t = lam * phi_of_t(m, t)
    if s == 0.0:
        if t == 0.0:
            return np.ones_like(lam)
        pref = math.gamma(1.0 - nu) * (nu * lam) ** nu * math.sqrt(t)
        return np.where(x_t < _SMALL_X, np.exp(-x_t), pref * ive(-nu, x_t))
    x_s = lam * phi_of_t(m, s)
    delta = x_t - x_s
    pref = 2.0 * nu * (2.0 * nu * lam) ** (-nu) * lam * s ** (m / 2.0) * math.sqrt(t)
    grow = ive(nu, x_t) * x_s**nu * kve(nu - 1.0, x_s)
    decay = np.exp(-2.0 * delta) * kve(nu, x_t) * x_s**nu * ive(nu - 1.0, x_s)
    return pref * (grow + decay)


# below this separation the Bessel difference cancels more than the local
# expansion error of the (t-s)-series for Phi2/(t-s)
_RATIO_SWITCH = 1e-6


def kernel_phi2_ratio_scaled(
    t: float, s: float, lam: np.ndarray, m: float
) -> np.ndarray:
    """e^{-lam (phi(t)-phi(s))} Phi2(t,s;lam)/(t-s) for t >= s >= 0.

    The ratio is continuous through the diagonal (limit 1 at s = t).
    """
    nu = _nu(m)
    lam = np.asarray(lam, dtype=float)
    x_t = lam * phi_of_t(m, t)
    dt = t - s
    if s == 0.0:
        if t == 0.0:
            return np.ones_like(lam)
        pref = math.gamma(1.0 + nu) * (nu * lam) ** (-nu) * math.sqrt(t) / t
        return np.where(x_t < _SMALL_X, np.exp(-x_t), pref * ive(nu, x_t))
    x_s = lam * phi_of_t(m, s)
    if dt < _RATIO_SWITCH * max(1.0, t):
        # Phi2(t,s) = (t-s) + lam^2 s^m (t-s)^3/6 + lam^2 m s^{m-1} (t-s)^4/24 + ...
        lam2 = lam * lam
        corr = lam2 * s**m * dt * dt / 6.0 + lam2 * m * s ** (m - 1.0) * dt**3 / 24.0
        return np.exp(-(x_t - x_s)) * (1.0 + corr)
    delta = x_t - x_s
    pref = 2.0 * nu * math.sqrt(s * t) / dt
    main = kve(nu, x_s) * ive(nu, x_t)
    sub = np.exp(-2.0 * delta) * ive(nu, x_s) * kve(nu, x_t)
    return pref * (main - sub)


def _unscaled(kernel, t: float, s: float, params: OdeParams) -> float:
    """A propagator kernel at the single frequency params.lam, times its growth."""
    if t < s:
        raise DomainError(f"need t >= s, got t={t} < s={s}")
    m, lam = params.m, params.lam
    scaled = float(kernel(t, s, np.array([lam]), m)[0])
    return scaled * _growth(lam * (phi_of_t(m, t) - phi_of_t(m, s)))


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


def ode_oracle_scaled(
    params: OdeParams,
    t_end: float,
    ic: tuple[float, float],
    rtol: float = 1e-10,
) -> tuple[float, float]:
    """Integrate the scaled system; returns e^{-lambda phi(t_end)} (y, y').

    Initial data coincide with the unscaled data because phi(0) = 0.
    Independent of the Bessel evaluation path.
    """
    # the only scipy.integrate user; imported here to keep package import light
    from scipy.integrate import solve_ivp

    if t_end < 0:
        raise DomainError(f"t_end must be >= 0, got {t_end}")
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


def ode_oracle(
    params: OdeParams,
    t_end: float,
    ic: tuple[float, float],
    rtol: float = 1e-10,
) -> tuple[float, float]:
    """(y, y') at t_end for y'' = lambda^2 t^m y from data (y, y')(0) = ic.

    Overflows to inf once lambda phi(t_end) exceeds ~709; compare against
    ``ode_oracle_scaled``/``fundamental_pair_scaled`` in that regime.
    """
    w, v = ode_oracle_scaled(params, t_end, ic, rtol)
    scale = _growth(params.lam * phi_of_t(params.m, t_end))
    return (w * scale, v * scale)
