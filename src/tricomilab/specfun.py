"""Confluent hypergeometric kernel M(a,b;z) and the radial eigenfunction.

Two special functions:

* ``kummer_m`` -- Kummer's confluent hypergeometric function M(a,b;z) for
  real arguments, evaluated by a regime split between the Taylor series,
  the Kummer transformation M(a,b;z) = e^z M(b-a,b;-z), and the large-|z|
  asymptotic expansion, with an error estimate.  It is the closed form
  that the Bessel-basis fundamental system of ``tricomi_ode`` rewrites,
  and the tests pin that rewriting to it.
* ``varphi`` -- the sphere average of e^{x.w}, the radial eigenfunction of
  the Laplacian with eigenvalue one (Lap(phi) = phi).

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np
from scipy.special import gammasgn, ive

from .errors import DomainError

_EPS = float(np.finfo(float).eps)
_LOG_MAX = math.log(sys.float_info.max)

# Direct Taylor summation at negative z loses ~e^{|z|} * eps to alternating
# cancellation; |z| <= 6 keeps the absolute loss below ~1e-13, which leaves
# Wronskian-type products of M values (amplified by another e^{|z|}) below
# 1e-8.  Beyond the cut the Kummer transformation routes to the stable
# all-positive-terms side.
_DIRECT_NEG_CUT = 6.0
_BLEND_LO = 30.0
_BLEND_HI = 40.0
# final rounding of a returned value, in units of its magnitude
_ROUND_FLOOR = 4.0 * _EPS


class KummerEval(NamedTuple):
    value: float
    regime: str
    error_estimate: float


def validate_kummer_params(a: float, b: float) -> None:
    """Reject b at a pole of the series unless the a=b shortcut applies."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"kummer parameters must be finite, got a={a}, b={b}")
    if b <= 0 and float(b).is_integer() and a != b:
        raise DomainError(
            f"b={b} is a non-positive integer (series pole) and a != b"
        )


def _taylor_series(a: float, b: float, z: float, max_terms: int = 2000):
    """Sum M's Taylor series by term-ratio recursion.

    Returns (sum, abs_error_estimate).  The estimate combines the last
    retained term, the cancellation floor eps * max|partial sum| and the
    rounding that the recursion carries into term k (about k eps relative).
    """
    term = 1.0
    total = 1.0
    peak = 1.0
    drift = 0.0
    k = 0
    z_hump = abs(z) + 10.0
    while k < max_terms:
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        peak = max(peak, abs(total), abs(term))
        k += 1
        drift += k * abs(term)
        if abs(term) <= _EPS * abs(total) and k > z_hump:
            break
    err = _EPS * (4.0 * peak + drift) + 2.0 * abs(term)
    return total, err


def _gamma_ratio(num: float, den: float):
    """Gamma(num)/Gamma(den) as (log magnitude, sign); handles negatives."""
    if den <= 0 and float(den).is_integer():
        return -math.inf, 1.0  # 1/Gamma at a pole -> ratio vanishes
    sign = gammasgn(num) * gammasgn(den)
    return math.lgamma(num) - math.lgamma(den), float(sign)


def _asymptotic_negative(a: float, b: float, x: float, max_terms: int = 200):
    """M(a,b;-x) for large x > 0: algebraic branch summed to optimal truncation.

    M(a,b;-x) ~ Gamma(b)/Gamma(b-a) * x^{-a} * sum_s (a)_s (a-b+1)_s / (s! x^s).
    The e^{-x} companion branch is below the optimal-truncation floor for
    x >= 30 and is accounted for in the error estimate only.
    """
    term = 1.0
    total = 1.0
    s = 0
    while s < max_terms:
        nxt = term * (a + s) * (a - b + 1.0 + s) / ((s + 1.0) * x)
        if abs(nxt) >= abs(term):
            term = nxt  # series turned divergent; nxt sets the error scale
            break
        term = nxt
        total += term
        s += 1
        if abs(term) <= _EPS * abs(total):
            break
    log_pref, sign = _gamma_ratio(b, b - a)
    pref, pref_err = _exp_times(log_pref - a * math.log(x), sign)
    value = pref * total
    # bound for the dropped exponentially small branch e^{-x} Gamma(b)/Gamma(a)
    log_exp_branch, _ = _gamma_ratio(b, a)
    dropped = math.exp(min(700.0, log_exp_branch - x + (a - b) * math.log(x)))
    err = abs(pref) * (abs(term) + 4.0 * _EPS * abs(total)) + pref_err * abs(total) + dropped
    return value, err


def _eval_negative(a: float, b: float, z: float) -> KummerEval:
    """Dispatch for z < 0 between direct series, reflected series, asymptotic."""
    x = -z
    if x <= _DIRECT_NEG_CUT:
        val, err = _taylor_series(a, b, z)
        return KummerEval(val, "series", err)
    candidates = []
    if x < _BLEND_HI:
        ref, ref_err = _taylor_series(b - a, b, x)
        scale = math.exp(z)
        candidates.append(KummerEval(scale * ref, "series-kummer", scale * ref_err))
    if x > _BLEND_LO:
        asy, asy_err = _asymptotic_negative(a, b, x)
        candidates.append(KummerEval(asy, "asymptotic", asy_err))
    return min(candidates, key=lambda c: c.error_estimate)


def _eval_positive(a: float, b: float, z: float) -> KummerEval:
    """Dispatch for z > 0: series, or Kummer reflection onto the asymptotic side."""
    candidates = []
    if z < _BLEND_HI:
        val, err = _taylor_series(a, b, z)
        candidates.append(KummerEval(val, "series", err))
    if z > _BLEND_LO:
        # M(a,b;z) = e^z M(b-a,b;-z), the reflected point taken asymptotically
        asy, asy_err = _asymptotic_negative(b - a, b, z)
        val, round_err = _exp_times(z, asy)
        err = _exp_times(z, asy_err)[0] + round_err
        candidates.append(KummerEval(val, "asymptotic-kummer", err))
    return min(candidates, key=lambda c: c.error_estimate)


def _exp_times(z: float, x: float) -> tuple[float, float]:
    """(e^z x, its rounding error) in log space, so e^z alone may exceed the
    double range; the product is inf only when it does itself."""
    if x == 0.0:
        return 0.0, 0.0
    log_mag = z + math.log(abs(x))
    if log_mag > _LOG_MAX:
        return math.copysign(math.inf, x), math.inf
    val = math.copysign(math.exp(log_mag), x)
    if val == 0.0:
        return val, 0.0
    # exp turns the absolute rounding of log_mag into a relative error
    return val, _EPS * (abs(z) + abs(log_mag)) * abs(val)


def kummer_m_detail(a: float, b: float, z: float) -> KummerEval:
    """M(a,b;z) together with the regime used and an error estimate.

    Every estimate includes the rounding of the returned value itself.
    """
    validate_kummer_params(a, b)
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    if a == b:
        ev = KummerEval(_exp_times(z, 1.0)[0], "exp", 0.0)
    elif z == 0.0:
        return KummerEval(1.0, "series", 0.0)
    elif z < 0:
        ev = _eval_negative(a, b, z)
    else:
        ev = _eval_positive(a, b, z)
    return ev._replace(error_estimate=ev.error_estimate + _ROUND_FLOOR * abs(ev.value))


def kummer_m(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric function M(a,b;z) for real arguments."""
    return kummer_m_detail(a, b, z).value


def kummer_m_deriv(a: float, b: float, z: float) -> float:
    """dM/dz = (a/b) M(a+1, b+1; z)."""
    validate_kummer_params(a, b)
    if a == b:
        return kummer_m(a, b, z)  # d/dz e^z
    if a == 0.0:
        return 0.0
    return (a / b) * kummer_m(a + 1.0, b + 1.0, z)


# ---------------------------------------------------------------------------
# radial eigenfunction phi(x) = int_{S^{n-1}} e^{x.w} dw
# ---------------------------------------------------------------------------


def surface_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _check_dim_radius(n: int, r) -> np.ndarray:
    if int(n) != n or n < 1:
        raise DomainError(f"dimension must be a positive integer, got {n}")
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0):
        raise DomainError("radius must be nonnegative")
    return arr


def varphi_scaled(n: int, r):
    """e^{-r} * varphi(n, r); stays bounded for all r >= 0.

    Large-radius work (test-function integrands) must use this form: the
    bare eigenfunction grows like e^r and overflows near r ~ 700.
    """
    r = _check_dim_radius(n, r)
    if n == 1:
        out = 1.0 + np.exp(-2.0 * r)
    elif n == 2:
        out = 2.0 * math.pi * ive(0, r)
    elif n == 3:
        small = r < 1e-6
        rs = np.where(small, 1.0, r)
        out = np.where(
            small,
            4.0 * math.pi * np.exp(-r) * (1.0 + r * r / 6.0),
            4.0 * math.pi * (-np.expm1(-2.0 * rs)) / (2.0 * rs),
        )
    else:
        nu = n / 2.0 - 1.0
        zero = r == 0.0
        rs = np.where(zero, 1.0, r)
        out = np.where(
            zero,
            surface_area(n),
            (2.0 * math.pi) ** (n / 2.0) * rs ** (-nu) * ive(nu, rs),
        )
    return float(out) if np.ndim(out) == 0 else out


def varphi(n: int, r):
    """Sphere average varphi(|x|) = int_{S^{n-1}} e^{x.w} dw (2 cosh for n=1).

    Satisfies Lap(varphi) = varphi and varphi ~ C_n r^{-(n-1)/2} e^r for
    large r.  Overflows to inf for r beyond ~700; use ``varphi_scaled``
    in exponent-compensated expressions.
    """
    r = _check_dim_radius(n, r)
    out = np.exp(r) * varphi_scaled(n, r)
    return float(out) if np.ndim(out) == 0 else out


_QUAD_NODES = np.polynomial.legendre.leggauss(200)


def varphi_sphere_quadrature(n: int, r: float) -> float:
    """Reference evaluation of varphi by direct angular quadrature.

    Independent of the Bessel closed forms; intended as a test oracle and
    for spot checks (slow, scalar).
    """
    r = float(_check_dim_radius(n, r))
    if n == 1:
        return math.exp(r) + math.exp(-r)
    theta, w = _QUAD_NODES
    # map [-1, 1] -> [0, pi]; |S^{n-2}| carries the azimuthal measure
    th = 0.5 * math.pi * (theta + 1.0)
    wt = 0.5 * math.pi * w
    integrand = np.exp(r * np.cos(th)) * np.sin(th) ** (n - 2)
    return surface_area(n - 1) * float(np.sum(wt * integrand))


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (x > 0):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)
