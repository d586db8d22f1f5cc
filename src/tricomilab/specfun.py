"""Confluent hypergeometric kernel M(a,b;z) and the radial eigenfunction.

Two special functions:

* ``kummer_m`` -- Kummer's confluent hypergeometric function M(a,b;z) for
  real arguments, evaluated by a regime split between the Taylor series,
  the Kummer transformation M(a,b;z) = e^z M(b-a,b;-z), and the large-|z|
  asymptotic expansion, with an error estimate.  Where a or b - a is a
  non-positive integer the series terminates: M is a polynomial, or e^z
  times one.  It is the closed form that the Bessel-basis fundamental
  system of ``tricomi_ode`` rewrites, and the tests pin that rewriting to
  it.  ``kummer_m_gap1`` is the same function on the family M(b, b+1; z),
  b > 0 (the kernel of the diagonal test functions), for one b per call,
  vectorised over arrays of z from the regimes of ``kummer_m`` as they
  read there.
* ``varphi`` -- the sphere average of e^{x.w}, the radial eigenfunction of
  the Laplacian with eigenvalue one (Lap(phi) = phi).

This module holds the package's only reference to ``scipy.special``: the
modified Bessel functions ``iv``, ``ive``, ``kve`` and ``i0e`` forward to
it and import it on the first call (~0.25 s), so a command that evaluates
none of them never loads it.  Both Kummer functions and ``varphi`` for
n = 1, 3 need none.

All functions are pure; the one lazily built value (the Gauss rule of
``varphi_sphere_quadrature``) is cached, and the same on every call.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import DomainError

_EPS = float(np.finfo(float).eps)
_LOG_MAX = math.log(sys.float_info.max)
_TINY = sys.float_info.min  # the smallest normal double

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


@functools.cache
def _special():
    import scipy.special

    return scipy.special


def iv(v, z):
    """Modified Bessel function I_v(z) (``scipy.special.iv``)."""
    return _special().iv(v, z)


def ive(v, z):
    """Exponentially scaled I_v(z) e^{-|z|} (``scipy.special.ive``)."""
    return _special().ive(v, z)


def kve(v, z):
    """Exponentially scaled K_v(z) e^{z} (``scipy.special.kve``)."""
    return _special().kve(v, z)


def i0e(z):
    """Exponentially scaled I_0(z) e^{-|z|} (``scipy.special.i0e``)."""
    return _special().i0e(z)


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
    k = 0.0  # a float counter: the same values as an int, fewer conversions
    z_hump = abs(z) + 10.0
    while k < max_terms:
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        size = abs(term)
        mag = abs(total)
        # peak = max(peak, mag, size), compared in the same order
        if mag > peak:
            peak = mag
        if size > peak:
            peak = size
        k += 1.0
        drift += k * size
        if size <= _EPS * mag and (k > z_hump or size == 0.0):
            break
    err = _EPS * (4.0 * peak + drift) + 2.0 * abs(term)
    return total, err


def _gamma_sign(x: float) -> float:
    """Sign of Gamma(x) off its poles: negative exactly on (-2k-1, -2k), k >= 0."""
    return 1.0 if x > 0 or math.floor(x) % 2 == 0 else -1.0


def _gamma_ratio(num: float, den: float):
    """Gamma(num)/Gamma(den) as (log magnitude, sign, |lgamma(num)| +
    |lgamma(den)|, the scale of the log's rounding); handles negatives."""
    if den <= 0 and float(den).is_integer():
        return -math.inf, 1.0, 0.0  # 1/Gamma at a pole -> ratio vanishes
    lg_num, lg_den = math.lgamma(num), math.lgamma(den)
    return lg_num - lg_den, _gamma_sign(num) * _gamma_sign(den), abs(lg_num) + abs(lg_den)


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
    log_pref, sign, lg_size = _gamma_ratio(b, b - a)
    a_log_x = a * math.log(x)
    arg = log_pref - a_log_x
    pref, pref_err = _exp_times(arg, sign)
    if pref:  # exp turns the absolute rounding of arg into a relative error
        pref_err += _EPS * (lg_size + abs(a_log_x) + abs(arg)) * abs(pref)
    value = pref * total
    # bound for the dropped exponentially small branch e^{-x} Gamma(b)/Gamma(a)
    log_exp_branch = _gamma_ratio(b, a)[0]
    dropped = math.exp(min(700.0, log_exp_branch - x + (a - b) * math.log(x)))
    err = abs(pref) * (abs(term) + 4.0 * _EPS * abs(total)) + pref_err * abs(total) + dropped
    return value, err


def _eval_negative(a: float, b: float, z: float) -> KummerEval:
    """Dispatch for z < 0 between direct series, reflected series, asymptotic;
    past _BLEND_HI the reflected series too where the asymptotic estimate is
    not below |M| (its series grows from the first terms, |a(a-b+1)| >~ |z|)."""
    x = -z
    if x <= _DIRECT_NEG_CUT:
        val, err = _taylor_series(a, b, z)
        return KummerEval(val, "series", err)
    candidates = [_reflected_series(a, b, z)] if x < _BLEND_HI else []
    if x > _BLEND_LO:
        asy, asy_err = _asymptotic_negative(a, b, x)
        candidates.append(KummerEval(asy, "asymptotic", asy_err))
        if x >= _BLEND_HI and not asy_err < abs(asy):
            candidates.append(_reflected_series(a, b, z))
    return min(candidates, key=lambda c: c.error_estimate)


def _eval_positive(a: float, b: float, z: float) -> KummerEval:
    """Dispatch for z > 0: series, or Kummer reflection onto the asymptotic
    side; past _BLEND_HI the series too where the latter's estimate is not
    below |M|."""
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
        if z >= _BLEND_HI and not err < abs(val):
            val, err = _taylor_series(a, b, z)
            candidates.append(KummerEval(val, "series", err))
    return min(candidates, key=lambda c: c.error_estimate)


def _reflected_series(a: float, b: float, z: float) -> KummerEval:
    """M(a,b;z) = e^z M(b-a,b;-z), the reflected series summed, times e^z by ``_exp_times``."""
    ref, ref_err = _taylor_series(b - a, b, -z)
    val, round_err = _exp_times(z, ref)
    return KummerEval(val, "series-kummer", _exp_times(z, ref_err)[0] + round_err)


def _exp_times(z: float, x: float) -> tuple[float, float]:
    """(e^z x, its rounding error): the plain product, within 2 eps, where
    e^z and the product are normal doubles, else in log space, so e^z alone
    may leave the double range; the product is inf only when it does itself."""
    if x == 0.0:
        return 0.0, 0.0
    if z < _LOG_MAX:
        scale = math.exp(z)
        val = scale * x
        if scale >= _TINY and _TINY <= abs(val) < math.inf:
            return val, 2.0 * _EPS * abs(val)
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

    Every estimate includes the rounding of the returned value itself.  A
    DomainError naming the point where the regime's sums leave the double
    range and give nan (inf - inf or 0 * inf), e.g. (3, 1, -1e300).
    """
    validate_kummer_params(a, b)
    if not math.isfinite(z):
        raise DomainError(f"z must be finite, got {z}")
    if a == b:
        ev = KummerEval(_exp_times(z, 1.0)[0], "exp", 0.0)
    elif z == 0.0:
        return KummerEval(1.0, "series", 0.0)
    elif a <= 0 and float(a).is_integer():
        # a polynomial: the series terminates at degree -a, at any z
        val, err = _taylor_series(a, b, z)
        ev = KummerEval(val, "series", err)
    elif b - a <= 0 and float(b - a).is_integer():
        ev = _reflected_series(a, b, z)  # e^z times a polynomial
    elif z < 0:
        ev = _eval_negative(a, b, z)
    else:
        ev = _eval_positive(a, b, z)
    if math.isnan(ev.value):
        raise DomainError(f"M(a, b; z) at a={a:.12g}, b={b:.12g}, z={z:.12g} has no double "
                          f"value: its {ev.regime} sums leave the double range")
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
# M(b, b+1; z), vectorised: the kernel of the diagonal test functions
# ---------------------------------------------------------------------------

# the positive series is summed at this exact power of two, so no term
# overflows before the value does
_SERIES_SCALE = 2.0**-64
_CLOSED_MAX = 700.0  # expm1(z)/z up to here; past it expm1 nears overflow
_BLOCK = 64  # terms of the series between two tests of its stopping rule


def _positive_terms(x: np.ndarray, b: float, start: float, series: bool) -> np.ndarray:
    """sum_k t_k, t_0 = start, elementwise: with t_k = t_{k-1} x (b+k-1)/((b+k) k)
    (``series``) the series of M(b, b+1; x), else with t_k = t_{k-1} x/(b+k)
    the Kummer side sum_k x^k/(b+1)_k; x > 0, so every term is positive.

    Each k is one numpy pass over all live entries, so the memory is a few
    arrays like x.  Both ratios r decrease in k from k = 2 on, so every
    _BLOCK terms an entry stops once its last term t_k has t_k r/(1 - r)
    below eps/4 of the sum, a bound on the rest.  The products and sums run
    in order of k, so an entry's value does not depend on the other entries.
    """
    out = idx = None
    term = total = start
    k = 0.0
    while True:
        for _ in range(_BLOCK):
            k += 1.0
            r = x * ((b + (k - 1.0)) / ((b + k) * k) if series else 1.0 / (b + k))
            term = r * term
            total = total + term
        live = term * r > 0.25 * _EPS * (1.0 - r) * total
        if not np.count_nonzero(live):
            if out is None:
                return total
            out[idx] = total
            return out
        if out is None:
            out, idx = np.empty(x.shape), np.arange(x.size)
        out[idx[~live]] = total[~live]
        idx, x, term, total = idx[live], x[live], term[live], total[live]


def _exp_ratio(z: np.ndarray) -> np.ndarray:
    """M(1, 2; z) = expm1(z)/z, 1 at z = 0."""
    out = np.ones(z.shape)
    np.divide(np.expm1(z), z, out=out, where=z != 0.0)
    return out


def kummer_m_gap1(b: float, z):
    """M(b, b+1; z) for one float b > 0, elementwise over the array z.

    The regimes of ``kummer_m`` as they read for this family, vectorised:

    * b = 1, z <= 700: the closed form expm1(z)/z (1 at z = 0);
    * z = -x < -b where the e^{-x} branch dropped by the asymptotic series
      is below eps/4 relative (from x = 35 at b = 1/2, 82 at b = 20): that
      series terminates (a - b + 1 = 0), so M = Gamma(b+1) x^{-b}.  The
      dropped branch is b x^{-b} Gamma(b, x), and Gamma(b, x) <= x^{b-1}
      e^{-x} max(1, x/(x-b+1)) for x > b - 1;
    * other z < 0: the Kummer side e^z sum_k (-z)^k/(b+1)_k, all terms
      positive;
    * z > 0: the series sum_k b/(b+k) z^k/k!, all terms positive, summed at
      scale 2^-64, so it is inf only where the value leaves the double
      range; where b e^z/(z+b) passes it by a factor e, it is inf unsummed.

    Every entry is computed alone, so its value does not depend on the
    others.  A call costs its numpy passes (~0.2 ms on a few entries), so
    callers gather their values into few calls.  Measured against mpmath:
    within 4e-15 relative wherever the value is a normal double, for b up
    to ~20 and |z| <= 1e4.  A DomainError unless b > 0 and z is finite.
    """
    b, z = float(b), np.asarray(z, dtype=float)
    if not b > 0.0:
        raise DomainError("M(b, b+1; z) needs b > 0")
    if b == 1.0 and z.min(initial=0.0) > -np.inf and z.max(initial=0.0) <= _CLOSED_MAX:
        return _exp_ratio(z)[()]
    if not np.isfinite(z).all():
        raise DomainError("M(b, b+1; z) needs a finite z")
    x = -z.ravel()
    out = np.ones(x.shape)
    asym, kummer, pos = x > b, x > 0.0, x < 0.0
    if b == 1.0:  # the closed form, entry by entry
        closed = x >= -_CLOSED_MAX
        out[closed] = _exp_ratio(-x[closed])
        for regime in (asym, kummer, pos):
            regime &= ~closed
    if np.count_nonzero(asym):
        xa, lgamma_b = x[asym], math.lgamma(b)
        # the bound on the dropped branch, relative to the value, in logs
        keep = (b - 1.0) * np.log(xa) - xa - lgamma_b + np.log(
            np.maximum(1.0, xa / (xa - b + 1.0))) < math.log(0.25 * _EPS)
        asym[asym] = keep
        xa = xa[keep]
        # Gamma(b+1) is nan past its range (b >= 170), where the logs take over
        val = (math.gamma(b + 1.0) if b < 170.0 else math.nan) * xa**-b
        logs = ~(val >= _TINY)  # past Gamma's range, or not a normal double: in logs
        if np.count_nonzero(logs):
            val[logs] = np.exp(lgamma_b + np.log(b) - b * np.log(xa))[logs]
        out[asym] = val
    kummer ^= asym  # the asymptotic entries have x > b > 0
    if np.count_nonzero(kummer):
        xk = x[kummer]
        out[kummer] = np.exp(-xk) * _positive_terms(xk, b, 1.0, series=False)
    if np.count_nonzero(pos):
        zp = -x[pos]
        val = np.full(zp.shape, math.inf)
        fin = zp + np.log(b / (zp + b)) <= _LOG_MAX + 1.0
        with np.errstate(over="ignore"):
            val[fin] = _positive_terms(zp[fin], b, _SERIES_SCALE, series=True) / _SERIES_SCALE
        out[pos] = val
    return out.reshape(z.shape)[()]


# ---------------------------------------------------------------------------
# radial eigenfunction phi(x) = int_{S^{n-1}} e^{x.w} dw
# ---------------------------------------------------------------------------


def surface_area(n: int) -> float:
    """Surface measure of the unit sphere S^{n-1} in R^n."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:  # Gamma(n/2) from n = 344
        raise DomainError(f"Gamma(n/2) leaves the double range at dimension {n}") from None


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
    bare eigenfunction grows like e^r and overflows near r ~ 700.  For
    n >= 4 a radius where ive(n/2 - 1, r) underflows to 0 (small r, large n)
    or is nan (scipy's ive stops at r = 2^30) is a DomainError.
    """
    r = _check_dim_radius(n, r)
    if n == 1:
        out = 1.0 + np.exp(-2.0 * r)
    elif n == 2:
        out = 2.0 * math.pi * i0e(r)  # = ive(0, r), ~3x cheaper
    elif n == 3:
        small = r < 1e-6
        rt = np.minimum(r, 1e-6)
        rs = np.where(small, 1.0, r)
        # expm1(-2r) is -1 to the bit from r ~ 19; the cap keeps 2r finite
        out = np.where(
            small,
            4.0 * math.pi * np.exp(-rt) * (1.0 + rt * rt / 6.0),
            2.0 * math.pi * (-np.expm1(-2.0 * np.minimum(rs, 400.0))) / rs,
        )
    else:
        nu = n / 2.0 - 1.0
        zero = r == 0.0
        rs = np.where(zero, 1.0, r)
        bessel = np.where(zero, 1.0, ive(nu, rs))
        if not np.all(bessel > 0.0):
            bad = rs[~(bessel > 0.0)].flat[0]
            raise DomainError(f"ive({nu}, r) underflows to 0 or leaves scipy's range "
                              f"(r > 2^30) at dimension {n}, r = {bad:g}")
        # (2 pi)^{n/2} and r^{-nu} each leave the double range before their product
        log_pref = 0.5 * n * math.log(2.0 * math.pi) - nu * np.log(rs)
        out = np.exp(log_pref + np.log(bessel))
        if np.any(zero):
            out = np.where(zero, surface_area(n), out)
    return float(out) if np.ndim(out) == 0 else out


def varphi(n: int, r):
    """Sphere average varphi(|x|) = int_{S^{n-1}} e^{x.w} dw (2 cosh for n=1).

    Satisfies Lap(varphi) = varphi and varphi ~ C_n r^{-(n-1)/2} e^r for
    large r.  It is inf wherever e^r leaves the double range (r > ~709.78);
    use ``varphi_scaled`` in exponent-compensated expressions.  A non-finite
    r is a DomainError.
    """
    r = _check_dim_radius(n, r)
    if not np.all(np.isfinite(r)):
        raise DomainError("radius must be finite")
    big = r > _LOG_MAX
    inside = np.where(big, 0.0, r)
    out = np.where(big, np.inf, np.exp(inside) * varphi_scaled(n, inside))
    return float(out) if np.ndim(out) == 0 else out


@functools.cache
def _sphere_rule():
    """The 200-point Gauss-Legendre rule, built on first use (~50 ms)."""
    return np.polynomial.legendre.leggauss(200)


def varphi_sphere_quadrature(n: int, r: float) -> float:
    """Reference evaluation of varphi by direct angular quadrature.

    Independent of the Bessel closed forms; intended as a test oracle and
    for spot checks (slow, scalar).
    """
    r = float(_check_dim_radius(n, r))
    if n == 1:
        return math.exp(r) + math.exp(-r)
    theta, w = _sphere_rule()
    # map [-1, 1] -> [0, pi]; |S^{n-2}| carries the azimuthal measure
    th = 0.5 * math.pi * (theta + 1.0)
    wt = 0.5 * math.pi * w
    integrand = np.exp(r * np.cos(th)) * np.sin(th) ** (n - 2)
    return surface_area(n - 1) * float(np.sum(wt * integrand))


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (x > 0):
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    try:
        return math.lgamma(x)
    except OverflowError:  # above ~2.55e305
        raise DomainError(f"log_gamma({x}) leaves the double range") from None
