"""Weighted test-function integrals xi_q, eta_q and their envelope checks.

The test functions are lambda-integrals of the propagators of
y'' = lambda^2 t^m y against the radial eigenfunction:

    xi_q(x,t,s)  = int_0^{lam0} e^{-lam(phi(t)+R)} Phi1(t,s;lam) vphi(lam|x|) lam^q dlam
    eta_q(x,t,s) = int_0^{lam0} e^{-lam(phi(t)+R)} Phi2(t,s;lam)/(t-s) vphi(lam|x|) lam^q dlam

The integrands are assembled from exponentially scaled pieces: the
propagator kernels of ``tricomi_ode`` (modified-Bessel basis, scaled by
e^{-lam(phi(t)-phi(s))}) times the scaled eigenfunction ``varphi_scaled``
and the remaining exponent e^{lam(|x|-phi(s)-R)}, so every integrand stays
bounded for arbitrarily large t, s.

``lemma22_report`` measures the empirical constants of the three power-law
envelopes (lower bounds with constants A0, B0, B1 and the upper bound with
constant B2) on user grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import varphi_scaled
from .tricomi_ode import kernel_phi1_scaled, kernel_phi2_ratio_scaled, phi_of_t

_EXP_CLIP = 700.0


@dataclass(frozen=True)
class TestFnParams:
    """Weight exponent q, integration limit lambda0, support radius R, (n, m)."""

    __test__ = False  # "Test" prefix is the domain name, not a pytest class

    q: float
    lambda0: float = 0.5
    R: float = 1.0
    n: int = 3
    m: float = 1.0

    def __post_init__(self):
        if not self.q > -1:
            raise DomainError(f"q must be > -1 for integrability, got {self.q}")
        if not self.lambda0 > 0:
            raise DomainError(f"lambda0 must be > 0, got {self.lambda0}")
        if not self.R > 0:
            raise DomainError(f"R must be > 0, got {self.R}")
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n}")
        if self.m < 0:
            raise DomainError(f"m must be >= 0, got {self.m}")


def bracket(s):
    """Shifted absolute value <s> = 3 + |s| used in all envelope estimates."""
    return 3.0 + np.abs(s)


# ---------------------------------------------------------------------------
# graded Gauss-Legendre quadrature for int_0^{lam0} g(lam) lam^q dlam
# ---------------------------------------------------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(order: int):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = np.polynomial.legendre.leggauss(order)
    return _GL_CACHE[order]


def _graded_rule(q: float, lam0: float, per_octave: int):
    """Nodes/weights for the lam^q-weighted integral on (0, lam0].

    Panels are graded dyadically toward 0.  For q < 0 the substitution
    u = lam^{q+1} (du = (q+1) lam^q dlam) removes the endpoint singularity
    first, so plain Gauss panels stay accurate.
    """
    xg, wg = _gl(per_octave)
    n_oct = max(54, int(14.0 * (q + 1.0)) + 40)
    if q < 0.0:
        upper = lam0 ** (q + 1.0)
        edges = upper * 2.0 ** -np.arange(n_oct + 1, dtype=float)
        lo = np.concatenate((edges[1:], [0.0]))
        hi = edges
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        u = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        w = (half[:, None] * wg[None, :]).ravel() / (q + 1.0)
        lam = u ** (1.0 / (q + 1.0))
        # for q near -1 the power map can underflow lam to 0 at the deepest
        # nodes (relative weight <= 2^-54); clamp so kernels stay finite
        return np.maximum(lam, 1e-200), w
    edges = lam0 * 2.0 ** -np.arange(n_oct + 1, dtype=float)
    lo = np.concatenate((edges[1:], [0.0]))
    hi = edges
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    lam = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel() * lam**q
    return lam, w


def integrate_lambda_weighted(g, q: float, lam0: float, rtol: float = 1e-8):
    """(integral, error estimate) of int_0^{lam0} g(lam) lam^q dlam.

    ``g`` must accept a 1-d lambda array and return an array whose last axis
    matches it; the integral is taken over that axis.  The error estimate is
    the change under doubling the Gauss order per panel, refined until it
    falls below rtol in relative terms.
    """
    if not lam0 > 0:
        raise DomainError(f"lambda0 must be > 0, got {lam0}")
    if not q > -1:
        raise DomainError(f"integral diverges at 0 for q = {q} <= -1")
    value = None
    err = None
    for per_octave in (16, 32, 64, 128):
        lam, w = _graded_rule(q, lam0, per_octave)
        new = np.asarray(g(lam)) @ w
        if value is not None:
            err = np.abs(new - value)
            value = new
            scale = np.maximum(np.abs(new), 1e-300)
            if np.all(err <= rtol * scale):
                break
        else:
            value = new
    return value, err


# ---------------------------------------------------------------------------
# the test functions
# ---------------------------------------------------------------------------


def _exp_profile(lam: np.ndarray, x_norm: np.ndarray, s: float, p: TestFnParams):
    """exp(lam(|x| - phi(s) - R)) vphi_scaled(n, lam |x|), shape (X, L)."""
    xn = np.atleast_1d(np.asarray(x_norm, dtype=float))
    arg = lam[None, :] * (xn[:, None] - phi_of_t(p.m, s) - p.R)
    return np.exp(np.minimum(arg, _EXP_CLIP)) * varphi_scaled(
        p.n, lam[None, :] * xn[:, None]
    )


def _check_point(x_norm, t: float, s: float) -> np.ndarray:
    xn = np.asarray(x_norm, dtype=float)
    if np.any(xn < 0):
        raise DomainError("x_norm must be >= 0")
    if s < 0 or t < s:
        raise DomainError(f"need t >= s >= 0, got t={t}, s={s}")
    return xn


def _xi_q_full(x_norm, t: float, s: float, p: TestFnParams, rtol: float = 1e-8):
    xn = _check_point(x_norm, t, s)

    def g(lam):
        return _exp_profile(lam, xn, s, p) * kernel_phi1_scaled(t, s, lam, p.m)

    val, err = integrate_lambda_weighted(g, p.q, p.lambda0, rtol)
    if np.ndim(xn) == 0:
        return float(val[0]), float(err[0])
    return val, err


def _eta_q_full(x_norm, t: float, s: float, p: TestFnParams, rtol: float = 1e-8):
    xn = _check_point(x_norm, t, s)
    if s == t:

        def g(lam):
            return _exp_profile(lam, xn, t, p)

    else:

        def g(lam):
            return _exp_profile(lam, xn, s, p) * kernel_phi2_ratio_scaled(
                t, s, lam, p.m
            )

    val, err = integrate_lambda_weighted(g, p.q, p.lambda0, rtol)
    if np.ndim(xn) == 0:
        return float(val[0]), float(err[0])
    return val, err


def xi_q(x_norm, t: float, s: float, p: TestFnParams, rtol: float = 1e-8):
    """Test function xi_q at radius |x| = x_norm; scalar in, scalar out."""
    return _xi_q_full(x_norm, t, s, p, rtol)[0]


def eta_q(x_norm, t: float, s: float, p: TestFnParams, rtol: float = 1e-8):
    """Test function eta_q at radius |x| = x_norm (diagonal form when s = t)."""
    return _eta_q_full(x_norm, t, s, p, rtol)[0]


# ---------------------------------------------------------------------------
# empirical envelope verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lemma22Grid:
    """Evaluation grid: times, s/t fractions (part ii), and radius fractions.

    Radii are fractions of the largest radius allowed by each part's
    hypothesis (R for part i, phi(s)+R for ii, phi(t)+R for iii).
    """

    t_values: tuple
    s_fractions: tuple = (0.0, 0.3, 0.7)
    x_fractions: tuple = (0.0, 0.5, 0.95)

    @classmethod
    def log_default(
        cls, t_max: float = 1e3, nt: int = 9, ns: int = 3, nx: int = 3
    ) -> "Lemma22Grid":
        ts = (0.0,) + tuple(np.geomspace(0.05, t_max, nt))
        return cls(
            t_values=ts,
            s_fractions=tuple(np.linspace(0.0, 0.8, ns)),
            x_fractions=tuple(np.linspace(0.0, 0.95, nx)),
        )

    def refined(self) -> "Lemma22Grid":
        """Grid with every gap along each axis halved."""

        def densify(vals):
            v = np.asarray(sorted(set(float(x) for x in vals)))
            out = list(v)
            for a, b in zip(v[:-1], v[1:]):
                extra = np.linspace(a, b, 3)[1:-1]
                out.extend(extra)
            return tuple(sorted(out))

        return Lemma22Grid(
            t_values=densify(self.t_values),
            s_fractions=densify(self.s_fractions),
            x_fractions=densify(self.x_fractions),
        )


@dataclass(frozen=True)
class Lemma22Row:
    part: str
    t: float
    s: float
    x_norm: float
    value: float
    envelope: float
    ratio: float


@dataclass(frozen=True)
class Lemma22Report:
    rows: tuple
    constants: dict
    excluded: int

    def rows_for(self, part: str):
        return [r for r in self.rows if r.part == part]


def lemma22_report(
    p: TestFnParams, grid: Lemma22Grid, rtol: float = 1e-8
) -> Lemma22Report:
    """Measure the empirical envelope constants of the three bounds.

    Parts and their envelopes (q-hypotheses in parentheses):

    * ``i-xi``  (q > -alpha): xi_q(x,t,0)  >= A0 <phi(t)>^{-m/(2(m+2))}, |x| <= R
    * ``i-eta`` (q > -alpha): eta_q(x,t,0) >= B0 <phi(t)>^{-(m+4)/(2(m+2))}, |x| <= R
    * ``ii``    (q > -alpha): eta_q(x,t,s) >= B1 <t>^{-1-m/4} <phi(s)>^{-q-1+(m+4)/(2(m+2))},
      for 0 <= s < t and |x| <= phi(s)+R
    * ``iii``   (q > (n-3)/2): eta_q(x,t,t) <= B2 <phi(t)>^{-(n-1)/2} <phi(t)-|x|>^{(n-3)/2-q},
      for t > 0 and |x| <= phi(t)+R

    Constants are the inf (i, ii) or sup (iii) of value/envelope over the
    grid; hypothesis-violating grid points are excluded and counted.
    """
    m, n, q = p.m, p.n, p.q
    alpha = m / (2.0 * (m + 2.0))
    rows: list[Lemma22Row] = []
    excluded = 0

    lower_ok = q > -alpha
    upper_ok = q > (n - 3.0) / 2.0

    for t in _unique_sorted(grid.t_values):
        phi_t = phi_of_t(m, t)
        # parts i-xi / i-eta: s = 0, |x| <= R
        xs = np.asarray(grid.x_fractions) * p.R
        if lower_ok:
            env_xi = bracket(phi_t) ** (-alpha)
            env_eta = bracket(phi_t) ** (-(m + 4.0) / (2.0 * (m + 2.0)))
            vals_xi, _ = _xi_q_full(xs, t, 0.0, p, rtol)
            vals_eta, _ = _eta_q_full(xs, t, 0.0, p, rtol)
            for x, vx, ve in zip(xs, vals_xi, vals_eta):
                rows.append(
                    Lemma22Row("i-xi", t, 0.0, float(x), float(vx), env_xi, float(vx) / env_xi)
                )
                rows.append(
                    Lemma22Row("i-eta", t, 0.0, float(x), float(ve), env_eta, float(ve) / env_eta)
                )
        else:
            excluded += 2 * len(xs)

        # part ii: 0 <= s < t
        for frac in grid.s_fractions:
            s = frac * t
            if not (0.0 <= s < t):
                excluded += len(grid.x_fractions)
                continue
            if not lower_ok:
                excluded += len(grid.x_fractions)
                continue
            phi_s = phi_of_t(m, s)
            env = bracket(t) ** (-1.0 - m / 4.0) * bracket(phi_s) ** (
                -q - 1.0 + (m + 4.0) / (2.0 * (m + 2.0))
            )
            xs2 = np.asarray(grid.x_fractions) * (phi_s + p.R)
            vals, _ = _eta_q_full(xs2, t, s, p, rtol)
            for x, v in zip(xs2, vals):
                rows.append(Lemma22Row("ii", t, s, float(x), float(v), env, float(v) / env))

        # part iii: diagonal, t > 0
        if t <= 0.0 or not upper_ok:
            excluded += len(grid.x_fractions)
            continue
        xs3 = np.asarray(grid.x_fractions) * (phi_t + p.R)
        vals, _ = _eta_q_full(xs3, t, t, p, rtol)
        for x, v in zip(xs3, vals):
            env = bracket(phi_t) ** (-(n - 1.0) / 2.0) * bracket(phi_t - x) ** (
                (n - 3.0) / 2.0 - q
            )
            rows.append(Lemma22Row("iii", t, t, float(x), float(v), env, float(v) / env))

    constants = {}
    for part, agg in (("i-xi", min), ("i-eta", min), ("ii", min), ("iii", max)):
        ratios = [r.ratio for r in rows if r.part == part]
        constants[part] = agg(ratios) if ratios else math.nan
    return Lemma22Report(tuple(rows), constants, excluded)


def _unique_sorted(values):
    return sorted(set(float(v) for v in values))
