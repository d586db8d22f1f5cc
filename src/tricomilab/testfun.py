"""Weighted test-function integrals xi_q, eta_q and their envelope checks.

The test functions are lambda-integrals of the propagators of
y'' = lambda^2 t^m y against the radial eigenfunction:

    xi_q(x,t,s)  = int_0^{lam0} e^{-lam(phi(t)+R)} Phi1(t,s;lam) vphi(lam|x|) lam^q dlam
    eta_q(x,t,s) = int_0^{lam0} e^{-lam(phi(t)+R)} Phi2(t,s;lam)/(t-s) vphi(lam|x|) lam^q dlam

The integrands are assembled from exponentially scaled pieces: the
propagator kernels of ``tricomi_ode`` (modified-Bessel basis, scaled by
e^{-lam(phi(t)-phi(s))}) times the scaled eigenfunction ``varphi_scaled``
and the remaining exponent e^{lam(|x|-phi(s)-R)}, so every integrand stays
bounded for arbitrarily large t, s.  Both kernels are exactly 1 on the
diagonal s = t; next to it Phi2/(t-s) comes from a (t-s)-series.

On the diagonal, xi_q = eta_q (the weight of the solver's F(t) and of
``lemma22_report``'s part iii) is, for n <= 2 and for n = 3 with q > 0, the
sphere average int_{S^{n-1}} K(|x| w_1 - phi(t) - R) dw of one Kummer
kernel K(w) = int_0^{lam0} e^{lam w} lam^q dlam = lam0^{q+1}/(q+1)
M(q+1, q+2; lam0 w) (``specfun.kummer_m_gap1``, the lab's own M; at q = 0
the closed form expm1(z)/z), see ``_sphere_average``; it needs no
lambda-quadrature and no Bessel function, so it loads no scipy.  n >= 4,
and n = 3 with q <= 0, take the quadrature, whose diagonal ``_test_fn``
also stays the tests' oracle.

The lambda-integral takes the integrand's scale a = phi(t) + R: k dyadic
Gauss-Legendre panels [lam0 2^{-j-1}, lam0 2^{-j}], j < k, with lam^q in
the weights, down to lam0 2^-k <= 2/a, and below them one Gauss-Jacobi
panel of weight lam^q (Golub-Welsch), on which e^{-lam a} changes by at
most a factor e^2.  Every panel doubles its order from 8 to
16, 32, 64, 128 points.  Each level is a row-wise sum over the lambda
nodes, one sum per (s, radius) row, and each row keeps the first level
that meets rtol.  k depends on t alone, so every time s of one t shares
the rule: ``_test_fn`` takes an array of times s, with one row of radii
per s, and makes one quadrature per t and kernel, with one profile block
and one kernel call per Gauss level.  A row's value does not depend on
which other radii or times share the call.  On the envelope runs every
row stops at 16 points.

Three blocks are built once and shared read-only, each from a pure builder
under a bounded ``functools.lru_cache`` (the four most recent entries): the
reference Gauss-Legendre and Gauss-Jacobi panels per (q, level)
(``_panels``), the rule per (q, lambda0, level, k) (``_graded_rule``), and,
in ``tricomi_ode``, the kernels' time-t block per (t, m, lambda nodes).  All
are keyed on the exact inputs, so results are bit-identical to building
each block afresh.  The exponent of the exp factor is clipped at 700.

``lemma22_report`` measures the empirical constants of the three power-law
envelopes (lower bounds with constants A0, B0, B1 and the upper bound with
constant B2) on user grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exponents import pow_or_inf
from .specfun import kummer_m_gap1, varphi_scaled
from .tricomi_ode import kernel_phi1_scaled, kernel_phi2_ratio_scaled, phi_of_t

_EXP_CLIP = 700.0
_TINY = np.finfo(float).tiny  # the smallest normal double
# past this q the 128-point panel [lam0/2, lam0] no longer resolves the
# weight lam^q to 1e-8 (it misses int_0^1 lam^q e^{-c lam} by 1e-7 at q = 7000)
_MAX_Q = 5000.0


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
        if not -1 < self.q <= _MAX_Q:
            raise DomainError(f"q must be > -1 for integrability and <= {_MAX_Q:g}, "
                              f"the most the lambda-rule resolves, got {self.q}")
        if not 0 < self.lambda0 < math.inf:
            raise DomainError(f"lambda0 must be finite and > 0, got {self.lambda0}")
        if not self.R > 0:
            raise DomainError(f"R must be > 0, got {self.R}")
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n}")
        if not self.m >= 0:
            raise DomainError(f"m must be >= 0, got {self.m}")


def bracket(s):
    """Shifted absolute value <s> = 3 + |s| used in all envelope estimates."""
    return 3.0 + np.abs(s)


# ---------------------------------------------------------------------------
# graded Gauss quadrature for int_0^{lam0} g(lam) lam^q dlam
# ---------------------------------------------------------------------------

def _dyadic_panels(lam0: float, scale: float) -> int:
    """k, the number of dyadic panels above the end panel [0, lam0 2^-k]:
    the least k >= 0 with lam0 2^-k <= 2 / scale."""
    return max(0, math.ceil(math.log2(lam0) + math.log2(scale) - 1.0))


@functools.lru_cache(maxsize=4)
def _panels(q: float, level: int):
    """Read-only reference panels of ``level`` points: the Gauss-Legendre
    nodes/weights on [-1, 1], then the Gauss-Jacobi nodes/weights of
    int_0^1 f(u) u^q du, by Golub-Welsch: the eigenvalues of the Jacobi
    matrix of P^(0,q) on [-1, 1], mapped by u = (1 + x)/2, and the squared
    first eigenvector components over q + 1.  The matrix's first entry,
    q^2/(q(q+2)) in the textbook form, is written q/(q+2), so q = 0 gives
    its limit 0 instead of 0/0."""
    j = np.arange(1.0, level)
    d = 2.0 * j + q
    diag = np.concatenate(([q / (q + 2.0)], q * q / (d * (d + 2.0))))
    off = 2.0 * j * (j + q) / (d * np.sqrt(d * d - 1.0))
    x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    panels = (*np.polynomial.legendre.leggauss(level), 0.5 * (1.0 + x), v[0] ** 2 / (q + 1.0))
    for arr in panels:
        arr.flags.writeable = False
    return panels


@functools.lru_cache(maxsize=4)
def _graded_rule(q: float, lam0: float, level: int, k: int):
    """Read-only nodes/weights for the lam^q-weighted integral on [0, lam0]:
    k dyadic Gauss-Legendre panels [lam0 2^{-j-1}, lam0 2^{-j}], j < k, with
    lam^q folded into the weights, then one Gauss-Jacobi panel of weight
    lam^q on [0, lam0 2^-k], ``level`` points each.  A DomainError where a
    weight leaves the double range (lam0^q past it)."""
    xg, wg, u, wu = _panels(q, level)
    hi = lam0 * 2.0 ** -np.arange(k, dtype=float)[:, None]
    nodes = (0.75 * hi + 0.25 * hi * xg).ravel()
    end = lam0 * 2.0**-k
    with np.errstate(over="ignore"):
        w = (0.25 * hi * wg).ravel() * nodes**q
        w = np.concatenate((w, pow_or_inf(end, q + 1.0) * wu))
    if not np.all(w < math.inf):
        raise DomainError(f"lambda0={lam0:.12g} puts the weights lambda^q of the "
                          f"lambda-rule past the double range (q={q:.12g})")
    lam = np.concatenate((nodes, end * u))
    lam.flags.writeable = w.flags.writeable = False
    return lam, w


def _misses(value, err, rtol: float):
    """Points whose error estimate is not within rtol of |value| (nan misses)."""
    return ~(err <= rtol * np.maximum(np.abs(value), 1e-300))


def integrate_lambda_weighted(g, q: float, lam0: float, scale: float, rtol: float = 1e-8):
    """(integral, error estimate) of int_0^{lam0} g(lam) lam^q dlam.

    ``g`` must accept a 1-d lambda array and return an array whose last axis
    matches it; the integral is taken over that axis, one row at a time, so
    a row's value does not depend on the other rows.  ``scale`` is the
    integrand's own scale: g must be smooth on lambda <~ 2/scale (e^{-c lam}
    needs scale >= |c|), since below lam0 2^-k, k = ``_dyadic_panels(lam0,
    scale)``, one Gauss-Jacobi panel takes the weight lam^q alone.  ``g`` is
    called once per Gauss level, at 8, 16, 32, 64 and 128 points per panel.
    A row's error estimate is the change under doubling the Gauss order per
    panel; the row keeps the value and error of the first level at which
    that falls below rtol in relative terms, and the levels stop when every
    row has.  A row that meets rtol at 16 points keeps the 16-point value
    with |Q16 - Q8| as its error; a row that misses there takes the same
    values, to the bit, as a ladder that starts at 16 points.
    """
    if not 0 < lam0 < math.inf:
        raise DomainError(f"lambda0 must be finite and > 0, got {lam0}")
    if not q > -1:
        raise DomainError(f"integral diverges at 0 for q = {q} <= -1")
    if not 0 < scale < math.inf:
        raise DomainError(f"scale must be finite and > 0, got {scale}")
    if not rtol > 0:
        raise DomainError(f"rtol must be > 0, got {rtol}")
    k = _dyadic_panels(lam0, scale)
    value = None
    err = np.inf
    done = False
    for level in (8, 16, 32, 64, 128):
        lam, w = _graded_rule(q, lam0, level, k)
        new = np.einsum("...l,l->...", g(lam), w)
        if value is not None:
            err = np.where(done, err, np.abs(new - value))
            new = np.where(done, value, new)
            done = ~_misses(new, err, rtol)
        value = new
        if np.all(done):
            break
    return value, err


# ---------------------------------------------------------------------------
# the test functions
# ---------------------------------------------------------------------------


def _exp_profile(lam: np.ndarray, x_norm: np.ndarray, phi_s, p: TestFnParams):
    """exp(lam(|x| - phi(s) - R)) vphi_scaled(n, lam |x|) at the radii
    x_norm, shape x_norm.shape + (L,).  ``phi_s`` holds phi(s) per row of
    x_norm: one value for 1-d radii, shape (S,) for radii of shape (S, X).

    Returns a fresh array.
    """
    out = lam * (x_norm[..., None] - np.asarray(phi_s)[..., None, None] - p.R)
    np.minimum(out, _EXP_CLIP, out=out)
    np.exp(out, out=out)
    out *= varphi_scaled(p.n, lam * x_norm[..., None])
    return out


def _radii(x_norm, t: float, s):
    """The times s as a 1-d array and the radii as one row per time, shape
    (S, X): one time takes scalar or 1-d radii, an array of times one row of
    radii each.  A DomainError unless the radii are finite and >= 0 and
    t >= s >= 0."""
    ss = np.atleast_1d(np.asarray(s, dtype=float))
    xn = np.asarray(x_norm, dtype=float)
    if np.ndim(s) == 0:
        xn = xn.reshape(1, -1)
    if not np.all((xn >= 0) & (xn < math.inf)):
        raise DomainError("x_norm must be finite and >= 0")
    if not np.all((ss >= 0) & (ss <= t)):
        raise DomainError(f"need t >= s >= 0, got t={t}, s={s}")
    return ss, xn


def _unrows(val, err, x_norm, s):
    """(val, err) of shape (S, X) in the shape of the call: the row for one
    time s, and floats for one radius too."""
    if np.ndim(s):
        return val, err
    if np.ndim(x_norm):
        return val[0], err[0]
    return float(val[0, 0]), float(err[0, 0])


def _test_fn(kernel, x_norm, t: float, s, p: TestFnParams, rtol: float = 1e-8):
    """(value, error estimate) of the lambda-integral of the profile times
    kernel(t, s, lam, m), at radii x_norm for one time s, or for a 1-d array
    of times s with one row of radii per time (see ``_radii``).

    All rows share one quadrature: each Gauss level makes one profile block
    and one kernel call over every s.  A row's value does not depend on
    which other radii or times share the call.  The kernels are exactly 1
    on the diagonal s = t, so a diagonal row is the profile's integral.
    """
    ss, xn = _radii(x_norm, t, s)
    phi_s = [phi_of_t(p.m, sj) for sj in ss.tolist()]

    def g(lam):
        out = _exp_profile(lam, xn, phi_s, p)  # fresh, so the kernel multiplies in place
        out *= kernel(t, ss, lam, p.m)[:, None, :]
        return out

    # scale and rtol by keyword: bench/spans.py reads a fourth positional
    # argument as rtol
    val, err = integrate_lambda_weighted(g, p.q, p.lambda0, scale=phi_of_t(p.m, t) + p.R,
                                         rtol=rtol)
    return _unrows(val, err, x_norm, s)


# ---------------------------------------------------------------------------
# the diagonal s = t as a sphere average of one Kummer kernel
# ---------------------------------------------------------------------------

# even powers of the n = 3 small-radius series, 0..18 (see _sphere_average)
_SERIES_J = np.arange(0.0, 19.0, 2.0)
_SERIES_FACT = np.array([math.factorial(int(j) + 1) for j in _SERIES_J], dtype=float)
# past this many angles the n = 2 rule is refused (lambda0 |x| > ~6.9e10)
_MAX_ANGLES = 2**20
_BATCH = 2**13  # values per n = 2 kernel call: few calls, and small arrays in each


def _on_sphere(p: TestFnParams) -> bool:
    """Whether the diagonal takes the sphere average: n <= 2, or n = 3 with q > 0."""
    return p.n < 3 or (p.n == 3 and p.q > 0.0)


def _kummer_integral(b, lam0: float, w):
    """int_0^{lam0} e^{lam w} lam^{b-1} dlam = lam0^b / b M(b, b+1; lam0 w), b > 0;
    a DomainError where lam0^b leaves the double range, or underflows to 0
    where M is inf (the product would be 0 * inf)."""
    with np.errstate(over="ignore"):
        power = pow_or_inf(lam0, b)
    if not np.all(power < math.inf):
        raise DomainError(f"lambda0={lam0:.12g} puts lambda0^{np.max(b):.6g} past the double range")
    kummer = kummer_m_gap1(b, lam0 * w)
    if np.any((power == 0.0) & (kummer == math.inf)):
        raise DomainError(f"lambda0={lam0:.12g} puts lambda0^{np.max(b):.6g} below and "
                          f"M(b, b+1; lambda0 w) above the double range")
    return power / b * kummer


def _angles(z: np.ndarray) -> np.ndarray:
    """The n = 2 midpoint counts at lambda0 |x| = z: the smallest of 16, 32,
    64, ... that is >= 4 sqrt(z) + 16, per radius."""
    need = 4.0 * np.sqrt(z) + 16.0
    n = 16.0 * 2.0 ** np.ceil(np.log2(need / 16.0))
    n = np.where(n < need, 2.0 * n, n)  # where log2 rounded down
    if n.size and n.max() > _MAX_ANGLES:
        raise DomainError(f"the n = 2 sphere average needs more than {_MAX_ANGLES} "
                          f"angles at lambda0 |x| = {z.max():g}")
    return n.astype(int)


def _angle_batches(xn: np.ndarray, a: np.ndarray, counts: np.ndarray):
    """The n = 2 kernel arguments x cos th - a at the radii xn (a and the
    angle counts per radius), as (rows, block) pairs: per count, runs of
    rows of at most _BATCH values (or one row), yielded in lists of at most
    _BATCH values (or one block), one kernel call each."""
    batch, size = [], 0
    for n_th in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == n_th)
        cos_th = np.cos((np.arange(n_th) + 0.5) * (math.pi / n_th))
        for chunk in np.array_split(rows, -(-rows.size * n_th // _BATCH)):
            if batch and size + chunk.size * n_th > _BATCH:
                yield batch
                batch, size = [], 0
            batch.append((chunk, xn[chunk, None] * cos_th - a[chunk, None]))
            size += chunk.size * n_th
    if batch:
        yield batch


def _sphere_average(xn: np.ndarray, t, p: TestFnParams) -> np.ndarray:
    """eta_q(x, t, t) = xi_q(x, t, t) at the 1-d radii xn, each at the time t
    (one float, or an array like xn), for ``_on_sphere(p)``.

    With a = phi(t) + R and K(w) = int_0^{lam0} e^{lam w} lam^q dlam, the
    diagonal is int_{S^{n-1}} K(|x| w_1 - a) dw:

    * n = 1: K(x - a) + K(-x - a);
    * n = 2: 2 int_0^pi K(x cos th - a) dth, by the midpoint rule with
      ``_angles(lam0 x)`` points (even and periodic, so spectrally
      accurate), one count per radius; one kernel call per _BATCH values;
    * n = 3: (2 pi / x) [L(x - a) - L(-x - a)] with L(w) = int e^{lam w}
      lam^{q-1} dlam = (lam0^q e^{lam0 w} - w K(w)) / q (by parts, so K is
      the only kernel; L = lam0^q/q M(q, q+1; lam0 w) directly would now
      serve too: ``kummer_m_gap1`` is within 1.7e-15 of mpmath there at
      q = 0.05, 0.375 and 0.9).  Where the difference cancels, the odd
      part of L is summed instead: 4 pi sum_{j even} x^j / (j+1)! K_j(-a),
      K_j the integral of lam^{q+j}, all terms positive.  The series is taken for
      x <= max(1/lam0, a / (10 sqrt C)), C = max(1, (q+1)(q+2)/6): there
      K_{j+2}/K_j <= min(lam0^2, (q+j+1)(q+j+2)/a^2) makes its 10 terms
      (j <= 18) exact to ~1e-17, and past it the difference keeps 1e-12
      (pinned against mpmath).  The K_j of every time are one kernel call,
      and K at both ends of every radius another.

    Every radius is computed alone, so its value does not depend on which
    other radii or times share the call.
    """
    times, at = np.unique(np.broadcast_to(t, xn.shape), return_inverse=True)
    a_of = np.array([phi_of_t(p.m, tj) + p.R for tj in times.tolist()])
    a = a_of[at]
    q, lam0 = p.q, p.lambda0
    if p.n == 1:
        k_in, k_out = np.split(_kummer_integral(q + 1.0, lam0, np.concatenate((xn - a, -xn - a))),
                               2)
        return k_in + k_out
    out = np.empty_like(xn)
    if p.n == 2:
        for blocks in _angle_batches(xn, a, _angles(lam0 * xn)):
            k = _kummer_integral(q + 1.0, lam0, np.concatenate([w.ravel() for _, w in blocks]))
            bounds = np.cumsum([w.size for _, w in blocks])
            for (rows, w), k_rows in zip(blocks, np.split(k, bounds)):
                out[rows] = (2.0 * math.pi / w.shape[1]) * k_rows.reshape(w.shape).sum(axis=1)
        return out
    c = max(1.0, (q + 1.0) * (q + 2.0) / 6.0)
    series = xn <= np.maximum(1.0 / lam0, a / (10.0 * math.sqrt(c)))
    if series.any():
        # K_j(-a), one column per time of a series radius
        col_times, col = np.unique(at[series], return_inverse=True)
        coef = _kummer_integral((q + 1.0 + _SERIES_J)[:, None], lam0,
                                -a_of[col_times]) / _SERIES_FACT[:, None]
        x2, poly = xn[series] ** 2, np.zeros(col.size)
        for c_j in coef[::-1, col]:  # Horner, as np.polyval
            poly = poly * x2 + c_j
        out[series] = 4.0 * math.pi * poly
    x, ax = xn[~series], a[~series]
    if x.size:
        with np.errstate(over="ignore", invalid="ignore"):  # inf past the double range
            ends = lam0**q * (np.exp(lam0 * (x - ax)) - np.exp(-lam0 * (x + ax)))
            # one kernel call for both ends
            k = _kummer_integral(q + 1.0, lam0, np.concatenate((x - ax, -x - ax)))
            k_in, k_out = np.split(k, 2)
            diff = np.where(ends < np.inf, ends - (x - ax) * k_in - (x + ax) * k_out, np.inf)
            out[~series] = (2.0 * math.pi / (q * x)) * diff
    return out


def _value(kernel, x_norm, t: float, s, p: TestFnParams, rtol: float = 1e-8):
    """(value, error estimate) of the test function of ``kernel`` at radii
    x_norm for one time s or an array of times (see ``_radii``): the sphere
    average on the diagonal rows s = t where ``_on_sphere``, with error 0,
    and one lambda-quadrature to rtol for all other rows."""
    ss, xn = _radii(x_norm, t, s)
    val, err = np.empty_like(xn), np.zeros_like(xn)
    sphere = (ss == t) & _on_sphere(p)
    if sphere.any():
        val[sphere] = _sphere_average(xn[sphere].ravel(), t, p).reshape(xn[sphere].shape)
    if not sphere.all():
        val[~sphere], err[~sphere] = _test_fn(kernel, xn[~sphere], t, ss[~sphere], p, rtol)
    return _unrows(val, err, x_norm, s)


def xi_q(x_norm, t: float, s: float, p: TestFnParams):
    """Test function xi_q at radius |x| = x_norm (scalar or array), see ``_value``."""
    return _value(kernel_phi1_scaled, x_norm, t, s, p)[0]


def eta_q(x_norm, t: float, s: float, p: TestFnParams):
    """Test function eta_q at radius |x| = x_norm (scalar or array), see ``_value``."""
    return _value(kernel_phi2_ratio_scaled, x_norm, t, s, p)[0]


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
    s_fractions: tuple
    x_fractions: tuple

    @classmethod
    def log_default(
        cls, t_max: float = 1e3, nt: int = 9, ns: int = 3, nx: int = 3
    ) -> "Lemma22Grid":
        if not 0 < t_max < math.inf:
            raise DomainError(f"t_max must be finite and > 0, got {t_max}")
        if nt < 1 or ns < 0 or nx < 0:
            raise DomainError(f"need nt >= 1 and ns, nx >= 0, got nt={nt}, ns={ns}, nx={nx}")
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
    unconverged: int

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
    grid; hypothesis-violating grid points are excluded and counted, and so
    are the points whose quadrature missed rtol (``unconverged``).  The
    diagonal s = t (part iii, and part i at t = 0) is the sphere average of
    ``eta_q`` where it applies, a closed form with no rtol, taken for
    every t in one call.  An envelope that is not a normal double (<.>^{-q}
    underflows at large q and t) is a DomainError naming q, the part and
    t; every envelope of the grid is checked before any value is computed.

    Each t makes at most two lambda-quadratures: xi_q at s = 0 (part
    i-xi), and eta_q over the times (0, s_1, ..., s_k) of parts i-eta and
    ii, plus part iii's diagonal where the sphere average does not apply.
    A row's value does not depend on which other radii or times share its
    quadrature or sphere average, so the rows equal one ``xi_q``/``eta_q``
    call per (part, t, s).
    """
    m, n, q = p.m, p.n, p.q
    alpha = m / (2.0 * (m + 2.0))
    rows: list[Lemma22Row] = []
    excluded = 0
    unconverged = 0

    lower_ok = q > -alpha
    upper_ok = q > (n - 3.0) / 2.0

    def measure(kernel, xs, t, s):
        """Values at radii xs (see ``_value``); the points that missed rtol
        are counted."""
        nonlocal unconverged
        vals, err = _value(kernel, xs, t, s, p, rtol)
        unconverged += np.count_nonzero(_misses(vals, err, rtol))
        return vals

    def envelope(part, t, env):
        if not env >= _TINY:  # every envelope is <= 1: it can only underflow
            raise DomainError(f"the part {part} envelope underflows at t={t:.12g} "
                              f"(q={q:.12g})")
        return env

    def add(part, t, s, x, v, env):
        rows.append(Lemma22Row(part, t, s, float(x), float(v), env, float(v) / env))

    xf = np.asarray(grid.x_fractions)
    sphere = _on_sphere(p)
    plans = []
    for t in sorted({float(v) for v in grid.t_values}):
        phi_t = phi_of_t(m, t)
        # the radii of each eta_q row of this t, by s: part i at s = 0, part
        # ii's s and (off the sphere average) part iii's diagonal share one
        # quadrature
        radii = {}
        part_ii = []
        # parts i-xi / i-eta: s = 0, |x| <= R
        xs = xf * p.R
        if lower_ok:
            env_i = (envelope("i-xi", t, bracket(phi_t) ** (-alpha)),
                     envelope("i-eta", t, bracket(phi_t) ** (-(m + 4.0) / (2.0 * (m + 2.0)))))
            radii[0.0] = xs
        else:
            env_i = None
            excluded += 2 * len(xs)

        # part ii: 0 <= s < t
        for frac in grid.s_fractions:
            s = frac * t
            if not (lower_ok and 0.0 <= s < t):
                excluded += len(xf)
                continue
            phi_s = phi_of_t(m, s)
            env = envelope("ii", t, bracket(t) ** (-1.0 - m / 4.0) * bracket(phi_s) ** (
                -q - 1.0 + (m + 4.0) / (2.0 * (m + 2.0))
            ))
            # phi(0) = 0, so at s = 0 these are part i's radii and its row
            part_ii.append((s, env))
            radii.setdefault(s, xf * (phi_s + p.R))

        # part iii: diagonal, t > 0
        if t > 0.0 and upper_ok:
            xs3 = xf * (phi_t + p.R)
            diag = (xs3, [envelope("iii", t, bracket(phi_t) ** (-(n - 1.0) / 2.0) * bracket(
                phi_t - x) ** ((n - 3.0) / 2.0 - q)) for x in xs3])
            if not sphere:
                radii[t] = xs3
        else:
            diag = None
            excluded += len(xf)
        plans.append((t, xs, env_i, part_ii, diag, radii))

    # part iii on the sphere average: one call for every t
    diags = [(t, diag[0]) for t, _, _, _, diag, _ in plans if diag]
    on_sphere = {}
    if sphere and diags:
        ts = [t for t, _ in diags]
        vals = _sphere_average(np.concatenate([xs3 for _, xs3 in diags]), np.repeat(ts, len(xf)), p)
        unconverged += np.count_nonzero(_misses(vals, 0.0, rtol))
        on_sphere = dict(zip(ts, np.split(vals, len(ts))))

    for t, xs, env_i, part_ii, diag, radii in plans:
        if env_i:
            vals_xi = measure(kernel_phi1_scaled, xs, t, 0.0)
        eta = {t: on_sphere[t]} if t in on_sphere else {}
        if radii:
            eta.update(zip(radii, measure(kernel_phi2_ratio_scaled, np.array(list(radii.values())),
                                          t, np.array(list(radii)))))
        if env_i:
            for x, vx, ve in zip(xs, vals_xi, eta[0.0]):
                add("i-xi", t, 0.0, x, vx, env_i[0])
                add("i-eta", t, 0.0, x, ve, env_i[1])
        for s, env in part_ii:
            for x, v in zip(radii[s], eta[s]):
                add("ii", t, s, x, v, env)
        if diag:
            for x, env, v in zip(*diag, eta[t]):
                add("iii", t, t, x, v, env)

    constants = {}
    # numpy's reductions, unlike min and max, return nan if any ratio is nan
    for part, agg in (("i-xi", np.min), ("i-eta", np.min), ("ii", np.min), ("iii", np.max)):
        ratios = [r.ratio for r in rows if r.part == part]
        constants[part] = float(agg(ratios)) if ratios else math.nan
    return Lemma22Report(tuple(rows), constants, excluded, unconverged)
