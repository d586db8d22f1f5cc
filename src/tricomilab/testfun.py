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
``lemma22_report``'s part iii) is, for n <= 2 and for n = 3 with
q >= 0.01, the sphere average int_{S^{n-1}} K(|x| w_1 - phi(t) - R) dw of
one Kummer kernel K(w) = int_0^{lam0} e^{lam w} lam^q dlam =
lam0^{q+1}/(q+1) M(q+1, q+2; lam0 w) (``specfun.kummer_m_gap1``, the lab's
own M, one b per call; at q = 0 the closed form expm1(z)/z), see
``_sphere_average``; it needs no lambda-quadrature and no Bessel function,
so it loads no scipy.  n >= 4, and n = 3 with q < 0.01, take the
quadrature, whose diagonal ``_test_fn`` also stays the tests' oracle.

The lambda-integral takes the integrand's scale a = phi(t) + R: k dyadic
Gauss-Legendre panels [lam0 2^{-j-1}, lam0 2^{-j}], j < k, with lam^q in
the weights, down to lam0 2^-k <= 2/a, and below them one Gauss-Jacobi
panel of weight lam^q (Golub-Welsch), on which e^{-lam a} changes by at
most a factor e^2.  Every panel doubles its order from 8 to
16, 32, 64, 128 points.  Each level is a row-wise sum over the lambda
nodes, one sum per (s, radius) row, and each row keeps the first level
that meets rtol.  k depends on t alone, so all times s of one t share the
rule: ``_value``, the one batched evaluator, takes one t and one kernel
(or one kernel for all rows) per row of s, and makes one sphere average
for the diagonal rows where it applies and one quadrature (``_test_fn``)
per distinct t of the others, with one rule, one profile block and one
call per kernel per Gauss level; xi_q's and eta_q's rows of one t thus
share one time-t block.  A row's value does not depend on which other
rows share the call.  On the envelope runs every row stops at 16 points.

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
from typing import NamedTuple

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


def _radii(x_norm, t, s):
    """The times s as a 1-d array and the radii as one row per time, shape
    (S, X): one time takes scalar or 1-d radii, an array of times one row of
    radii each.  t is one time, or an array like s with one t per row.  A
    DomainError unless the radii are finite and >= 0 and t >= s >= 0."""
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
    of times s with one row of radii per time (see ``_radii``).  ``kernel``
    is one kernel, or a sequence of one kernel per row of s.

    All rows share one quadrature: each Gauss level makes one lambda-rule,
    one profile block and, per distinct kernel, one kernel call over the s
    of its rows.  A row's value does not depend on which other radii,
    times or kernels share the call.  The kernels are exactly 1 on the
    diagonal s = t, so a diagonal row is the profile's integral.
    """
    ss, xn = _radii(x_norm, t, s)
    ks = np.broadcast_to(np.array(kernel, dtype=object), ss.shape)
    kernels = [(k, ks == k) for k in dict.fromkeys(ks.tolist())]  # (kernel, its rows)
    phi_s = [phi_of_t(p.m, sj) for sj in ss.tolist()]

    def g(lam):
        out = _exp_profile(lam, xn, phi_s, p)  # fresh, so the kernels multiply in place
        for k, rows in kernels:
            out[rows] *= k(t, ss[rows], lam, p.m)[:, None, :]
        return out

    # scale and rtol by keyword: bench/spans.py reads a fourth positional
    # argument as rtol
    val, err = integrate_lambda_weighted(g, p.q, p.lambda0, scale=phi_of_t(p.m, t) + p.R,
                                         rtol=rtol)
    return _unrows(val, err, x_norm, s)


# ---------------------------------------------------------------------------
# the diagonal s = t as a sphere average of one Kummer kernel
# ---------------------------------------------------------------------------

# n = 3 takes the sphere average from this q on: its direct form loses
# ~4e-15/q relative to the cancellation of the 1/q in L (measured 4.4e-13
# at q = 0.01), and smaller q take the lambda-quadrature
_MIN_Q3 = 0.01
# past this many angles the n = 2 rule is refused (lambda0 |x| > ~6.9e10)
_MAX_ANGLES = 2**20
_BATCH = 2**13  # values per n = 2 kernel call: few calls, and small arrays in each


def _on_sphere(p: TestFnParams) -> bool:
    """Whether the diagonal takes the sphere average: n <= 2, or n = 3, q >= _MIN_Q3."""
    return p.n < 3 or (p.n == 3 and p.q >= _MIN_Q3)


@functools.cache
def _cos_rule():
    """The n = 3 small-radius rule in cos th, built on first use: the
    12-point reference Gauss-Legendre panel."""
    return _panels(0.0, 12)[:2]


def _kummer_integral(b: float, lam0: float, w):
    """int_0^{lam0} e^{lam w} lam^{b-1} dlam = lam0^b / b M(b, b+1; lam0 w) for
    one float b > 0; a DomainError where lam0^b leaves the double range, or
    underflows to 0 where M is inf (the product would be 0 * inf)."""
    power = pow_or_inf(lam0, b)
    if not power < math.inf:
        raise DomainError(f"lambda0={lam0:.12g} puts lambda0^{b:.6g} past the double range")
    kummer = kummer_m_gap1(b, lam0 * w)
    if power == 0.0 and np.any(kummer == math.inf):
        raise DomainError(f"lambda0={lam0:.12g} puts lambda0^{b:.6g} below and "
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
    * n = 3: 2 pi int_{-1}^1 K(x mu - a) dmu.  Up to the cut
      x <= max(1/lam0, a / (10 sqrt C)), C = max(1, (q+1)(q+2)/6), by the
      12-point Gauss-Legendre rule in mu (``_cos_rule``): there lam x <= 1
      on [0, lam0], or the weight lam^q e^{-lam a} keeps K(x mu - a) ~
      (a - x mu)^{-q-1}, whose pole lies at mu >= 10 sqrt C, so the rule is
      exact to rounding (within 1.5e-15 of mpmath); the nodes of every such
      radius are one kernel call.  Past it by the direct form
      (2 pi / x) [L(x - a) - L(-x - a)], L(w) = int e^{lam w} lam^{q-1} dlam
      = lam0^q/q M(q, q+1; lam0 w), both ends of every radius in one
      kernel call; the difference loses up to ~4e-15/q to cancellation,
      hence ``_on_sphere``'s q >= _MIN_Q3.

    Every radius is computed alone, so its value does not depend on which
    other radii or times share the call.
    """
    times, at = np.unique(np.broadcast_to(t, xn.shape), return_inverse=True)
    a = np.array([phi_of_t(p.m, tj) + p.R for tj in times.tolist()])[at]
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
    small = xn <= np.maximum(1.0 / lam0, a / (10.0 * math.sqrt(c)))
    if small.any():
        mu, w = _cos_rule()
        k = _kummer_integral(q + 1.0, lam0, (xn[small, None] * mu - a[small, None]).ravel())
        out[small] = 2.0 * math.pi * (k.reshape(-1, mu.size) * w).sum(axis=1)
    x, ax = xn[~small], a[~small]
    if x.size:  # both ends in one kernel call
        l_in, l_out = np.split(_kummer_integral(q, lam0, np.concatenate((x - ax, -x - ax))), 2)
        out[~small] = (2.0 * math.pi / x) * (l_in - l_out)
    return out


def _value(kernel, x_norm, t, s, p: TestFnParams, rtol: float = 1e-8):
    """(value, error estimate) of the test function of ``kernel`` at radii
    x_norm for one time s, or for an array of times s with one row of radii
    and one t each (see ``_radii``); ``kernel`` is one kernel, or a sequence
    of one kernel per row of s.  One sphere average, with error 0, for the
    diagonal rows s = t where ``_on_sphere`` (xi_q = eta_q there, so the
    kernel does not matter), and one lambda-quadrature to rtol per distinct
    t of the other rows, shared by their kernels."""
    ss, xn = _radii(x_norm, t, s)
    ts = np.broadcast_to(t, ss.shape)
    ks = np.broadcast_to(np.array(kernel, dtype=object), ss.shape)
    val, err = np.empty_like(xn), np.zeros_like(xn)
    sphere = (ss == ts) & _on_sphere(p)
    if sphere.any():
        val[sphere] = _sphere_average(xn[sphere].ravel(), np.repeat(ts[sphere], xn.shape[1]),
                                      p).reshape(xn[sphere].shape)
    for tj in np.unique(ts[~sphere]).tolist():
        rows = (ts == tj) & ~sphere
        val[rows], err[rows] = _test_fn(ks[rows], xn[rows], tj, ss[rows], p, rtol)
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
        return cls(
            t_values=(0.0, *np.geomspace(0.05, t_max, nt).tolist()),
            s_fractions=tuple(np.linspace(0.0, 0.8, ns).tolist()),
            x_fractions=tuple(np.linspace(0.0, 0.95, nx).tolist()),
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


class Lemma22Row(NamedTuple):
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


def _kernel_of(part: str):
    """The propagator kernel of a part's test function: xi_q's for i-xi, else eta_q's."""
    return kernel_phi1_scaled if part == "i-xi" else kernel_phi2_ratio_scaled


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
    are the points whose quadrature missed rtol (``unconverged``).  An
    envelope that is not a normal double (<.>^{-q} underflows at large q and
    t) is a DomainError naming q, the part and t; every envelope of the grid
    is checked before any value is computed.

    The grid is listed as blocks of rows (parts, t, s, radii, envelopes),
    and one ``_value`` call gives xi_q over part i's (t, 0) and eta_q over
    every distinct (t, s), one kernel per row: the diagonal s = t (part
    iii, and part i at t = 0) is one sphere average where it applies (a
    closed form, no rtol), and each t makes one lambda-quadrature for both
    test functions.  A row's value does not depend on which other rows
    share its call, so the rows equal one ``xi_q``/``eta_q`` call per
    (part, t, s).
    """
    m, n, q = p.m, p.n, p.q
    alpha = m / (2.0 * (m + 2.0))
    beta = (m + 4.0) / (2.0 * (m + 2.0))
    xf = np.asarray(grid.x_fractions)
    times = sorted({float(v) for v in grid.t_values})

    blocks = []  # (parts, t, s, radii, one envelope per part) in row order
    for t in times:
        phi_t = phi_of_t(m, t)
        if q > -alpha:  # parts i (s = 0, |x| <= R) and ii (0 <= s < t, |x| <= phi(s) + R)
            blocks.append((("i-xi", "i-eta"), t, 0.0, xf * p.R,
                           (bracket(phi_t) ** (-alpha), bracket(phi_t) ** (-beta))))
            for s in (frac * t for frac in grid.s_fractions):
                if 0.0 <= s < t:
                    phi_s = phi_of_t(m, s)
                    blocks.append((("ii",), t, s, xf * (phi_s + p.R), (bracket(t) ** (
                        -1.0 - m / 4.0) * bracket(phi_s) ** (-q - 1.0 + beta),)))
        if t > 0.0 and q > (n - 3.0) / 2.0:  # part iii: the diagonal, |x| <= phi(t) + R
            xs = xf * (phi_t + p.R)
            blocks.append((("iii",), t, t, xs, ([bracket(phi_t) ** (-(n - 1.0) / 2.0) * bracket(
                phi_t - x) ** ((n - 3.0) / 2.0 - q) for x in xs],)))
    for parts, t, _, _, envs in blocks:  # every envelope is <= 1: it can only underflow
        for part, env in zip(parts, envs):
            if not np.all(np.asarray(env) >= _TINY):
                raise DomainError(f"the part {part} envelope underflows at t={t:.12g} "
                                  f"(q={q:.12g})")

    # (kernel, t, s) -> radii; part i's and part ii's s = 0 have bit-equal
    # radii (phi(0) = 0), so they share one eta_q row
    radii = {}
    for parts, t, s, xs, _ in blocks:
        for part in parts:
            radii.setdefault((_kernel_of(part), t, s), xs)
    values, unconverged = {}, 0
    if radii:
        kernels, ts, ss = zip(*radii)
        vals, err = _value(kernels, np.array(list(radii.values())), np.array(ts), np.array(ss),
                           p, rtol)
        unconverged = np.count_nonzero(_misses(vals, err, rtol))
        values = dict(zip(radii, vals.tolist()))

    rows: list[Lemma22Row] = []
    for parts, t, s, xs, envs in blocks:
        cols = [(part, values[_kernel_of(part), t, s], np.broadcast_to(env, xs.shape).tolist())
                for part, env in zip(parts, envs)]
        for j, x in enumerate(xs.tolist()):
            rows.extend(Lemma22Row(part, t, s, x, v[j], env[j], v[j] / env[j])
                        for part, v, env in cols)
    excluded = len(times) * (len(grid.s_fractions) + 3) * len(xf) - len(rows)

    constants = {}
    # numpy's reductions, unlike min and max, return nan if any ratio is nan
    for part, agg in (("i-xi", np.min), ("i-eta", np.min), ("ii", np.min), ("iii", np.max)):
        ratios = [r.ratio for r in rows if r.part == part]
        constants[part] = float(agg(ratios)) if ratios else math.nan
    return Lemma22Report(tuple(rows), constants, excluded, unconverged)
