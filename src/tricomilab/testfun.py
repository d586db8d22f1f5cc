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
diagonal s = t, where no kernel is evaluated (eta_q(x,t,t) weights the
solver's F(t)); next to it Phi2/(t-s) comes from a (t-s)-series.

The lambda-integral is a graded Gauss-Legendre rule refined by doubling
the order per panel: 8, 16, 32, 64, 128 points.  Each level is a row-wise
sum over the lambda nodes, one sum per radius, and each radius keeps the
first level that meets rtol, so a value at a radius does not depend on
which other radii share the call.  The test-function integrands are smooth
on every panel: on the envelope and F-tracked runs, 8 and 16 points agree
to 2.4e-12 and the 16-point value is within 5e-15 of the 32-point one, so
every radius there stops at 16.

Three blocks are built once and shared through read-only memos
(``tricomi_ode._memoized``: at most 4 entries, the four most recent,
evicted first-in-first-out): the graded rule per (q, lambda0, level); the
t- and s-independent factor varphi_scaled(n, lam|x|) per (n, lambda nodes,
radii); and, in ``tricomi_ode``, the kernels' time-t Bessel pair per (m,
lambda phi(t)).  The rule and the pair are keyed on the exact inputs.  The
varphi block also serves radii that begin a cached entry's radii, by its
first rows, and extends an entry whose radii begin the requested ones by
building the new rows alone, so the growing live window of an F-tracked
run builds each row once.  A miss builds the block afresh, and results are bit-identical
to that (varphi_scaled works element by element).  The exp factor skips
its clip at 700 where the largest exponent of the block is within it.

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
from .tricomi_ode import _memoized, kernel_phi1_scaled, kernel_phi2_ratio_scaled, phi_of_t

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
        if not (-1 < self.q < math.inf and _octaves(self.q) <= _MAX_OCTAVES):
            raise DomainError(f"q must be > -1 for integrability, with at most "
                              f"{_MAX_OCTAVES} quadrature octaves, got {self.q}")
        if not self.lambda0 > 0:
            raise DomainError(f"lambda0 must be > 0, got {self.lambda0}")
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
# graded Gauss-Legendre quadrature for int_0^{lam0} g(lam) lam^q dlam
# ---------------------------------------------------------------------------

# graded rules, see the module docstring
_RULE_MEMO: dict[tuple, tuple] = {}


# past this many octaves the panel edges upper * 2^-k (upper <= 1) underflow to 0
_MAX_OCTAVES = 1074


def _octaves(q: float) -> int:
    """The graded rule's dyadic panel count for the weight lam^q."""
    return max(54, int(14.0 * (q + 1.0)) + 40)


def _graded_rule(q: float, lam0: float, per_octave: int):
    """Nodes/weights for the lam^q-weighted integral on (0, lam0].

    Panels are graded dyadically toward 0.  For q < 0 the substitution
    u = lam^{q+1} (du = (q+1) lam^q dlam) removes the endpoint singularity
    first, so plain Gauss panels stay accurate.
    """
    xg, wg = np.polynomial.legendre.leggauss(per_octave)
    n_oct = _octaves(q)
    upper = lam0 ** (q + 1.0) if q < 0.0 else lam0
    edges = upper * 2.0 ** -np.arange(n_oct + 1, dtype=float)
    lo = np.concatenate((edges[1:], [0.0]))
    half = 0.5 * (edges - lo)
    mid = 0.5 * (edges + lo)
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    if q < 0.0:
        lam = nodes ** (1.0 / (q + 1.0))
        # for q near -1 the power map can underflow lam to 0 at the deepest
        # nodes (relative weight <= 2^-54); clamp so kernels stay finite
        return np.maximum(lam, 1e-200), w / (q + 1.0)
    return nodes, w * nodes**q


def _misses(value, err, rtol: float):
    """Points whose error estimate is not within rtol of |value| (nan misses)."""
    return ~(err <= rtol * np.maximum(np.abs(value), 1e-300))


def integrate_lambda_weighted(g, q: float, lam0: float, rtol: float = 1e-8):
    """(integral, error estimate) of int_0^{lam0} g(lam) lam^q dlam.

    ``g`` must accept a 1-d lambda array and return an array whose last axis
    matches it; the integral is taken over that axis, one row at a time, so
    a row's value does not depend on the other rows.  ``g`` is called once
    per Gauss level, at 8, 16, 32, 64 and 128 points per panel.  A row's
    error estimate is the change under doubling the Gauss order per panel;
    the row keeps the value and error of the first level at which that
    falls below rtol in relative terms, and the levels stop when every row
    has.  A row that meets rtol at 16 points keeps the 16-point value with
    |Q16 - Q8| as its error; a row that misses there takes the same values,
    to the bit, as a ladder that starts at 16 points.
    """
    if not lam0 > 0:
        raise DomainError(f"lambda0 must be > 0, got {lam0}")
    if not q > -1:
        raise DomainError(f"integral diverges at 0 for q = {q} <= -1")
    if not rtol > 0:
        raise DomainError(f"rtol must be > 0, got {rtol}")
    value = None
    err = np.inf
    done = False
    for level in (8, 16, 32, 64, 128):
        lam, w = _memoized(_RULE_MEMO, (q, lam0, level), lambda: _graded_rule(q, lam0, level))
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


# blocks of the four most recent Gauss levels (see module docstring)
_VPHI_MEMO: dict[tuple, np.ndarray] = {}


def _vphi_block(n: int, lam: np.ndarray, xn: np.ndarray) -> np.ndarray:
    """Read-only varphi_scaled(n, lam |x|) block, shape (X, L), memoized.

    Radii that begin a cached entry's radii are served by its first rows; an
    entry whose radii begin the requested ones is replaced by itself plus
    the new rows, built alone.  varphi_scaled works element by element, so
    either is what a fresh build gives.
    """
    head, radii = (n, lam.tobytes()), xn.tobytes()
    entries = [(key, block) for key, block in _VPHI_MEMO.items() if key[0] == head]
    for (_, known), block in entries:
        if known.startswith(radii):
            return block[:xn.size]
    for key, block in entries:
        if radii.startswith(key[1]):
            del _VPHI_MEMO[key]
            rows = varphi_scaled(n, lam[None, :] * xn[block.shape[0]:, None])
            return _memoized(_VPHI_MEMO, (head, radii), lambda: np.concatenate((block, rows)))
    return _memoized(_VPHI_MEMO, (head, radii),
                     lambda: varphi_scaled(n, lam[None, :] * xn[:, None]))


def _exp_profile(lam: np.ndarray, x_norm: np.ndarray, s: float, p: TestFnParams):
    """exp(lam(|x| - phi(s) - R)) vphi_scaled(n, lam |x|) at the 1-d radii
    x_norm, shape (X, L).

    Returns a fresh array; the t-independent varphi factor comes from the memo.
    """
    # fetched first, so no profile array is alive while a block is built
    block = _vphi_block(p.n, lam, x_norm)
    phi_s = phi_of_t(p.m, s)
    out = lam[None, :] * (x_norm[:, None] - phi_s - p.R)
    # rounding is monotone and lam > 0, so the largest exponent is this one
    # formed in the same order; where it is within the clip, the clip is a no-op
    if not (x_norm.size and lam.max() * (x_norm.max() - phi_s - p.R) <= _EXP_CLIP):
        np.minimum(out, _EXP_CLIP, out=out)
    np.exp(out, out=out)
    out *= block
    return out


def _test_fn(kernel, x_norm, t: float, s: float, p: TestFnParams, rtol: float = 1e-8):
    """(value, error estimate) of the lambda-integral of the profile times
    kernel(t, s, lam, m) at radii x_norm.  On the diagonal s = t the kernel
    is not called: both propagator kernels are exactly 1 there."""
    xn = np.atleast_1d(np.asarray(x_norm, dtype=float))
    if np.any(xn < 0):
        raise DomainError("x_norm must be >= 0")
    if s < 0 or t < s:
        raise DomainError(f"need t >= s >= 0, got t={t}, s={s}")

    def g(lam):
        out = _exp_profile(lam, xn, s, p)  # fresh, so the kernel multiplies in place
        if s != t:
            out *= kernel(t, s, lam, p.m)
        return out

    val, err = integrate_lambda_weighted(g, p.q, p.lambda0, rtol)
    if np.ndim(x_norm) == 0:
        return float(val[0]), float(err[0])
    return val, err


def xi_q(x_norm, t: float, s: float, p: TestFnParams):
    """Test function xi_q at radius |x| = x_norm (scalar or array), to rtol 1e-8."""
    return _test_fn(kernel_phi1_scaled, x_norm, t, s, p)[0]


def eta_q(x_norm, t: float, s: float, p: TestFnParams):
    """Test function eta_q at radius |x| = x_norm (scalar or array), to rtol 1e-8."""
    return _test_fn(kernel_phi2_ratio_scaled, x_norm, t, s, p)[0]


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
    are the points whose quadrature missed rtol (``unconverged``).
    """
    m, n, q = p.m, p.n, p.q
    alpha = m / (2.0 * (m + 2.0))
    rows: list[Lemma22Row] = []
    excluded = 0
    unconverged = 0

    lower_ok = q > -alpha
    upper_ok = q > (n - 3.0) / 2.0

    def measure(kernel, xs, t, s):
        """Values at radii xs; the ones that missed rtol are counted."""
        nonlocal unconverged
        vals, err = _test_fn(kernel, xs, t, s, p, rtol)
        unconverged += np.count_nonzero(_misses(vals, err, rtol))
        return vals

    def add(part, t, s, x, v, env):
        rows.append(Lemma22Row(part, t, s, float(x), float(v), env, float(v) / env))

    for t in sorted({float(v) for v in grid.t_values}):
        phi_t = phi_of_t(m, t)
        # parts i-xi / i-eta: s = 0, |x| <= R
        xs = np.asarray(grid.x_fractions) * p.R
        if lower_ok:
            env_xi = bracket(phi_t) ** (-alpha)
            env_eta = bracket(phi_t) ** (-(m + 4.0) / (2.0 * (m + 2.0)))
            vals_xi = measure(kernel_phi1_scaled, xs, t, 0.0)
            vals_eta = measure(kernel_phi2_ratio_scaled, xs, t, 0.0)
            for x, vx, ve in zip(xs, vals_xi, vals_eta):
                add("i-xi", t, 0.0, x, vx, env_xi)
                add("i-eta", t, 0.0, x, ve, env_eta)
        else:
            excluded += 2 * len(xs)

        # part ii: 0 <= s < t
        for frac in grid.s_fractions:
            s = frac * t
            if not (lower_ok and 0.0 <= s < t):
                excluded += len(grid.x_fractions)
                continue
            phi_s = phi_of_t(m, s)
            env = bracket(t) ** (-1.0 - m / 4.0) * bracket(phi_s) ** (
                -q - 1.0 + (m + 4.0) / (2.0 * (m + 2.0))
            )
            xs2 = np.asarray(grid.x_fractions) * (phi_s + p.R)
            # phi(0) = 0, so at s = 0 xs2 == xs and this is part i's eta_q call
            vals = vals_eta if s == 0.0 else measure(kernel_phi2_ratio_scaled, xs2, t, s)
            for x, v in zip(xs2, vals):
                add("ii", t, s, x, v, env)

        # part iii: diagonal, t > 0
        if t <= 0.0 or not upper_ok:
            excluded += len(grid.x_fractions)
            continue
        xs3 = np.asarray(grid.x_fractions) * (phi_t + p.R)
        vals = measure(kernel_phi2_ratio_scaled, xs3, t, t)
        for x, v in zip(xs3, vals):
            env = bracket(phi_t) ** (-(n - 1.0) / 2.0) * bracket(phi_t - x) ** (
                (n - 3.0) / 2.0 - q
            )
            add("iii", t, t, x, v, env)

    constants = {}
    # numpy's reductions, unlike min and max, return nan if any ratio is nan
    for part, agg in (("i-xi", np.min), ("i-eta", np.min), ("ii", np.min), ("iii", np.max)):
        ratios = [r.ratio for r in rows if r.part == part]
        constants[part] = float(agg(ratios)) if ratios else math.nan
    return Lemma22Report(tuple(rows), constants, excluded, unconverged)
