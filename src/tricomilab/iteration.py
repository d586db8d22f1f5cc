"""Iteration engines that turn functional lower bounds into blow-up times.

Subcritical engine (1 < p < p_crit): from a first iterate
G(t) > D_1 (1+t)^{-a_1} (t-T0)^{b_1} the recursion

    D_{j+1} = C0 D_j^p / ((mu + p b_j + 1)(mu + p b_j + 2)),
    a_{j+1} = mu + (m+2) n (p-1)/2 + p a_j,
    b_{j+1} = mu + 2 + p b_j,

has closed forms a_j = alpha_it p^{j-1} - ((m+2)n/2 + mu/(p-1)),
b_j = beta_it p^{j-1} - (mu+2)/(p-1), and the simplified minorant
D_{j+1} >= C3 D_j^p / p^{2j} admits the floor
log D_j >= p^{j-1}(log D_1 - S_p(inf)) past an explicit index.  The scalar

    J(t) = log D_1 - S_p(inf) - alpha_it log(1+t) + beta_it log(t - T0)

then certifies divergence: once J(t) > 1 the iterates blow up, which yields
T(eps) <= C4 eps^{-2p(p-1)/gamma}.

Critical engine (gamma = 0): slicing sequences on l_j = 2 - 2^{-(j+1)},

    a_j = (p^{j+1}-1)/(p-1),  b_j = p^j - 1,
    log C_j = p^{j-1} (log C_1 - S_j log(2p)),  S_j = sum_{i<j} i/p^i,

feeding the lower bound <t>^{m/4} F(t) >= C_j (log<t>)^{-b_j} log(t/l_j)^{a_j}.
The first t where the best bound over j passes a fixed ceiling yields the
double-exponential lifespan scaling T(eps) <= exp(C eps^{-p(p-1)}).

Both engines stop at a first crossing of an increasing function, found by
one search (``_first_crossing``): galloping steps, then bisection down to
adjacent doubles.  The subcritical engine searches log t for J > 1, the
critical one w = log log t for the ceiling, with no upper cap.

All sequence arithmetic is carried in the log domain: D_j and C_j overflow
double precision near j ~ 20 otherwise.  The universal constants (C0, C2,
B1, the frame constant C) are calibration inputs of the engines, default
1; the threshold curves use the defaults, as every scaling-law extraction
here is constant-free (slopes only).  ``exponents.lifespan_law`` decides
which engine applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exponents import (
    ExponentContext, exp_or_inf, iteration_exponents, lifespan_law, p_crit, pow_or_inf,
)

# unused here; re-exported because the benchmark tracer wraps this name in this module
from .exponents import gamma_mnp  # noqa: F401

_JMAX_HARD = 60


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise DomainError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class SubcriticalSequences:
    """Subcritical iteration state: recursions, floors, and constants."""

    p: float
    alpha_it: float
    beta_it: float
    j_index: np.ndarray
    a_j: np.ndarray
    b_j: np.ndarray
    log_d_j: np.ndarray        # exact recursion, log domain
    log_d_j_floor: np.ndarray  # C3-minorant recursion, log domain
    d1: float
    t0: float
    c3: float
    sp_infinity: float

    def a_closed(self, j) -> np.ndarray:
        """Closed form a_j = alpha_it p^{j-1} - ((m+2)n/2 + mu/(p-1))."""
        j = np.asarray(j, dtype=float)
        return self.alpha_it * self.p ** (j - 1.0) - (self.alpha_it - self.a_j[0])

    def b_closed(self, j) -> np.ndarray:
        """Closed form b_j = beta_it p^{j-1} - (mu+2)/(p-1)."""
        j = np.asarray(j, dtype=float)
        return self.beta_it * self.p ** (j - 1.0) - (self.beta_it - self.b_j[0])

    def log_d_floor_closed(self, j) -> np.ndarray:
        """Floor log D_j >= p^{j-1} (log D_1 - S_p(inf))."""
        j = np.asarray(j, dtype=float)
        return self.p ** (j - 1.0) * (math.log(self.d1) - self.sp_infinity)

    def floor_valid_from(self) -> int:
        """First index past which the closed-form floor is guaranteed."""
        thresh = self.p * math.log(self.c3) / (2.0 * math.log(self.p)) - 1.0 / (
            self.p - 1.0
        )
        return max(1, int(math.floor(thresh)) + 1)


def sp_infinity(p: float, c3: float) -> float:
    """Geometric tail constant S_p(inf) = 2p log p/(p-1)^2 - p log C3/(p-1)."""
    return 2.0 * p * math.log(p) / (p - 1.0) ** 2 - p * math.log(c3) / (p - 1.0)


def subcritical_run(
    ctx: ExponentContext,
    d1: float,
    t0: float = 0.0,
    jmax: int = 40,
    c0: float = 1.0,
) -> SubcriticalSequences:
    """Run the subcritical recursion for j = 1..jmax in the log domain."""
    if not 0 < jmax <= _JMAX_HARD:
        raise DomainError(f"jmax must be in (0, {_JMAX_HARD}], got {jmax}")
    _require_positive(D1=d1, C0=c0)
    if not t0 >= 0:
        raise DomainError(f"T0 must be >= 0, got {t0}")
    law = lifespan_law(ctx)
    if law.regime != "subcritical":
        raise DomainError(
            f"subcritical engine needs 1 < p < p_crit(m,n) (gamma > 0), got gamma={law.gamma}"
        )
    m, n, p = ctx.m, ctx.n, ctx.p
    ex = iteration_exponents(ctx)
    c3 = c0 / ex.beta_it**2
    spinf = sp_infinity(p, c3)

    js = np.arange(1, jmax + 1)
    a = np.empty(jmax)
    b = np.empty(jmax)
    logd = np.empty(jmax)
    logd_floor = np.empty(jmax)
    a[0], b[0] = ex.a1, ex.b1
    logd[0] = logd_floor[0] = math.log(d1)
    a_step = ex.mu + (m + 2.0) * n * (p - 1.0) / 2.0
    for k in range(jmax - 1):
        bj = b[k]
        a[k + 1] = a_step + p * a[k]
        b[k + 1] = ex.mu + 2.0 + p * bj
        logd[k + 1] = (
            math.log(c0)
            + p * logd[k]
            - math.log(ex.mu + p * bj + 1.0)
            - math.log(ex.mu + p * bj + 2.0)
        )
        logd_floor[k + 1] = (
            math.log(c3) + p * logd_floor[k] - 2.0 * (k + 1.0) * math.log(p)
        )
    return SubcriticalSequences(
        p=p,
        alpha_it=ex.alpha_it,
        beta_it=ex.beta_it,
        j_index=js,
        a_j=a,
        b_j=b,
        log_d_j=logd,
        log_d_j_floor=logd_floor,
        d1=d1,
        t0=t0,
        c3=c3,
        sp_infinity=spinf,
    )


def j_function(t: float, seq: SubcriticalSequences) -> float:
    """Divergence certificate J(t); J(t) > 1 forces blow-up of the iterates."""
    if not t > seq.t0:
        raise DomainError(f"J(t) needs t > T0 = {seq.t0}, got t = {t}")
    return j_function_log(math.log(t), seq)


def j_function_log(log_t: float, seq: SubcriticalSequences) -> float:
    """J evaluated at t = e^{log_t}; stable for astronomically large t.

    Written as (beta_it - alpha_it) log t plus bounded corrections: near
    p_crit beta_it - alpha_it is ~gamma and the threshold log t ~1/gamma, so
    the two products beta_it log t and alpha_it log t would cancel.
    """
    # log((1+t)/t)
    if log_t > 0:
        log_ratio_1 = math.log1p(math.exp(-log_t))
    else:
        log_ratio_1 = math.log1p(math.exp(log_t)) - log_t
    # log((t-T0)/t)
    if seq.t0 == 0.0:
        log_ratio_t0 = 0.0
    else:
        rel = seq.t0 * math.exp(-log_t)
        if rel >= 1.0:
            raise DomainError("J(t) needs t > T0")
        log_ratio_t0 = math.log1p(-rel)
    return (
        math.log(seq.d1)
        - seq.sp_infinity
        + (seq.beta_it - seq.alpha_it) * log_t
        - seq.alpha_it * log_ratio_1
        + seq.beta_it * log_ratio_t0
    )


def j_threshold_time(seq: SubcriticalSequences) -> float:
    """Closed-form time past which J(t) > 1 is guaranteed.

    max{T0 + (e^{S_p(inf) + alpha_it log 2 + 1} / D1)^{1/(beta_it - alpha_it)},
        2 T0 + 1}; the exponent equals 2(p-1)/gamma.  Evaluated in log space;
    inf once the power-law term leaves the double range (near p_crit).
    """
    log_base = seq.sp_infinity + seq.alpha_it * math.log(2.0) + 1.0 - math.log(seq.d1)
    log_power = log_base / (seq.beta_it - seq.alpha_it)
    return max(seq.t0 + exp_or_inf(log_power), 2.0 * seq.t0 + 1.0)


def _first_crossing(f, lo: float, level: float, step: float) -> float:
    """First double x >= lo with f(x) > level, for f increasing in x.

    Gallops in steps of step, 2 step, 4 step, ... to bracket the crossing in
    O(log) tries, then bisects the bracket down to adjacent doubles.  A nan
    f counts as not above the level; a DomainError once the bracket leaves
    the double range.
    """
    if f(lo) > level:
        return lo
    hi = lo + step
    while not f(hi) > level:
        lo, step = hi, 2.0 * step
        hi = lo + step
        if not math.isfinite(hi):
            raise DomainError(f"never exceeds {level:.6g} (searched up to {lo:.6g})")
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if f(mid) > level:
            hi = mid
        else:
            lo = mid


def threshold_time_log_scan(seq: SubcriticalSequences) -> float:
    """log of the first time with J(t) > 1 (``_first_crossing`` in log t).

    J is increasing in t (beta_it > alpha_it); the search starts at
    t = 2 T0 + 1 in steps of 1 in log t, and returns the first double with
    J > 1.  Constant-free extraction: the returned log-time inherits the
    exact -2p(p-1)/gamma scaling in log(eps) through D1.
    """
    lo = math.log(2.0 * seq.t0 + 1.0)
    return _first_crossing(lambda log_t: j_function_log(log_t, seq), lo, 1.0, 1.0)


def blowup_time_estimate(
    ctx: ExponentContext,
    eps: float,
    c2: float = 1.0,
    c0: float = 1.0,
) -> float:
    """Lifespan bound C4 eps^{-2p(p-1)/gamma}: the ``j_threshold_time`` of the
    one-term run with D1 = C2 eps^p and T0 = 0, so never below 2 T0 + 1 = 1.

    DomainError outside the subcritical range, and where C2 eps^p leaves
    the positive doubles.
    """
    _require_positive(eps=eps)
    d1 = c2 * pow_or_inf(eps, ctx.p)
    return j_threshold_time(subcritical_run(ctx, d1=d1, jmax=1, c0=c0))


def subcritical_threshold_curve(ctx: ExponentContext, eps_values) -> np.ndarray:
    """log T*(eps) from the J(t) > 1 scan (D1 = eps^p, T0 = 0), for slope
    fits against log(eps)."""
    out = []
    for eps in eps_values:
        _require_positive(eps=eps)
        seq = subcritical_run(ctx, d1=pow_or_inf(eps, ctx.p), jmax=2)
        out.append(threshold_time_log_scan(seq))
    return np.asarray(out)


# ---------------------------------------------------------------------------
# critical slicing engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriticalSequences:
    """Critical slicing state: sequences, slices, and calibration constants."""

    p: float
    j_index: np.ndarray
    a_j: np.ndarray
    b_j: np.ndarray
    l_j: np.ndarray
    s_j: np.ndarray
    log_c_j: np.ndarray
    log_c1: float
    m_const: float

    def a_closed(self, j) -> np.ndarray:
        j = np.asarray(j, dtype=float)
        return (self.p ** (j + 1.0) - 1.0) / (self.p - 1.0)

    def b_closed(self, j) -> np.ndarray:
        j = np.asarray(j, dtype=float)
        return self.p**j - 1.0

    def s_limit(self) -> float:
        """S_j -> p/(p-1)^2."""
        return self.p / (self.p - 1.0) ** 2

    def log_c_closed(self, j) -> np.ndarray:
        """log C_j = p^{j-1} (log C1 - S_j log 2p); the E^{1/(p-1)} factors
        in the defining expression cancel identically."""
        j = np.asarray(j, dtype=int)
        return self.p ** (j - 1.0) * (
            self.log_c1 - self.s_j[j - 1] * math.log(2.0 * self.p)
        )


def critical_run(
    ctx: ExponentContext,
    eps: float,
    c: float = 1.0,
    c0: float = 1.0,
    b1: float = 1.0,
    jmax: int = 40,
) -> CriticalSequences:
    """Build the critical slicing sequences for j = 1..jmax (log domain).

    Constants: M = C0 B1 / 27, N = C M^p / (3^2 * 7 * (p+1)),
    C1 = N eps^{p^2}; log C1 is summed from the logs of its factors, so
    extreme C0, B1 stay finite.  The constant E = C (p-1)/(72 p^2) of the
    defining expression cancels in log C_j (see ``log_c_closed``).
    """
    if not 0 < jmax <= _JMAX_HARD:
        raise DomainError(f"jmax must be in (0, {_JMAX_HARD}], got {jmax}")
    _require_positive(eps=eps, C=c, C0=c0, B1=b1)
    law = lifespan_law(ctx)
    if law.regime != "critical":
        raise DomainError(
            f"critical engine needs p = p_crit(m,n), got gamma={law.gamma}; "
            f"p_crit={p_crit(ctx.m, ctx.n)}"
        )
    p = ctx.p
    m_const = c0 * b1 / 27.0
    log_c1 = (math.log(c) + p * (math.log(c0) + math.log(b1) - math.log(27.0))
              - math.log(63.0 * (p + 1.0)) + p * p * math.log(eps))

    js = np.arange(1, jmax + 1)
    a = np.empty(jmax)
    b = np.empty(jmax)
    lj = np.empty(jmax)
    sj = np.empty(jmax)
    logc = np.empty(jmax)
    a[0], b[0] = p + 1.0, p - 1.0
    sj[0] = 0.0
    logc[0] = log_c1
    lj[0] = 1.5 + 2.0 ** -2.0
    for k in range(jmax - 1):
        jj = k + 1
        a[k + 1] = p * a[k] + 1.0
        b[k + 1] = p * b[k] + p - 1.0
        sj[k + 1] = sj[k] + jj / p**jj
        logc[k + 1] = p * logc[k] - jj * math.log(2.0 * p)
        lj[k + 1] = lj[k] + 2.0 ** -(jj + 2.0)
    return CriticalSequences(
        p=p,
        j_index=js,
        a_j=a,
        b_j=b,
        l_j=lj,
        s_j=sj,
        log_c_j=logc,
        log_c1=log_c1,
        m_const=m_const,
    )


def initiation_envelope(t, eps: float, p: float, m_const: float):
    """First slicing input: <t>^{m/4} F(t) >= M eps^p log(2t/3) for t >= 3/2."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 1.5):
        raise DomainError("initiation envelope applies for t >= 3/2")
    return m_const * eps**p * np.log(2.0 * t / 3.0)


def critical_lower_bound_log(
    seq: CriticalSequences, log_t: float, j: int
) -> float:
    """log of the j-th slicing lower bound for <t>^{m/4} F(t) at t = e^{log_t}.

    Returns -inf at or below the slice time l_j.  Parametrized by log t so
    double-exponentially large times stay representable.
    """
    if j < 1 or j > len(seq.j_index):
        raise DomainError(f"j must be in [1, {len(seq.j_index)}], got {j}")
    log_lj = math.log(seq.l_j[j - 1])
    if log_t <= log_lj:
        return -math.inf
    if log_t == math.inf:  # the sum is inf - inf; a nan formed in numpy warns
        return math.nan
    # log(3 + t) = log_t + log1p(3 e^{-log_t})
    log_bracket = log_t + math.log1p(3.0 * math.exp(-min(log_t, 700.0)))
    return (
        seq.log_c_j[j - 1]
        - seq.b_j[j - 1] * math.log(log_bracket)
        + seq.a_j[j - 1] * math.log(log_t - log_lj)
    )


def critical_divergence_log_time(
    seq: CriticalSequences, ceiling_log: float = 30.0
) -> float:
    """log of the first time the slicing bound tops a fixed ceiling.

    Searches w = log log t with ``_first_crossing`` (steps of 0.25, 0.5, ...
    from t = 2.05, no upper cap), so the double-exponential lifespan stays
    in range; the returned value is log T.  Slope of log log T against
    log eps approaches -p(p-1).
    """

    def best(w: float) -> float:
        log_t = exp_or_inf(w)  # nan bound past the double range
        return max(critical_lower_bound_log(seq, log_t, int(j)) for j in seq.j_index)

    return math.exp(_first_crossing(best, math.log(math.log(2.05)), ceiling_log, 0.25))


def critical_threshold_curve(ctx: ExponentContext, eps_values) -> np.ndarray:
    """log T*(eps) for the critical engine (constant-free slope extraction,
    jmax = 60, default constants and ceiling)."""
    out = []
    for eps in eps_values:
        seq = critical_run(ctx, eps, jmax=60)
        out.append(critical_divergence_log_time(seq))
    return np.asarray(out)
