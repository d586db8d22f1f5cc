"""Critical-exponent algebra for u_tt - t^m Lap(u) = |u|^p.

The quadratic

    gamma(m,n,p) = -((m+2) n/2 - 1) p^2 - ((m+2)(1 - n/2) - 3) p + (m+2)

controls blow-up: its positive root p_crit(m,n) separates the blow-up range
1 < p < p_crit from small-data global existence, and reduces to the Strauss
exponent p_S(n) at m = 0.  This module also carries the exponent bookkeeping
used by the iteration engines (mu, the growth rates alpha_it/beta_it of the
first iterate, the two identities that close the critical-case estimates)
and the lifespan upper-bound laws

    subcritical:  T(eps) <= C eps^{-2p(p-1)/gamma},
    critical:     T(eps) <= exp(C eps^{-p(p-1)}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError

# |gamma| below this at the requested p routes to the critical lifespan law
CRITICAL_GAMMA_TOL = 1e-9


@dataclass(frozen=True)
class ExponentContext:
    """Problem exponents: degeneracy m >= 0, dimension n >= 1, power p > 1."""

    m: float
    n: int
    p: float

    def __post_init__(self):
        if not self.m >= 0:
            raise DomainError(f"m must be >= 0, got {self.m}")
        if int(self.n) != self.n or self.n < 1:
            raise DomainError(f"n must be a positive integer, got {self.n}")
        if not self.p > 1:
            raise DomainError(f"p must be > 1, got {self.p}")


class IterationExponents(NamedTuple):
    mu: float
    a1: float
    b1: float
    alpha_it: float
    beta_it: float


def gamma_mnp(ctx: ExponentContext) -> float:
    """The blow-up quadratic gamma(m,n,p); positive iff p is subcritical."""
    m, n, p = ctx.m, ctx.n, ctx.p
    lead = (m + 2.0) * n / 2.0 - 1.0
    mid = (m + 2.0) * (1.0 - n / 2.0) - 3.0
    return -lead * p * p - mid * p + (m + 2.0)


def p_crit(m: float, n: int) -> float:
    """Positive root of gamma(m,n,.) = 0 (the critical power).

    Uses the product-of-roots form of the quadratic formula so the result
    holds 1e-12 accuracy even when the linear coefficient dominates.
    """
    if m < 0:
        raise DomainError(f"m must be >= 0, got {m}")
    if int(n) != n or n < 1:
        raise DomainError(f"n must be a positive integer, got {n}")
    # gamma = A p^2 + B p + C
    a = -((m + 2.0) * n / 2.0 - 1.0)
    b = -((m + 2.0) * (1.0 - n / 2.0) - 3.0)
    c = m + 2.0
    if a == 0.0:
        root = -c / b
        if root <= 1.0:
            raise DomainError(
                f"no critical power > 1 for m={m}, n={n} (degenerate quadratic)"
            )
        return root
    disc = b * b - 4.0 * a * c
    if disc < 0:
        raise DomainError(f"no real critical power for m={m}, n={n}")
    # q is never 0 here: c = m+2 >= 2 rules out a double root at p = 0
    q = -(b + math.copysign(math.sqrt(disc), b)) / 2.0
    pos = [r for r in (q / a, c / q) if r > 0]
    if not pos:
        raise DomainError(f"no positive critical power for m={m}, n={n}")
    return max(pos)


def strauss_exponent(n: int) -> float:
    """Closed-form Strauss exponent p_S(n) = (n+1+sqrt(n^2+10n-7))/(2(n-1))."""
    if n < 2:
        raise DomainError(f"Strauss exponent needs n >= 2, got {n}")
    return (n + 1.0 + math.sqrt(n * n + 10.0 * n - 7.0)) / (2.0 * (n - 1.0))


def q_choice(n: int, p: float) -> float:
    """Weight exponent q = (n-1)/2 - 1/p used by the critical frame estimate."""
    return (n - 1.0) / 2.0 - 1.0 / p


def iteration_exponents(ctx: ExponentContext) -> IterationExponents:
    """First-iterate exponents and their limiting growth rates.

    a1, b1 are the (1+t)/(t-T0) powers of the first iterate; alpha_it and
    beta_it are the p^{j-1} coefficients in the closed forms of a_j, b_j.
    Their gap satisfies beta_it - alpha_it = gamma(m,n,p) / (2(p-1)).
    """
    m, n, p = ctx.m, ctx.n, ctx.p
    mu = m * n / 2.0
    a1 = mu + (n + mu - 1.0) * p / 2.0
    b1 = (m + 2.0) * (n - 1.0) / 2.0 + mu + 2.0
    alpha_it = a1 + (m + 2.0) * n / 2.0 + mu / (p - 1.0)
    beta_it = b1 + (mu + 2.0) / (p - 1.0)
    return IterationExponents(mu, a1, b1, alpha_it, beta_it)


def critical_identities(ctx: ExponentContext) -> tuple[float, float]:
    """Residuals of the two exponent identities that close the proofs.

    Both residuals vanish exactly at p = p_crit(m,n); away from the root the
    second equals -gamma(m,n,p)/(2p).
    """
    m, n, p = ctx.m, ctx.n, ctx.p
    half_m2 = (m + 2.0) / 2.0
    frame = (
        m / 4.0 * p
        + (1.0 - 1.0 / p + (n - 1.0) / 2.0 * (p - 1.0) - (m + 4.0) / (2.0 * (m + 2.0)))
        * half_m2
        - 1.0
    )
    q = q_choice(n, p)
    initiate = (
        -p / 2.0
        + (q + n * p / 2.0 - (n - 1.0) + 1.0 - (m + 4.0) / (2.0 * (m + 2.0))) * half_m2
        - 1.0
    )
    return (frame, initiate)


class LifespanLaw(NamedTuple):
    """The law that applies and its eps-exponent: theta = 2p(p-1)/gamma in
    T <= C eps^{-theta} (subcritical), theta = p(p-1) in T <= exp(C eps^{-theta})
    (critical)."""

    regime: str
    theta: float
    gamma: float


def lifespan_law(ctx: ExponentContext) -> LifespanLaw:
    """The one regime test: |gamma| <= CRITICAL_GAMMA_TOL is critical, larger
    gamma subcritical; supercritical gamma < 0 raises DomainError."""
    g = gamma_mnp(ctx)
    p = ctx.p
    if abs(g) <= CRITICAL_GAMMA_TOL:
        return LifespanLaw("critical", p * (p - 1.0), g)
    if g < 0:
        raise DomainError(
            f"gamma(m,n,p) = {g} < 0 (supercritical): no lifespan bound applies"
        )
    return LifespanLaw("subcritical", 2.0 * p * (p - 1.0) / g, g)


def lifespan_prediction(ctx: ExponentContext, eps: float, constant: float) -> float:
    """The ``lifespan_law`` bound at eps; the critical law may overflow to inf."""
    if eps <= 0:
        raise DomainError(f"eps must be > 0, got {eps}")
    if constant <= 0:
        raise DomainError(f"constant must be > 0, got {constant}")
    law = lifespan_law(ctx)
    if law.regime == "critical":
        arg = constant * eps ** -law.theta
        return math.exp(arg) if arg < 709.0 else math.inf
    # log space: the exponent blows up as p approaches the root from below
    log_t = math.log(constant) - law.theta * math.log(eps)
    return math.exp(log_t) if log_t < 709.0 else math.inf
