"""Every entry point agrees with ``lifespan_law`` on which lifespan law applies."""

import pytest

from tricomilab.errors import DomainError
from tricomilab.exponents import (
    CRITICAL_GAMMA_TOL,
    ExponentContext,
    gamma_mnp,
    lifespan_law,
    lifespan_prediction,
    p_crit,
)
from tricomilab.iteration import blowup_time_estimate, critical_run, subcritical_run
from tricomilab.pde_solver import ModelParams, RunConfig, lifespan_scan

PC12 = p_crit(1.0, 2)

# p = p_crit(1,2); p_crit as a 12-digit config echo writes it (gamma 2.6e-11);
# and p just below (gamma 5.7e-8) and just above (gamma -5.7e-8) the tolerance
POINTS = [
    (PC12, "critical"),
    (2.18614066163, "critical"),
    (2.18614065163, "subcritical"),
    (2.18614067163, None),
]


def _accepts(fn) -> bool:
    try:
        fn()
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("p, regime", POINTS)
def test_entry_points_agree_on_the_law(p, regime):
    ctx = ExponentContext(1.0, 2, p)
    g = gamma_mnp(ctx)
    assert (abs(g) <= CRITICAL_GAMMA_TOL) == (regime == "critical")
    assert (g > CRITICAL_GAMMA_TOL) == (regime == "subcritical")
    if regime is None:
        with pytest.raises(DomainError):
            lifespan_law(ctx)
    else:
        assert lifespan_law(ctx).regime == regime
    subcritical = regime == "subcritical"
    assert _accepts(lambda: subcritical_run(ctx, d1=0.1, jmax=2)) == subcritical
    assert _accepts(lambda: blowup_time_estimate(ctx, 0.5)) == subcritical
    assert _accepts(lambda: critical_run(ctx, eps=0.1, jmax=2)) == (regime == "critical")
    assert _accepts(lambda: lifespan_prediction(ctx, 0.5, 1.0)) == (regime is not None)
    cfg = RunConfig(model=ModelParams(1.0, 2, p), dx=0.1, t_max=0.5)
    assert _accepts(lambda: lifespan_scan(cfg, [1.0])) == subcritical


def test_law_exponents():
    # independent references: 2p(p-1)/gamma below p_crit, p(p-1) at it
    ctx = ExponentContext(1.0, 1, 2.0)
    law = lifespan_law(ctx)
    assert law.theta == 2.0 * 2.0 * 1.0 / gamma_mnp(ctx)
    assert law.gamma == gamma_mnp(ctx)
    crit = lifespan_law(ExponentContext(1.0, 2, PC12))
    assert crit.theta == pytest.approx(PC12 * (PC12 - 1.0), rel=1e-15)
