import dataclasses
import itertools
import math

import numpy as np
import pytest

from tricomilab.errors import DomainError
from tricomilab.exponents import ExponentContext, gamma_mnp, p_crit
from tricomilab.iteration import (
    _first_crossing,
    blowup_time_estimate,
    critical_divergence_log_time,
    critical_lower_bound_log,
    critical_run,
    critical_threshold_curve,
    initiation_envelope,
    j_function,
    j_threshold_time,
    subcritical_run,
    subcritical_threshold_curve,
    threshold_time_log_scan,
)

CTX = ExponentContext(1.0, 1, 2.0)  # gamma = 4, lifespan exponent exactly -1


def test_first_iterate_values():
    seq = subcritical_run(CTX, d1=0.5, t0=0.0, jmax=5)
    assert seq.a_j[0] == pytest.approx(1.0)
    assert seq.b_j[0] == pytest.approx(2.5)


def test_closed_forms_match_recursions():
    for ctx in (CTX, ExponentContext(0.5, 2, 1.8), ExponentContext(2.0, 3, 1.5)):
        seq = subcritical_run(ctx, d1=0.3, t0=0.5, jmax=40)
        assert np.allclose(seq.a_closed(seq.j_index), seq.a_j, rtol=1e-12)
        assert np.allclose(seq.b_closed(seq.j_index), seq.b_j, rtol=1e-12)


def test_floor_recursion_and_closed_floor():
    seq = subcritical_run(CTX, d1=0.7, t0=0.0, jmax=40)
    # exact recursion dominates the C3 minorant, which dominates the
    # closed-form floor past the explicit threshold index
    assert np.all(seq.log_d_j >= seq.log_d_j_floor - 1e-9 * np.abs(seq.log_d_j_floor))
    j0 = seq.floor_valid_from()
    js = seq.j_index[seq.j_index >= j0]
    floor = seq.log_d_floor_closed(js)
    assert np.all(seq.log_d_j_floor[js - 1] >= floor - 1e-9 * np.abs(floor))


def test_j_function_monotone_past_burn_in():
    seq = subcritical_run(CTX, d1=0.2, t0=1.0, jmax=2)
    ts = np.linspace(2 * seq.t0 + 1.0 + 1e-6, 200.0, 500)
    vals = np.array([j_function(t, seq) for t in ts])
    assert np.all(np.diff(vals) > 0)


def test_j_divergence_in_j():
    # past the threshold, p^{j-1} J(t) grows monotonically in j
    seq = subcritical_run(CTX, d1=0.2, t0=0.0, jmax=2)
    t = math.exp(threshold_time_log_scan(seq)) * 1.5
    jt = j_function(t, seq)
    assert jt > 1.0
    growth = [seq.p ** (j - 1.0) * jt for j in range(1, 12)]
    assert np.all(np.diff(growth) > 0)


def test_threshold_scan_vs_closed_form_sandwich():
    # the scanned J>1 crossing lower-bounds the closed-form threshold, and
    # the two agree within the factor 2^{alpha/(beta-alpha)} lost by the
    # log(2(t-T0)) >= log(1+t) step in the closed form
    for d1 in (1e-3, 0.1, 5.0):
        seq = subcritical_run(CTX, d1=d1, t0=0.0, jmax=2)
        t_scan = math.exp(threshold_time_log_scan(seq))
        t_closed = j_threshold_time(seq)
        factor = 2.0 ** (seq.alpha_it / (seq.beta_it - seq.alpha_it))
        assert t_scan <= t_closed * (1.0 + 1e-9)
        assert t_closed <= t_scan * factor * 1.05


def test_huge_first_iterate_pins_threshold_at_burn_in():
    # D1 -> infinity drives the power-law branch below 2 T0 + 1
    seq = subcritical_run(CTX, d1=1e30, t0=1.0, jmax=2)
    assert j_threshold_time(seq) == pytest.approx(2.0 * seq.t0 + 1.0)


def test_blowup_time_estimate_power_law():
    t1 = blowup_time_estimate(CTX, 0.1, c2=1.0)
    t2 = blowup_time_estimate(CTX, 0.2, c2=1.0)
    # exponent -2p(p-1)/gamma = -1: doubling eps halves the bound
    assert t2 / t1 == pytest.approx(0.5, rel=1e-12)
    # consistency with the closed-form J threshold (T0 = 0 branch)
    eps = 0.01
    seq = subcritical_run(CTX, d1=eps**2, t0=0.0, jmax=2)
    assert blowup_time_estimate(CTX, eps, c2=1.0) == pytest.approx(
        j_threshold_time(seq), rel=1e-12
    )


def test_blowup_time_estimate_is_the_one_term_threshold():
    # the certified floor 2 T0 + 1 = 1 where the power law C4 / eps drops below 1
    assert blowup_time_estimate(CTX, 100.0) == pytest.approx(4.663287963194245, rel=1e-12)
    assert blowup_time_estimate(CTX, 1e3) == 1.0
    assert blowup_time_estimate(CTX, 1e100) == 1.0
    for eps, c2, c0 in ((0.3, 2.0, 0.5), (1e-4, 1.0, 3.0)):
        seq = subcritical_run(CTX, d1=c2 * eps**2, jmax=1, c0=c0)
        assert blowup_time_estimate(CTX, eps, c2=c2, c0=c0) == j_threshold_time(seq)
    # c2 eps^p overflows or underflows the positive doubles
    for eps, c2 in ((1e200, 1.0), (1e-200, 1.0), (1e150, 1e100), (1e-160, 1e-10)):
        with pytest.raises(DomainError):
            blowup_time_estimate(CTX, eps, c2=c2)


def test_subcritical_slope_extraction():
    eps = 2.0 ** -np.arange(4, 15)
    log_t = subcritical_threshold_curve(CTX, eps)
    slope = np.polyfit(np.log(eps), log_t, 1)[0]
    theory = -2.0 * CTX.p * (CTX.p - 1.0) / gamma_mnp(CTX)
    assert slope == pytest.approx(theory, rel=0.05)


def test_threshold_near_p_crit():
    # gamma = 5.7e-8: the J > 1 crossing sits at log t ~ 6.5e8, past e^709
    ctx = ExponentContext(1.0, 2, 2.18614065163)
    seq = subcritical_run(ctx, d1=0.1**ctx.p, jmax=2)
    rate = seq.beta_it - seq.alpha_it
    slack = seq.alpha_it * math.log(2.0)  # log(2t) >= log(1+t) in the closed form
    log_closed = (seq.sp_infinity + slack + 1.0 - math.log(seq.d1)) / rate
    assert log_closed == pytest.approx(8.47218e8, rel=1e-5)
    assert j_threshold_time(seq) == math.inf
    log_t = threshold_time_log_scan(seq)
    assert log_t < log_closed
    assert log_t == pytest.approx(log_closed - slack / rate, rel=1e-9)


# ---------------------------------------------------------------------------
# the first-crossing search shared by both engines
# ---------------------------------------------------------------------------


def test_first_crossing_returns_first_double_above_level():
    assert _first_crossing(lambda x: x, 0.0, 3.7, 1.0) == math.nextafter(3.7, math.inf)
    assert _first_crossing(lambda x: x, -50.0, 3.7, 0.25) == math.nextafter(3.7, math.inf)


def test_first_crossing_returns_lo_when_already_above():
    assert _first_crossing(lambda x: x, 5.0, 3.7, 1.0) == 5.0


@pytest.mark.parametrize("f", [lambda x: -x, lambda x: math.nan])
def test_first_crossing_raises_when_never_crossing(f):
    with pytest.raises(DomainError):
        _first_crossing(f, 0.0, 3.7, 1.0)


def test_subcritical_scope_errors():
    with pytest.raises(DomainError):
        subcritical_run(ExponentContext(1.0, 2, 3.0), d1=0.1)  # supercritical
    with pytest.raises(DomainError):
        subcritical_run(CTX, d1=0.0)
    with pytest.raises(DomainError):
        subcritical_run(CTX, d1=0.1, jmax=61)
    with pytest.raises(DomainError):
        j_function(0.5, subcritical_run(CTX, d1=0.1, t0=1.0, jmax=2))
    with pytest.raises(DomainError):
        subcritical_threshold_curve(CTX, [1e200])  # D1 = eps^p overflows
    # eps <= 0: (-0.1)^2 would pass as D1 = 0.01, and (-0.1)^1.5 is complex
    for ctx in (CTX, ExponentContext(1.0, 1, 1.5)):
        with pytest.raises(DomainError, match="eps"):
            subcritical_threshold_curve(ctx, [-0.1])


# ---------------------------------------------------------------------------
# critical engine
# ---------------------------------------------------------------------------

PC12 = p_crit(1.0, 2)
CTXC = ExponentContext(1.0, 2, PC12)


def test_critical_first_values():
    seq = critical_run(CTXC, eps=0.1, jmax=10)
    assert seq.a_j[0] == pytest.approx(PC12 + 1.0, rel=1e-14)
    assert seq.b_j[0] == pytest.approx(PC12 - 1.0, rel=1e-14)
    assert seq.l_j[0] == pytest.approx(1.75)
    assert seq.m_const == pytest.approx(1.0 / 27.0)


def test_critical_log_c1_matches_product_form():
    # log C1 is summed from the logs of C, M^p, 63(p+1) and eps^{p^2}.  Its
    # C_j stay within a few ulps of the log of the product (at most 5.6e-16
    # relative at the default constants, 1.1e-15 at (2, 3, 0.5)), and the
    # divergence time built on them within 1e-14
    for m, n, eps in itertools.product((0.5, 1.0, 2.0, 3.5), (1, 2, 3, 5),
                                       (1e-3, 0.05, 1.0)):
        for c, c0, b1, rtol in ((1.0, 1.0, 1.0, 1e-15), (2.0, 3.0, 0.5, 2e-15)):
            p = p_crit(m, n)
            seq = critical_run(ExponentContext(m, n, p), eps, c=c, c0=c0, b1=b1)
            log_c = [math.log(c * (c0 * b1 / 27.0) ** p / (63.0 * (p + 1.0)))
                     + p * p * math.log(eps)]
            for j in range(1, len(seq.j_index)):
                log_c.append(p * log_c[-1] - j * math.log(2.0 * p))
            assert np.allclose(seq.log_c_j, log_c, rtol=rtol, atol=0.0)
            ref = dataclasses.replace(seq, log_c_j=np.array(log_c), log_c1=log_c[0])
            assert critical_divergence_log_time(seq) == pytest.approx(
                critical_divergence_log_time(ref), rel=1e-14)


def test_critical_constants_out_of_product_range():
    # C0 B1 / 27 leaves the double range, its log does not
    ctx = ExponentContext(1.0, 2, p_crit(1.0, 2))
    big = critical_run(ctx, 0.1, c0=1e300, b1=1e300)
    small = critical_run(ctx, 0.1, c0=1e-300, b1=1e-300)
    ref = critical_run(ctx, 0.1)
    shift = 2.0 * ctx.p * 300.0 * math.log(10.0)
    assert big.log_c1 == pytest.approx(ref.log_c1 + shift, rel=1e-14)
    assert small.log_c1 == pytest.approx(ref.log_c1 - shift, rel=1e-14)
    assert np.all(np.isfinite(big.log_c_j)) and np.all(np.isfinite(small.log_c_j))


def test_critical_closed_forms():
    seq = critical_run(CTXC, eps=0.05, jmax=40)
    js = seq.j_index
    assert np.allclose(seq.a_closed(js), seq.a_j, rtol=1e-12)
    assert np.allclose(seq.b_closed(js), seq.b_j, rtol=1e-12)
    assert np.allclose(seq.log_c_closed(js), seq.log_c_j, rtol=1e-12)
    # slicing times increase to 2
    assert np.all(np.diff(seq.l_j) > 0)
    assert seq.l_j[-1] < 2.0
    assert seq.l_j[-1] == pytest.approx(2.0, abs=1e-9)


def test_critical_partial_sums():
    seq = critical_run(CTXC, eps=0.05, jmax=40)
    assert np.all(np.diff(seq.s_j) > 0)
    assert seq.s_j[-1] == pytest.approx(seq.s_limit(), rel=1e-10)
    # direct summation oracle
    direct = sum(i / seq.p**i for i in range(1, 40))
    assert seq.s_j[-1] == pytest.approx(direct, rel=1e-14)


def test_critical_normalized_limits():
    seq = critical_run(CTXC, eps=0.05, jmax=40)
    p = seq.p
    assert seq.a_j[-1] / p ** seq.j_index[-1] == pytest.approx(
        p / (p - 1.0), rel=1e-6
    )
    assert seq.b_j[-1] / p ** seq.j_index[-1] == pytest.approx(1.0, rel=1e-6)


def test_critical_lower_bound_log_domain():
    seq = critical_run(CTXC, eps=0.3, jmax=40)
    assert critical_lower_bound_log(seq, math.log(1.7), 1) == -math.inf
    v = critical_lower_bound_log(seq, math.log(10.0), 1)
    assert math.isfinite(v)
    # larger t improves the bound at fixed j
    assert critical_lower_bound_log(seq, math.log(100.0), 1) > v


def test_critical_scope_error():
    with pytest.raises(DomainError):
        critical_run(ExponentContext(1.0, 2, 1.9), eps=0.1)


def _linear_scan_reference(seq, ceiling_log=30.0):
    """Reference search: 0.25 steps in w = log log t from t = 2.05, then 50
    bisections of the bracket (valid for crossings below w = 45)."""

    def best(log_t):
        return max(critical_lower_bound_log(seq, log_t, int(j)) for j in seq.j_index)

    w_lo = math.log(math.log(2.05))
    if best(math.exp(w_lo)) > ceiling_log:
        return math.exp(w_lo)
    lo = hi = w_lo
    while not best(math.exp(hi)) > ceiling_log:
        lo, hi = hi, hi + 0.25
        assert hi < 45.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if best(math.exp(mid)) > ceiling_log:
            hi = mid
        else:
            lo = mid
    return math.exp(hi)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.5, 1.0, 3.0, 10.0])
def test_critical_search_matches_linear_scan(eps):
    for jmax in (40, 60):
        seq = critical_run(CTXC, eps, jmax=jmax)
        assert critical_divergence_log_time(seq) == _linear_scan_reference(seq)


def test_critical_slope_down_to_tiny_eps():
    # eps = 1e-14 puts the crossing at w = log log T ~ 84: no upper cap on w
    eps = np.geomspace(0.1, 1e-14, 14)
    log_t = critical_threshold_curve(CTXC, eps)
    slope = np.polyfit(np.log(eps), np.log(log_t), 1)[0]
    assert slope == pytest.approx(-PC12 * (PC12 - 1.0), rel=1e-4)


def test_critical_slope_extraction():
    eps = 2.0 ** -np.arange(8, 17)
    log_t = critical_threshold_curve(CTXC, eps)
    slope = np.polyfit(np.log(eps), np.log(log_t), 1)[0]
    theory = -PC12 * (PC12 - 1.0)
    assert slope == pytest.approx(theory, rel=0.05)


def test_initiation_envelope():
    vals = initiation_envelope(np.array([1.5, 3.0, 10.0]), 0.2, 2.0, 0.5)
    assert vals[0] == 0.0
    assert np.all(np.diff(vals) > 0)
    with pytest.raises(DomainError):
        initiation_envelope(1.0, 0.2, 2.0, 0.5)
