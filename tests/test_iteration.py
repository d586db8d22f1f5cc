import math

import numpy as np
import pytest

from tricomilab.errors import DomainError
from tricomilab.exponents import ExponentContext, gamma_mnp, p_crit
from tricomilab.iteration import (
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


def test_subcritical_slope_extraction():
    eps = 2.0 ** -np.arange(4, 15)
    log_t = subcritical_threshold_curve(CTX, eps)
    slope = np.polyfit(np.log(eps), log_t, 1)[0]
    theory = -2.0 * CTX.p * (CTX.p - 1.0) / gamma_mnp(CTX)
    assert slope == pytest.approx(theory, rel=0.05)


def test_subcritical_scope_errors():
    with pytest.raises(DomainError):
        subcritical_run(ExponentContext(1.0, 2, 3.0), d1=0.1)  # supercritical
    with pytest.raises(DomainError):
        subcritical_run(CTX, d1=0.0)
    with pytest.raises(DomainError):
        subcritical_run(CTX, d1=0.1, jmax=61)
    with pytest.raises(DomainError):
        j_function(0.5, subcritical_run(CTX, d1=0.1, t0=1.0, jmax=2))


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
