import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricomilab.errors import DomainError
from tricomilab.exponents import (
    ExponentContext,
    critical_identities,
    exp_or_inf,
    gamma_mnp,
    iteration_exponents,
    lifespan_prediction,
    p_crit,
    pow_or_inf,
    q_choice,
    strauss_exponent,
)


def test_gamma_wave_reduction_polynomial():
    # at m = 0 the quadratic must collapse to 2 + (n+1)p - (n-1)p^2
    for n in (1, 2, 3, 4):
        for p in (1.1, 1.7, 2.5, 3.2):
            expected = 2.0 + (n + 1.0) * p - (n - 1.0) * p * p
            assert gamma_mnp(ExponentContext(0.0, n, p)) == pytest.approx(
                expected, rel=1e-14
            )


def test_gamma_value_111_2():
    assert gamma_mnp(ExponentContext(1.0, 1, 2.0)) == pytest.approx(4.0, rel=1e-15)


def test_p_crit_known_roots():
    assert p_crit(0, 3) == pytest.approx(1.0 + math.sqrt(2.0), abs=1e-12)
    assert p_crit(1, 2) == pytest.approx((3.0 + math.sqrt(33.0)) / 4.0, abs=1e-12)


def test_p_crit_matches_strauss_at_m0():
    for n in (2, 3, 4):
        assert p_crit(0, n) == pytest.approx(strauss_exponent(n), abs=1e-12)


def test_p_crit_is_root():
    for m in (0.0, 0.5, 1.0, 2.0, 4.0):
        for n in (1, 2, 3, 4):
            if m == 0.0 and n == 1:
                continue
            pc = p_crit(m, n)
            assert abs(gamma_mnp(ExponentContext(m, n, pc))) <= 1e-12


def test_p_crit_degenerate_case():
    with pytest.raises(DomainError):
        p_crit(0, 1)  # quadratic degenerates; root is not > 1


def test_iteration_exponents_first_iterate():
    it = iteration_exponents(ExponentContext(1.0, 1, 2.0))
    assert it.mu == pytest.approx(0.5)
    assert it.a1 == pytest.approx(1.0)
    assert it.b1 == pytest.approx(2.5)


@settings(max_examples=100, deadline=None)
@given(
    m=st.floats(min_value=0.0, max_value=4.0),
    n=st.integers(min_value=1, max_value=4),
    p=st.floats(min_value=1.05, max_value=4.0),
)
def test_beta_minus_alpha_identity(m, n, p):
    ctx = ExponentContext(m, n, p)
    it = iteration_exponents(ctx)
    assert abs(it.beta_it - it.alpha_it - gamma_mnp(ctx) / (2.0 * (p - 1.0))) <= 1e-12


def test_gap_sign_tracks_criticality():
    for m in (0.0, 1.0, 2.0):
        for n in (2, 3):
            pc = p_crit(m, n)
            for p, expect_pos in ((0.7 * pc + 0.3, True), (pc + 0.5, False)):
                it = iteration_exponents(ExponentContext(m, n, p))
                assert (it.beta_it - it.alpha_it > 0) == expect_pos
    itc = iteration_exponents(ExponentContext(0.0, 3, strauss_exponent(3)))
    assert abs(itc.beta_it - itc.alpha_it) <= 1e-10


def test_critical_identities_vanish_at_root():
    for m, n in ((1.0, 2), (0.0, 3), (2.0, 3)):
        ctx = ExponentContext(m, n, p_crit(m, n))
        r1, r2 = critical_identities(ctx)
        assert abs(r1) <= 1e-10
        assert abs(r2) <= 1e-10


def test_second_identity_off_critical_closed_form():
    ctx = ExponentContext(1.0, 2, 1.9)
    _, r2 = critical_identities(ctx)
    assert r2 == pytest.approx(-gamma_mnp(ctx) / (2.0 * 1.9), abs=1e-14)
    # both residuals are -gamma/(2p) at every (m, n, p), the rule report checks
    for m, n, p in itertools.product((0.0, 0.5, 1.0, 3.0, 20.0), range(1, 8),
                                     (1.01, 1.5, 2.0, 3.7, 8.0)):
        ctx = ExponentContext(m, n, p)
        reference = -gamma_mnp(ctx) / (2.0 * p)
        assert critical_identities(ctx) == pytest.approx((reference, reference), abs=1e-12)


def test_exp_or_inf_cutoff():
    # the cutoff is the edge of the double range, ln DBL_MAX = 709.78...
    edge = math.log(sys.float_info.max)
    assert exp_or_inf(709.0) == math.exp(709.0) < math.inf
    assert exp_or_inf(edge) == math.exp(edge) < math.inf
    assert exp_or_inf(math.nextafter(edge, math.inf)) == math.inf
    assert exp_or_inf(-1e308) == 0.0 and exp_or_inf(math.inf) == math.inf
    assert exp_or_inf(math.nan) == math.inf


def test_pow_or_inf_overflow():
    assert pow_or_inf(2.0, 0.5) == 2.0**0.5
    assert pow_or_inf(10.0, 400.0) == math.inf
    assert pow_or_inf(1e-300, -2.0) == math.inf


def test_lifespan_prediction_laws():
    ctx = ExponentContext(1.0, 1, 2.0)  # gamma = 4, exponent -1
    assert lifespan_prediction(ctx, 0.5, 1.0) == pytest.approx(2.0, rel=1e-12)
    assert lifespan_prediction(ctx, 0.25, 3.0) == pytest.approx(12.0, rel=1e-12)
    ctxc = ExponentContext(1.0, 2, p_crit(1, 2))
    assert lifespan_prediction(ctxc, 1.0, 0.7) == pytest.approx(
        math.exp(0.7), rel=1e-12
    )
    with pytest.raises(DomainError):
        lifespan_prediction(ExponentContext(1.0, 2, 3.0), 0.5, 1.0)  # supercritical


def test_critical_lifespan_prediction_overflows_to_inf():
    # eps^{-p(p-1)} itself leaves the double range at eps = 1e-200
    ctxc = ExponentContext(1.0, 2, p_crit(1, 2))
    assert lifespan_prediction(ctxc, 1e-200, 1.0) == math.inf
    assert lifespan_prediction(ctxc, 1e-3, 1.0) == math.inf
    theta = ctxc.p * (ctxc.p - 1.0)
    assert lifespan_prediction(ctxc, 0.5, 1.0) == math.exp(0.5**-theta)


def test_lifespan_exponent_diverges_toward_root():
    ctx_far = ExponentContext(1.0, 2, 1.5)
    ctx_near = ExponentContext(1.0, 2, p_crit(1, 2) - 1e-4)
    assert lifespan_prediction(ctx_near, 0.5, 1.0) > lifespan_prediction(
        ctx_far, 0.5, 1.0
    )


def test_q_choice():
    assert q_choice(3, 2.0) == pytest.approx(0.5)
    assert q_choice(2, p_crit(1, 2)) == pytest.approx(0.5 - 1.0 / p_crit(1, 2))


def test_context_validation():
    with pytest.raises(DomainError):
        ExponentContext(-0.1, 2, 2.0)
    with pytest.raises(DomainError):
        ExponentContext(1.0, 0, 2.0)
    with pytest.raises(DomainError):
        ExponentContext(1.0, 2, 1.0)
