import math

import numpy as np
import pytest
from scipy.integrate import quad

from tricomilab.errors import DomainError
from tricomilab.exponents import p_crit, q_choice
from tricomilab.specfun import varphi
from tricomilab.testfun import (
    Lemma22Grid,
    TestFnParams,
    _eta_q_full,
    _xi_q_full,
    bracket,
    eta_q,
    integrate_lambda_weighted,
    lemma22_report,
    xi_q,
)
from tricomilab.tricomi_ode import (
    OdeParams,
    fundamental_pair,
    kernel_phi1_scaled,
    kernel_phi2_ratio_scaled,
    phi1,
    phi2,
    phi_of_t,
)


def test_bracket():
    assert bracket(0.0) == 3.0
    assert bracket(-2.0) == 5.0


def test_params_validation():
    with pytest.raises(DomainError):
        TestFnParams(q=-1.0)
    with pytest.raises(DomainError):
        TestFnParams(q=0.0, lambda0=0.0)
    with pytest.raises(DomainError):
        TestFnParams(q=0.0, R=-1.0)


def test_closed_form_at_origin():
    # q=0, lam0=1, R=1, n=3: Phi1(0,0)=1 and vphi(0)=4pi give
    # 4 pi (1 - e^{-1}) for both test functions at x = t = s = 0
    p = TestFnParams(q=0.0, lambda0=1.0, R=1.0, n=3, m=1.0)
    expected = 4.0 * math.pi * (1.0 - math.exp(-1.0))
    val, err = _xi_q_full(0.0, 0.0, 0.0, p)
    assert val == pytest.approx(expected, rel=1e-10)
    assert err <= 1e-8 * abs(val) + 1e-12
    val2, _ = _eta_q_full(0.0, 0.0, 0.0, p)
    assert val2 == pytest.approx(expected, rel=1e-10)


def test_wave_reduction_direct_quadrature():
    # m=0, s=0: the xi kernel collapses to e^{-lam(t+R)} cosh(lam t)
    p = TestFnParams(q=0.3, lambda0=0.5, R=1.0, n=3, m=0.0)
    t, x = 2.0, 0.7

    def integrand(lam):
        return (
            math.exp(-lam * (t + 1.0))
            * math.cosh(lam * t)
            * varphi(3, lam * x)
            * lam**0.3
        )

    oracle, _ = quad(integrand, 0.0, 0.5, epsabs=1e-14, epsrel=1e-12)
    assert xi_q(x, t, 0.0, p) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("q", [0.4, -0.4])
def test_against_propagator_determinant_quadrature(q):
    # independent oracle for the graded Gauss rule: scipy's adaptive
    # quadrature of the unscaled scalar propagators at small scales
    p = TestFnParams(q=q, lambda0=0.5, R=1.0, n=2, m=1.0)
    t, s, x = 3.0, 1.2, 0.9

    def xi_integrand(lam):
        pr = OdeParams(1.0, lam)
        return (
            math.exp(-lam * (phi_of_t(1.0, t) + 1.0))
            * phi1(t, s, pr)
            * varphi(2, lam * x)
            * lam**q
        )

    def eta_integrand(lam):
        pr = OdeParams(1.0, lam)
        return (
            math.exp(-lam * (phi_of_t(1.0, t) + 1.0))
            * (phi2(t, s, pr) / (t - s))
            * varphi(2, lam * x)
            * lam**q
        )

    oracle_xi, _ = quad(xi_integrand, 0.0, 0.5, epsabs=1e-14, epsrel=1e-12)
    oracle_eta, _ = quad(eta_integrand, 0.0, 0.5, epsabs=1e-14, epsrel=1e-12)
    assert xi_q(x, t, s, p) == pytest.approx(oracle_xi, rel=1e-8)
    assert eta_q(x, t, s, p) == pytest.approx(oracle_eta, rel=1e-8)


def test_kernels_match_determinants_on_overlap():
    # I/K-product kernels vs 2x2 determinants of the fundamental pair where
    # the latter are well-conditioned
    lam = np.array([0.05, 0.2, 0.5])
    for m, t, s in ((1.0, 4.0, 1.5), (0.5, 3.0, 0.0), (2.0, 2.0, 1.0)):
        scale = np.exp(-lam * (phi_of_t(m, t) - phi_of_t(m, s)))
        k1 = kernel_phi1_scaled(t, s, lam, m)
        k2 = kernel_phi2_ratio_scaled(t, s, lam, m)
        for i, la in enumerate(lam):
            pr = OdeParams(m, float(la))
            at_t, at_s = fundamental_pair(pr, t), fundamental_pair(pr, s)
            det1 = at_t.v1 * at_s.dv2 - at_t.v2 * at_s.dv1
            det2 = at_s.v1 * at_t.v2 - at_s.v2 * at_t.v1
            assert k1[i] == pytest.approx(scale[i] * det1, rel=1e-10)
            assert k2[i] == pytest.approx(scale[i] * det2 / (t - s), rel=1e-10)


def test_positivity():
    p = TestFnParams(q=0.2, lambda0=0.5, R=1.0, n=3, m=1.0)
    for t, s, x in ((0.5, 0.0, 0.3), (5.0, 2.0, 1.0), (50.0, 10.0, 4.0)):
        assert xi_q(x, t, s, p) > 0
        assert eta_q(x, t, s, p) > 0
        assert eta_q(x, t, t, p) > 0


def test_diagonal_continuity():
    p = TestFnParams(q=0.4, lambda0=0.5, R=1.0, n=3, m=1.0)
    t = 3.0
    near = eta_q(0.5, t, t - 1e-5, p)
    diag = eta_q(0.5, t, t, p)
    assert abs(near - diag) <= 1e-6 * max(1.0, abs(diag))


def test_quadrature_tolerance_honesty():
    # halving the tolerance moves the result by less than the reported error
    p = TestFnParams(q=0.3, lambda0=0.5, R=1.0, n=3, m=1.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        t = rng.uniform(0.0, 30.0)
        s = rng.uniform(0.0, t) if rng.random() < 0.7 else t
        x = rng.uniform(0.0, phi_of_t(1.0, s) + 1.0)
        v1, e1 = _eta_q_full(x, t, s, p, rtol=1e-8)
        v2, _ = _eta_q_full(x, t, s, p, rtol=5e-9)
        assert abs(v2 - v1) <= max(np.max(e1), 1e-13 * abs(v1))


def test_integrate_lambda_weighted_polynomial():
    # exact on integrands with known antiderivatives, incl. singular weight
    val, err = integrate_lambda_weighted(lambda lam: lam**2, 0.5, 1.0)
    assert val == pytest.approx(1.0 / 3.5, rel=1e-12)
    val, _ = integrate_lambda_weighted(lambda lam: np.exp(-lam), -0.5, 2.0)
    oracle, _ = quad(lambda x: math.exp(-x) * x**-0.5, 0.0, 2.0, epsabs=1e-14)
    assert val == pytest.approx(oracle, rel=1e-10)
    with pytest.raises(DomainError):
        integrate_lambda_weighted(lambda lam: lam, -1.0, 1.0)


def test_near_divergent_weight_finite():
    # q close to -1: the substitution underflows lambda at the deepest
    # nodes; results must stay finite and match an independent quadrature
    p = TestFnParams(q=-0.95, lambda0=0.5, R=1.0, n=3, m=1.0)
    val = eta_q(0.5, 3.0, 1.0, p)

    def integrand(lam):
        pr = OdeParams(1.0, lam)
        return (
            math.exp(-lam * (phi_of_t(1.0, 3.0) + 1.0))
            * (phi2(3.0, 1.0, pr) / 2.0)
            * varphi(3, lam * 0.5)
            * lam**-0.95
        )

    oracle, _ = quad(integrand, 0.0, 0.5, epsabs=1e-14, epsrel=1e-11)
    assert math.isfinite(val)
    assert val == pytest.approx(oracle, rel=1e-8)


def test_lemma22_report_small_grid():
    q = q_choice(3, p_crit(1, 3))
    p = TestFnParams(q=q, lambda0=0.5, R=1.0, n=3, m=1.0)
    grid = Lemma22Grid(t_values=(0.0, 1.0, 10.0), s_fractions=(0.0, 0.5), x_fractions=(0.0, 0.9))
    rep = lemma22_report(p, grid)
    assert rep.constants["i-xi"] > 0
    assert rep.constants["i-eta"] > 0
    assert rep.constants["ii"] > 0
    assert math.isfinite(rep.constants["iii"])
    # part iii rows exclude t = 0 (hypothesis t > 0)
    assert all(r.t > 0 for r in rep.rows_for("iii"))
    assert rep.excluded > 0
    # ratios are value/envelope by construction
    row = rep.rows_for("i-xi")[0]
    assert row.ratio == pytest.approx(row.value / row.envelope, rel=1e-12)


def test_lemma22_degenerate_single_point():
    p = TestFnParams(q=0.5, lambda0=0.5, R=1.0, n=3, m=1.0)
    grid = Lemma22Grid(t_values=(0.0,), s_fractions=(0.0,), x_fractions=(0.0,))
    rep = lemma22_report(p, grid)
    parts = {r.part for r in rep.rows}
    assert parts == {"i-xi", "i-eta"}  # ii needs s<t, iii needs t>0
    assert all(math.isfinite(r.ratio) for r in rep.rows)


def test_grid_refinement_densifies():
    grid = Lemma22Grid.log_default(nt=5)
    fine = grid.refined()
    assert len(fine.t_values) == 2 * len(grid.t_values) - 1
    assert set(grid.t_values) <= set(fine.t_values)


def test_hypothesis_violations_raise_or_exclude():
    with pytest.raises(DomainError):
        xi_q(0.5, 1.0, 2.0, TestFnParams(q=0.0))  # s > t
    with pytest.raises(DomainError):
        eta_q(-0.5, 1.0, 0.0, TestFnParams(q=0.0))  # negative radius
