import math

import numpy as np
import pytest
from scipy.integrate import quad

from tricomilab import testfun, tricomi_ode
from tricomilab.errors import DomainError
from tricomilab.exponents import p_crit, q_choice
from tricomilab.pde_solver import ModelParams, RunConfig, initialize
from tricomilab.specfun import varphi, varphi_scaled
from tricomilab.testfun import (
    Lemma22Grid,
    Lemma22Row,
    TestFnParams,
    _exp_profile,
    _test_fn,
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
    # the graded rule of q = 72.9 has 1074 octaves, the most before its
    # panel edges underflow to 0; q = 73 would need 1076
    TestFnParams(q=72.9)
    for q in (73.0, 1e6, 1e300, math.inf):
        with pytest.raises(DomainError, match="octaves"):
            TestFnParams(q=q)


def test_closed_form_at_origin():
    # q=0, lam0=1, R=1, n=3: Phi1(0,0)=1 and vphi(0)=4pi give
    # 4 pi (1 - e^{-1}) for both test functions at x = t = s = 0
    p = TestFnParams(q=0.0, lambda0=1.0, R=1.0, n=3, m=1.0)
    expected = 4.0 * math.pi * (1.0 - math.exp(-1.0))
    val, err = _test_fn(kernel_phi1_scaled, 0.0, 0.0, 0.0, p, 1e-8)
    assert val == pytest.approx(expected, rel=1e-10)
    assert err <= 1e-8 * abs(val) + 1e-12
    val2, _ = _test_fn(None, 0.0, 0.0, 0.0, p, 1e-8)  # diagonal eta: kernel 1
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
        kernel = None if s == t else kernel_phi2_ratio_scaled  # as in eta_q
        v1, e1 = _test_fn(kernel, x, t, s, p, 1e-8)
        v2, _ = _test_fn(kernel, x, t, s, p, 5e-9)
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


# ---------------------------------------------------------------------------
# memoized varphi block of the exp profile
# ---------------------------------------------------------------------------


def _eta_diag_reference(xn, t, p):
    """Diagonal eta_q with the profile built from scratch on every call."""

    def g(lam):
        arg = lam[None, :] * (xn[:, None] - phi_of_t(p.m, t) - p.R)
        return np.exp(np.minimum(arg, 700.0)) * varphi_scaled(
            p.n, lam[None, :] * xn[:, None]
        )

    return integrate_lambda_weighted(g, p.q, p.lambda0)[0]


def test_memoized_profile_is_bit_identical(monkeypatch):
    # the grid and weight of an F-tracked n = 2 run (1,136 radii, q = 0)
    cfg = RunConfig(ModelParams(m=1.0, n=2, p=2.0, eps=1.0), t_max=10.0, track_f=True)
    xn = initialize(cfg).r
    p = cfg.default_testfn()
    assert xn.size == 1136 and p.q == 0.0
    misses = []

    def counted(n, r):
        misses.append(r.shape)
        return varphi_scaled(n, r)

    monkeypatch.setattr(testfun, "varphi_scaled", counted)
    testfun._VPHI_MEMO.clear()
    for t in (0.0, 3.7, 10.0):
        ref = _eta_diag_reference(xn, t, p)
        # t = 0 fills the memo, every later call hits it
        assert eta_q(xn, t, t, p).tobytes() == ref.tobytes()
        assert eta_q(xn, t, t, p).tobytes() == ref.tobytes()
        assert len(testfun._VPHI_MEMO) <= 4
    # one block per Gauss level visited, all built on the first call
    assert 2 <= len(misses) == len(testfun._VPHI_MEMO) <= 4

    # a caller that writes into a returned profile cannot reach the memo
    lam, _ = testfun._graded_rule(p.q, p.lambda0, 16)
    _exp_profile(lam, xn, 2.0, p)[:] = np.nan
    ref = _eta_diag_reference(xn, 2.0, p)
    assert eta_q(xn, 2.0, 2.0, p).tobytes() == ref.tobytes()
    assert all(not b.flags.writeable for b in testfun._VPHI_MEMO.values())


def test_memo_holds_at_most_four_blocks():
    memos = (testfun._VPHI_MEMO, testfun._RULE_MEMO, tricomi_ode._PAIR_MEMO)
    for memo in memos:
        memo.clear()
    for k in range(12):
        # new radii, weight and time on every pass: each memo misses
        p = TestFnParams(q=0.5 + k / 16, n=3, m=1.0)
        xn = np.linspace(0.0, 1.0 + k, 7)
        ref = _eta_diag_reference(xn, 1.5, p)
        assert eta_q(xn, 1.5, 1.5, p).tobytes() == ref.tobytes()
        eta_q(xn, 2.0 + k, 1.0, p)
        assert all(len(memo) <= 4 for memo in memos)
    assert all(len(memo) == 4 for memo in memos)

    # the entries are read-only, so no caller can write into a shared block
    assert all(not b.flags.writeable for b in testfun._VPHI_MEMO.values())
    lam, w = next(iter(testfun._RULE_MEMO.values()))
    i_t, k_t = next(iter(tricomi_ode._PAIR_MEMO.values()))
    for arr in (lam, w, i_t, k_t):
        with pytest.raises(ValueError):
            arr[0] = 1.0


# ---------------------------------------------------------------------------
# lemma22_report: shared time pair, reused s = 0 row, convergence count
# ---------------------------------------------------------------------------


def _lemma22_reference_rows(p, grid):
    """The rows of lemma22_report from one xi_q / eta_q call per (part, t, s)."""
    m, n, q = p.m, p.n, p.q
    xf = np.asarray(grid.x_fractions)
    rows = []
    for t in sorted(set(grid.t_values)):
        b_t = bracket(phi_of_t(m, t))
        xs = xf * p.R
        env_xi, env_eta = b_t ** (-m / (2.0 * (m + 2.0))), b_t ** (-(m + 4.0) / (2.0 * (m + 2.0)))
        for x, vx, ve in zip(xs, xi_q(xs, t, 0.0, p), eta_q(xs, t, 0.0, p)):
            rows.append(Lemma22Row("i-xi", t, 0.0, x, vx, env_xi, vx / env_xi))
            rows.append(Lemma22Row("i-eta", t, 0.0, x, ve, env_eta, ve / env_eta))
        for s in (frac * t for frac in grid.s_fractions if frac * t < t):
            phi_s = phi_of_t(m, s)
            env = bracket(t) ** (-1.0 - m / 4.0) * bracket(phi_s) ** (
                -q - 1.0 + (m + 4.0) / (2.0 * (m + 2.0))
            )
            xs2 = xf * (phi_s + p.R)
            for x, v in zip(xs2, eta_q(xs2, t, s, p)):
                rows.append(Lemma22Row("ii", t, s, x, v, env, v / env))
        if t > 0.0:
            phi_t = phi_of_t(m, t)
            xs3 = xf * (phi_t + p.R)
            for x, v in zip(xs3, eta_q(xs3, t, t, p)):
                env = b_t ** (-(n - 1.0) / 2.0) * bracket(phi_t - x) ** ((n - 3.0) / 2.0 - q)
                rows.append(Lemma22Row("iii", t, t, x, v, env, v / env))
    return rows


def test_lemma22_rows_match_reference_loop():
    q = q_choice(3, p_crit(1, 3))
    p = TestFnParams(q=q, lambda0=0.5, R=1.0, n=3, m=1.0)
    grid = Lemma22Grid(t_values=(0.0, 0.7, 40.0, 900.0), s_fractions=(0.0, 0.3, 0.7),
                       x_fractions=(0.0, 0.5, 0.95))
    rep = lemma22_report(p, grid)
    assert rep.excluded == 12 and rep.unconverged == 0  # t = 0: no part ii or iii
    assert list(rep.rows) == _lemma22_reference_rows(p, grid)


def test_time_pair_evaluated_once_per_time_and_level(monkeypatch):
    m, t = 1.0, 40.0
    p = TestFnParams(q=q_choice(3, p_crit(1, 3)), n=3, m=m)
    grid = Lemma22Grid(t_values=(t,), s_fractions=(0.0, 0.3, 0.7), x_fractions=(0.0, 0.5, 0.95))
    calls = []

    def counted(name, fn):
        def wrapper(order, x):
            calls.append((name, float(order), np.asarray(x).tobytes()))
            return fn(order, x)

        return wrapper

    monkeypatch.setattr(tricomi_ode, "ive", counted("ive", tricomi_ode.ive))
    monkeypatch.setattr(tricomi_ode, "kve", counted("kve", tricomi_ode.kve))
    tricomi_ode._PAIR_MEMO.clear()
    testfun._RULE_MEMO.clear()
    lemma22_report(p, grid)
    # the Gauss levels the quadratures reached are the rules built
    x_t = {
        (lam * phi_of_t(m, t)).tobytes()
        for lam, _ in (testfun._RULE_MEMO[key] for key in testfun._RULE_MEMO)
    }
    assert len(x_t) >= 2
    nu = 1.0 / (m + 2.0)
    for name in ("ive", "kve"):
        at_t = [(order, x) for fn, order, x in calls if fn == name and x in x_t]
        assert sorted(x for _, x in at_t) == sorted(x_t)  # once per level
        assert all(order == nu for order, _ in at_t)

    # the s = 0 kernels take I_{-nu} from the pair: no negative order
    lam = np.geomspace(1e-12, 3.0, 50)
    calls.clear()
    tricomi_ode._PAIR_MEMO.clear()
    kernel_phi1_scaled(t, 0.0, lam, m)
    kernel_phi2_ratio_scaled(t, 0.0, lam, m)
    assert sorted((fn, order) for fn, order, _ in calls) == [("ive", nu), ("kve", nu)]


def test_lemma22_counts_unconverged_points():
    p = TestFnParams(q=0.5, n=3, m=1.0)
    grid = Lemma22Grid(t_values=(0.0, 2.0), s_fractions=(0.0, 0.5), x_fractions=(0.0, 0.9))
    assert lemma22_report(p, grid).unconverged == 0
    # below double precision no doubling of the Gauss order can agree
    strict = lemma22_report(p, grid, rtol=1e-17)
    assert 0 < strict.unconverged <= len(strict.rows)
