import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
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
    for lam0 in (0.0, math.inf):
        with pytest.raises(DomainError):
            TestFnParams(q=0.0, lambda0=lam0)
    with pytest.raises(DomainError):
        TestFnParams(q=0.0, R=-1.0)
    # q = 5000 is the largest q the lambda-rule resolves, see
    # test_rule_resolves_the_largest_q
    TestFnParams(q=5000.0)
    for q in (np.nextafter(5000.0, math.inf), 1e6, 1e300, math.inf):
        with pytest.raises(DomainError, match="resolves"):
            TestFnParams(q=q)


def test_closed_form_at_origin():
    # q=0, lam0=1, R=1, n=3: Phi1(0,0)=1 and vphi(0)=4pi give
    # 4 pi (1 - e^{-1}) for both test functions at x = t = s = 0
    p = TestFnParams(q=0.0, lambda0=1.0, R=1.0, n=3, m=1.0)
    expected = 4.0 * math.pi * (1.0 - math.exp(-1.0))
    val, err = _test_fn(kernel_phi1_scaled, 0.0, 0.0, 0.0, p, 1e-8)
    assert val == pytest.approx(expected, rel=1e-10)
    assert err <= 1e-8 * abs(val) + 1e-12
    val2, _ = _test_fn(kernel_phi2_ratio_scaled, 0.0, 0.0, 0.0, p, 1e-8)
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


def test_diagonal_kernel_rows_keep_the_profile_bits():
    # both kernels are exactly 1 at s = t, so a diagonal row is the profile's
    # integral to the bit, as with a kernel of ones
    def unit(t, s, lam, m):
        return np.ones((np.size(s), lam.size))

    p = TestFnParams(q=0.4, lambda0=0.5, R=1.0, n=3, m=1.0)
    for t in (0.0, 3.0):
        val, err = _test_fn(unit, [0.0, 0.5], t, t, p)
        eta_quad = _test_fn(kernel_phi2_ratio_scaled, np.array([0.0, 0.5]), t, t, p)[0]
        assert val.tobytes() == eta_quad.tobytes()
        assert _test_fn(kernel_phi1_scaled, 0.5, t, t, p)[0] == val[1]
        assert xi_q(0.5, t, t, p) == eta_q(0.5, t, t, p)


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
        v1, e1 = _test_fn(kernel_phi2_ratio_scaled, x, t, s, p, 1e-8)
        v2, _ = _test_fn(kernel_phi2_ratio_scaled, x, t, s, p, 5e-9)
        assert abs(v2 - v1) <= max(np.max(e1), 1e-13 * abs(v1))


def test_integrate_lambda_weighted_polynomial():
    # exact on integrands with known antiderivatives, incl. singular weight
    val, err = integrate_lambda_weighted(lambda lam: lam**2, 0.5, 1.0, 1.0)
    assert val == pytest.approx(1.0 / 3.5, rel=1e-12)
    val, _ = integrate_lambda_weighted(lambda lam: np.exp(-lam), -0.5, 2.0, 1.0)
    oracle, _ = quad(lambda x: math.exp(-x) * x**-0.5, 0.0, 2.0, epsabs=1e-14)
    assert val == pytest.approx(oracle, rel=1e-10)
    with pytest.raises(DomainError):
        integrate_lambda_weighted(lambda lam: lam, -1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        integrate_lambda_weighted(lambda lam: lam, 0.0, 1.0, math.inf)


@pytest.mark.parametrize("q", [-0.95, -0.5, 0.0, 1.3])
def test_end_panel_is_exact_on_polynomials(q):
    # with k = 0 the rule is the one Gauss-Jacobi panel of lam^q on [0, lam0]:
    # 8 points integrate lam^{q+j} exactly for j <= 15 (q = 0 takes the
    # limit 0 of the Jacobi matrix's first entry q^2/(q(q+2)))
    lam0 = 0.7
    lam, w = testfun._graded_rule(q, lam0, 8, 0)
    assert lam.size == 8 and np.all((lam > 0) & (lam < lam0))
    for j in range(16):
        exact = lam0 ** (q + j + 1.0) / (q + j + 1.0)
        assert abs(np.sum(w * lam**j) - exact) <= 1e-14 * exact, j


def test_dyadic_panels_follow_the_scale():
    # k dyadic panels down to lam0 2^-k <= 2/scale, the end panel below
    assert [testfun._dyadic_panels(0.5, a) for a in (0.1, 4.0, 4.01, 8.0, 1e4)] == [0, 0, 1, 1, 12]
    lam, w = testfun._graded_rule(0.3, 0.5, 16, 3)
    assert lam.size == w.size == 4 * 16
    assert np.all(lam[-16:] < 0.5 / 8) and np.all(lam[:-16] > 0.5 / 8)


def test_rule_resolves_the_largest_q():
    # at TestFnParams' bound q = 5000 the 128-point level still matches
    # mpmath on int_0^1 lam^q e^{-c lam} to 1e-10 (measured: 6e-11; 1e-7 at
    # q = 7000), with the dyadic panels (|c| > 2) and without them
    q = 5000.0
    for c in (-10.0, 0.0, 1.0, 10.0, 100.0, 1e4):
        lam, w = testfun._graded_rule(q, 1.0, 128, testfun._dyadic_panels(1.0, max(1.0, abs(c))))
        with mpmath.workdps(40):
            # the lower incomplete gamma function where the series of M is slow
            ref = float(mpmath.gammainc(q + 1, 0, c) / mpmath.mpf(c) ** (q + 1) if c > 0
                        else _kummer_integral(q, 1.0, -c))
        assert abs(np.exp(-c * lam) @ w - ref) <= 1e-10 * ref, c


def test_near_divergent_weight_finite():
    # q close to -1: the end panel's Gauss-Jacobi weights carry lambda^q,
    # nearly singular at 0; results must stay finite and match an
    # independent quadrature
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
# the exp profile of the quadrature
# ---------------------------------------------------------------------------


def _eta_diag_reference(xn, t, p):
    """Diagonal eta_q with the profile built from scratch on every call."""

    def g(lam):
        arg = lam[None, :] * (xn[:, None] - phi_of_t(p.m, t) - p.R)
        return np.exp(np.minimum(arg, 700.0)) * varphi_scaled(
            p.n, lam[None, :] * xn[:, None]
        )

    return integrate_lambda_weighted(g, p.q, p.lambda0, phi_of_t(p.m, t) + p.R)[0]


def _eta_diag_quad(xn, t, p):
    """Diagonal eta_q by the lambda-quadrature, through the memoized profile."""
    return _test_fn(kernel_phi2_ratio_scaled, xn, t, t, p)[0]


def test_profile_is_bit_identical(monkeypatch):
    # the grid and weight of an F-tracked n = 2 run (1,136 radii, q = 0)
    cfg = RunConfig(ModelParams(m=1.0, n=2, p=2.0, eps=1.0), t_max=10.0, track_f=True)
    xn = initialize(cfg).r
    p = cfg.default_testfn()
    assert xn.size == 1136 and p.q == 0.0
    blocks = []

    def counted(n, r):
        blocks.append(r.shape)
        return varphi_scaled(n, r)

    monkeypatch.setattr(testfun, "varphi_scaled", counted)
    for t in (0.0, 3.7, 10.0):
        ref = _eta_diag_reference(xn, t, p)
        blocks.clear()
        assert _eta_diag_quad(xn, t, p).tobytes() == ref.tobytes()
        # one varphi block over all radii (one row, for the one time s) per
        # Gauss level visited, each level on the k + 1 panels of this t
        panels = testfun._dyadic_panels(p.lambda0, phi_of_t(p.m, t) + p.R) + 1
        ladder = [(1, xn.size, level * panels) for level in (8, 16, 32, 64, 128)]
        assert len(blocks) >= 2 and blocks == ladder[:len(blocks)], t


def test_memo_holds_at_most_four_blocks():
    caches = (testfun._panels, testfun._graded_rule, tricomi_ode._time_block_of)
    for cache in caches:
        cache.cache_clear()
    for k in range(12):
        # new radii, weight and time on every pass: each cache misses
        p = TestFnParams(q=0.5 + k / 16, n=3, m=1.0)
        xn = np.linspace(0.0, 1.0 + k, 7)
        ref = _eta_diag_reference(xn, 1.5, p)
        assert _eta_diag_quad(xn, 1.5, p).tobytes() == ref.tobytes()
        eta_q(xn, 2.0 + k, 1.0, p)
        assert all(cache.cache_info().currsize <= 4 for cache in caches)
    assert all(cache.cache_info()[2:] == (4, 4) for cache in caches)  # maxsize, currsize

    # the entries are read-only, so no caller can write into a shared block;
    # a second call returns the cached arrays themselves
    panels = testfun._panels(0.5, 8)
    lam, w = testfun._graded_rule(0.5, 0.5, 8, 0)
    block = tricomi_ode._time_block(2.0, lam, 1.0)
    assert len(panels) == 4 and len(block) == 3
    assert testfun._panels(0.5, 8)[0] is panels[0]
    assert testfun._graded_rule(0.5, 0.5, 8, 0)[0] is lam
    assert tricomi_ode._time_block(2.0, lam, 1.0)[0] is block[0]
    for arr in (*panels, lam, w, *block):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_far_radius_still_clips():
    # the clip of the exponent lam(|x| - phi(s) - R) at 700 acts where it
    # must, and where it cannot act the profile is the unclipped one
    p = TestFnParams(q=0.0, n=3, m=1.0)
    lam, _ = testfun._graded_rule(p.q, p.lambda0, 16, 0)
    for xn, clips in ((np.array([0.0, 3.0, 5000.0]), True), (np.array([0.0, 3.0]), False)):
        arg = lam[None, :] * (xn[:, None] - phi_of_t(p.m, 1.0) - p.R)
        assert np.any(arg > 700.0) == clips
        block = varphi_scaled(p.n, lam[None, :] * xn[:, None])
        ref = np.exp(np.minimum(arg, 700.0)) * block
        got = _exp_profile(lam, xn, phi_of_t(p.m, 1.0), p)
        assert got.tobytes() == ref.tobytes() and np.all(np.isfinite(got))


# ---------------------------------------------------------------------------
# row-wise lambda-quadrature: per-radius values and stopping
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_values_do_not_depend_on_grouping(n):
    # a radius gets the same bits alone, among 400 radii, or in a reversed subset
    p = TestFnParams(q=0.3, n=n, m=1.0)
    t = 5.0
    for fn, s in ((eta_q, t), (eta_q, 2.0), (xi_q, 2.0)):
        xs = np.linspace(0.0, phi_of_t(p.m, s) + p.R, 400)
        batch = fn(xs, t, s, p)
        single = np.array([fn(x, t, s, p) for x in xs])
        assert batch.tobytes() == single.tobytes(), (fn.__name__, s)
        subset = xs[::-7]
        assert fn(subset, t, s, p).tobytes() == batch[::-7].tobytes(), (fn.__name__, s)


def _level_sum(g, q, lam0, scale, level):
    """One Gauss level's row-wise sums, as integrate_lambda_weighted forms them."""
    lam, w = testfun._graded_rule(q, lam0, level, testfun._dyadic_panels(lam0, scale))
    return np.einsum("...l,l->...", g(lam), w)


def test_each_row_stops_at_its_own_level():
    # row 0 meets rtol at level 16, cos(80 lam) only at level 64
    q, lam0, scale = 0.0, 1.0, 80.0

    def g_both(lam):
        return np.stack((np.exp(-lam), np.cos(80.0 * lam)))

    at = {level: _level_sum(g_both, q, lam0, scale, level) for level in (8, 16, 32, 64)}
    assert at[16][0] != at[64][0]  # so keeping level 16 is visible
    assert abs(at[32][1] - at[16][1]) > 1e-8 * abs(at[32][1])
    val, err = integrate_lambda_weighted(g_both, q, lam0, scale)
    alone, alone_err = integrate_lambda_weighted(lambda lam: g_both(lam)[:1], q, lam0, scale)
    assert val[0] == alone[0] == at[16][0] and err[0] == alone_err[0] == abs(at[16][0] - at[8][0])
    assert val[1] == at[64][1] and err[1] == abs(at[64][1] - at[32][1])


def _whole_array_reference(g, q, lam0, scale, rtol=1e-8):
    """The quadrature with one (X, L) @ w product per level, every row
    refined until all rows meet rtol."""
    value = None
    for level in (8, 16, 32, 64, 128):
        lam, w = testfun._graded_rule(q, lam0, level, testfun._dyadic_panels(lam0, scale))
        new = g(lam) @ w
        if value is not None:
            err = np.abs(new - value)
            if np.all(err <= rtol * np.abs(new)):
                return new
        value = new
    return value


def _max_rel_to_reference(kernel, xn, t, s, p, reference):
    def g(lam):
        return _exp_profile(lam, xn, phi_of_t(p.m, s), p) * kernel(t, s, lam, p.m)

    ref = reference(g, p.q, p.lambda0, phi_of_t(p.m, t) + p.R)
    return np.max(np.abs(_test_fn(kernel, xn, t, s, p)[0] - ref) / np.abs(ref))


def _quadrature_cases():
    """(kernel, radii, t, s, params): the quadrature's diagonal on the grid of
    an F-tracked n = 2 run (1,136 radii, q = 0), then 7 radii of testfun
    envelope rows, both kernels."""
    cfg = RunConfig(ModelParams(m=1.0, n=2, p=2.0, eps=1.0), t_max=10.0, track_f=True)
    xn = initialize(cfg).r
    p = cfg.default_testfn()
    for t in (0.0, 0.625, 3.7, 10.0):
        yield kernel_phi2_ratio_scaled, xn, t, t, p
    for m, n in ((1.0, 2), (1.0, 3), (0.0, 3)):
        p = TestFnParams(q=q_choice(n, p_crit(m, n)), n=n, m=m)
        for t in (5.0, 900.0):
            s = 0.3 * t
            xs = np.linspace(0.0, 0.95, 7) * (phi_of_t(m, s) + p.R)
            for kernel in (kernel_phi1_scaled, kernel_phi2_ratio_scaled):
                yield kernel, xs, t, s, p


def test_row_sum_matches_matrix_product():
    for case in _quadrature_cases():
        assert _max_rel_to_reference(*case, _whole_array_reference) <= 1e-14


@pytest.mark.parametrize("q, n, s, ref", [
    (0.3, 3, 2.0, 295.8791386492094), (-0.5, 3, 2.0, 580.8560480979602),
    (0.3, 4, 5.0, 91.4962662452196),
])
def test_out_of_cone_radius_keeps_its_value(q, n, s, ref):
    # |x| = 3(phi(t) + R) lies past the scale phi(t) + R the rule is built
    # for; eta_q there stays within 1e-11 of the value of the former rule,
    # 54 or more fixed dyadic octaves down to 0 (measured: 1.3e-15)
    p = TestFnParams(q=q, n=n, m=1.0)
    t = 5.0
    assert abs(eta_q(3.0 * (phi_of_t(p.m, t) + p.R), t, s, p) - ref) <= 1e-11 * ref


def _kummer_integral(q, lam0, c):
    """int_0^{lam0} e^{c lam} lam^q dlam = lam0^{q+1}/(q+1) M(q+1, q+2; c lam0), in mpmath."""
    q, lam0 = mpmath.mpf(q), mpmath.mpf(lam0)
    return lam0 ** (q + 1) / (q + 1) * mpmath.hyp1f1(q + 1, q + 2, c * lam0)


@seed(19)
@settings(max_examples=60, deadline=None)
@given(
    q=st.floats(-0.9, 2.0, exclude_min=True),
    lam0=st.floats(0.05, 5.0),
    cs=st.lists(st.floats(-10.0, 1000.0), min_size=1, max_size=4),
)
def test_error_estimate_bounds_the_true_error(q, lam0, cs):
    # g = e^{-c lam}, one c per row: each row's estimate covers its true error
    c = np.array(cs)
    scale = max(1.0, np.max(np.abs(c)))  # the rule's contract: the integrand's scale
    val, err = integrate_lambda_weighted(lambda lam: np.exp(-c[:, None] * lam[None, :]), q, lam0,
                                         scale)
    with mpmath.workdps(40):
        exact = [float(_kummer_integral(q, lam0, -ck)) for ck in cs]
    for v, e, x in zip(val, err, exact):
        assert abs(v - x) <= max(e, 1e-13 * abs(x)), (v, e, x)


@pytest.mark.parametrize("n, q", [(1, -0.5), (1, 0.7), (3, 0.5), (3, 1.5)])
def test_diagonal_eta_matches_its_kummer_closed_form(n, q):
    # on the diagonal the kernel is 1 and varphi is elementary for odd n, so
    # with a = phi(t) + R the integral is a sum of Kummer integrals:
    #   n = 1: sum_{+-} int e^{lam(+-x - a)} lam^q
    #   n = 3: (2 pi / x) int (e^{lam(x - a)} - e^{-lam(x + a)}) lam^{q-1}, q > 0
    # (4 pi int e^{-lam a} lam^q at x = 0); measured error 1.7e-15
    p = TestFnParams(q=q, n=n, m=1.0)
    for t in (0.5, 10.0, 1000.0):
        xs = np.array([0.0, 1e-3, 0.5, 1.0]) * (phi_of_t(p.m, t) + p.R)
        with mpmath.workdps(40):
            a = mpmath.mpf(phi_of_t(p.m, t)) + p.R
            ref = []
            for x in map(mpmath.mpf, xs):
                if n == 1:
                    ref.append(sum(_kummer_integral(q, p.lambda0, sg * x - a) for sg in (1, -1)))
                elif x == 0:
                    ref.append(4 * mpmath.pi * _kummer_integral(q, p.lambda0, -a))
                else:
                    ref.append(2 * mpmath.pi / x * (_kummer_integral(q - 1, p.lambda0, x - a)
                                                    - _kummer_integral(q - 1, p.lambda0, -(x + a))))
            ref = np.array([float(r) for r in ref])
        assert np.max(np.abs(eta_q(xs, t, t, p) - ref) / ref) <= 1e-12, t


# ---------------------------------------------------------------------------
# the diagonal as a sphere average of the Kummer kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, q, rtol", [
    (1, -0.5, 1e-13), (1, 0.3, 1e-13),
    (2, 0.0, 1e-13), (2, q_choice(2, 1.8), 1e-13), (2, 0.3, 1e-13),
    (3, q_choice(3, 1.6), 1e-12), (3, q_choice(3, p_crit(1, 3)), 1e-12), (3, 1.5, 1e-12),
])
def test_sphere_average_matches_the_quadrature(n, q, rtol):
    # eta_q(x, t, t) against the lambda-quadrature of the same integral, on
    # the dx = 0.02 grid of an F-tracked run out past the cone a = phi(t) + R
    # (measured: 2.3e-15 at n = 1, 4.2e-15 at n = 2, 1.3e-14 at n = 3, where
    # the closed difference past the series cut loses a few digits)
    p = TestFnParams(q=q, n=n, m=1.0)
    for t in (0.0, 1.0, 5.0, 10.0, 100.0):
        if t == 100.0 and n != 2:
            continue
        xs = np.arange(0.0, phi_of_t(p.m, t) + p.R + 3.0, 0.02)
        assert xs[0] == 0.0 and xs[1] == 0.02
        if t == 100.0:
            xs = xs[::40]  # 839 radii out to 671
        ref = _test_fn(kernel_phi2_ratio_scaled, xs, t, t, p)[0]
        got = eta_q(xs, t, t, p)
        assert np.max(np.abs(got - ref) / ref) <= rtol, t
        assert xi_q(xs, t, t, p).tobytes() == got.tobytes()


def _sphere_average_n2(q, lam0, x, a):
    """2 int_0^pi K(x cos th - a) dth, K the Kummer integral of lam^q, in mpmath."""
    with mpmath.workdps(30):
        q, lam0, x, a = map(mpmath.mpf, (q, lam0, x, a))

        def k(th):
            return lam0 ** (q + 1) / (q + 1) * mpmath.hyp1f1(q + 1, q + 2, lam0 * (x * mpmath.cos(th) - a))

        return float(2 * mpmath.quad(k, [0, mpmath.pi / 2, mpmath.pi]))


@pytest.mark.parametrize("q, t, x", [
    (0.0, 10.0, 0.0), (0.0, 10.0, 12.3), (0.0, 10.0, 22.0), (-0.056, 3.0, 4.1),
    (0.3, 100.0, 300.0), (0.3, 100.0, 668.0),
])
def test_n2_sphere_average_matches_mpmath(q, t, x):
    # the midpoint rule with 4 sqrt(lam0 x) + 16 angles, rounded up to 16 2^k
    # (16 to 128 angles here), against mpmath's quadrature; measured 2.2e-15
    p = TestFnParams(q=q, n=2, m=1.0)
    ref = _sphere_average_n2(q, p.lambda0, x, phi_of_t(p.m, t) + p.R)
    assert abs(eta_q(x, t, t, p) - ref) <= 1e-14 * ref


def test_n2_angle_count_depends_on_the_radius_alone():
    # 16 angles up to lam0 x = 16, then doubling: each count >= 4 sqrt(lam0 x) + 16
    z = np.array([0.0, 16.0, 16.0001, 144.0, 144.01, 3.3e2, 1e6])
    counts = testfun._angles(z)
    assert counts.tolist() == [16, 32, 64, 64, 128, 128, 4096]
    assert np.all(counts >= 4.0 * np.sqrt(z) + 16.0) and np.all(counts[1:] < 2 * (4.0 * np.sqrt(z[1:]) + 16.0))
    with pytest.raises(DomainError, match="angles"):
        eta_q(1e12, 1.0, 1.0, TestFnParams(q=0.0, n=2))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_average_is_inf_only_past_the_double_range(n):
    # ~e^{lam0 (x - a)} far outside the cone: finite at x = 1000, inf from
    # x = 1500 (lam0 (x - a) ~ 749), with no numpy warning
    p = TestFnParams(q=0.4, n=n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals = eta_q(np.array([0.0, 1000.0, 1500.0, 5000.0]), 1.0, 1.0, p)
    assert np.all(np.isfinite(vals[:2])) and np.all(vals[:2] > 0) and np.all(vals[2:] == np.inf)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_average_refuses_an_underflowed_power_times_an_inf_kernel(n):
    # lambda0^{q+1} = 0.5^4001 underflows to 0: at x = 1000 the kernel
    # M(q+1, q+2; lam0 (x - a)) is finite and so is the value (0, as the
    # true one underflows); at x = 1500 (lam0 (x - a) ~ 749) it is inf, and
    # the product would be 0 * inf: a domain error, with no numpy warning
    p = TestFnParams(q=4000.0, n=n, lambda0=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eta_q(1000.0, 2.0, 2.0, p) == 0.0
        with pytest.raises(DomainError, match="below and .* above the double range"):
            eta_q(1500.0, 2.0, 2.0, p)


def test_n3_small_radius_series():
    # below max(1/lam0, a/(10 sqrt C)) the n = 3 diagonal is the series of the
    # odd part of L, whose terms are all positive: at x = 0 it is 4 pi K(-a)
    # itself, and at x = dx = 0.02 it stays within 1e-14 of mpmath where the
    # closed difference (2 pi/(q x))[lam0^q (e^{lam0(x-a)} - e^{-lam0(x+a)})
    # - (x-a) K(x-a) - (x+a) K(-x-a)] loses 1.6e-10 at t = 1000
    q = q_choice(3, 1.6)
    p = TestFnParams(q=q, n=3, m=1.0)
    lam0 = p.lambda0
    cut = {}
    for t in (0.0, 10.0, 100.0, 1000.0):
        a = phi_of_t(p.m, t) + p.R
        cut[t] = max(1.0 / lam0, a / 10.0)  # C = 1 for q <= 1
        k_a = testfun._kummer_integral(q + 1.0, lam0, -a)
        assert eta_q(0.0, t, t, p) == 4.0 * math.pi * k_a
        xs = np.array([0.02, 0.5 * cut[t], cut[t], np.nextafter(cut[t], np.inf), 2.0 * cut[t]])
        with mpmath.workdps(40):
            ma = mpmath.mpf(a)
            ref = np.array([float(2 * mpmath.pi / mpmath.mpf(x)
                                  * (_kummer_integral(q - 1, lam0, x - ma)
                                     - _kummer_integral(q - 1, lam0, -(x + ma)))) for x in xs])
        assert np.max(np.abs(eta_q(xs, t, t, p) - ref) / ref) <= 1e-14, t
        if t == 1000.0:
            x = xs[0]
            k_in, k_out = (testfun._kummer_integral(q + 1.0, lam0, w) for w in (x - a, -x - a))
            ends = lam0**q * (math.exp(lam0 * (x - a)) - math.exp(-lam0 * (x + a)))
            closed = 2.0 * math.pi / (q * x) * (ends - (x - a) * k_in - (x + a) * k_out)
            assert abs(closed - ref[0]) > 1e-11 * ref[0]


def _ladder_from_16(g, q, lam0, scale, rtol=1e-8):
    """The quadrature with the Gauss ladder (16, 32, 64, 128): the rule's
    first test compares 32 with 16 points per panel."""
    value = None
    err = np.inf
    done = False
    for level in (16, 32, 64, 128):
        new = _level_sum(g, q, lam0, scale, level)
        if value is not None:
            err = np.where(done, err, np.abs(new - value))
            new = np.where(done, value, new)
            done = err <= rtol * np.maximum(np.abs(new), 1e-300)
        value = new
        if np.all(done):
            break
    return value, err


def test_values_stay_within_1e_14_of_the_ladder_from_16():
    # where 16 points meet rtol against 8, the value is Q16; the ladder from
    # 16 kept Q32 there.  On these rows they differ by at most 3.8e-15, far
    # below the 12 digits the CLI prints
    for case in _quadrature_cases():
        rel = _max_rel_to_reference(*case, lambda g, q, lam0, scale: _ladder_from_16(g, q, lam0, scale)[0])
        assert rel <= 1e-14


@pytest.mark.parametrize("q", [-0.5, 0.0, 1.3])
def test_rows_that_miss_at_16_follow_the_ladder_from_16(q):
    # rows 1-3 miss rtol at 16 points per panel; row 0 meets it there and
    # keeps the 16-point value, beside rows that go on
    def g(lam):
        return np.stack((np.exp(-lam), np.cos(40.0 * lam), np.cos(80.0 * lam),
                         np.cos(200.0 * lam)))

    at = {level: _level_sum(g, q, 1.0, 200.0, level) for level in (8, 16)}
    assert np.all(np.abs(at[16] - at[8])[1:] > 1e-8 * np.abs(at[16][1:]))
    val, err = integrate_lambda_weighted(g, q, 1.0, 200.0)
    ref, ref_err = _ladder_from_16(g, q, 1.0, 200.0)
    assert val[1:].tobytes() == ref[1:].tobytes() and err[1:].tobytes() == ref_err[1:].tobytes()
    assert val[0] == at[16][0] and err[0] == abs(at[16][0] - at[8][0])


# ---------------------------------------------------------------------------
# lemma22_report: shared time block, reused s = 0 row, convergence count
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


# n = 4 is off the sphere average: its part iii diagonal joins eta_q's quadrature
@pytest.mark.parametrize("m, n", [(1.0, 2), (1.0, 3), (0.0, 3), (1.0, 4)])
def test_lemma22_rows_match_reference_loop(m, n):
    p = TestFnParams(q=q_choice(n, p_crit(m, n)), lambda0=0.5, R=1.0, n=n, m=m)
    # s = (1 - 1e-7) t is within _RATIO_SWITCH of t (the (t-s)-series); at
    # t = 2e-6 some lambda-nodes have x_s below _SMALL_X while t - s is not
    fracs = (0.0, 0.3, 0.7, 1.0 - 1e-7)
    grid = Lemma22Grid(t_values=(0.0, 2e-6, 0.7, 40.0, 900.0), s_fractions=fracs,
                       x_fractions=(0.0, 0.5, 0.95))
    t, s = 2e-6, 0.3 * 2e-6
    lam = testfun._graded_rule(p.q, p.lambda0, 16, 0)[0]  # every quadrature reaches 16
    assert t - s >= tricomi_ode._RATIO_SWITCH and t - fracs[-1] * t < tricomi_ode._RATIO_SWITCH
    assert np.any(lam * phi_of_t(m, s) < tricomi_ode._SMALL_X)
    rep = lemma22_report(p, grid)
    # t = 0: no part ii or iii
    assert rep.excluded == 3 * (len(fracs) + 1) and rep.unconverged == 0
    assert list(rep.rows) == _lemma22_reference_rows(p, grid)


@pytest.mark.parametrize("m, n", [(1.0, 2), (1.0, 3), (0.0, 3)])
def test_lemma22_diagonal_is_one_sphere_average(monkeypatch, m, n):
    # part iii of every t > 0 is one sphere average: at n = 3 one kernel call
    # for the series coefficients of every t and one for the ends of every
    # radius, at n = 2 one per batch of at most _BATCH values, filled
    # greedily (two neighbours pass _BATCH); part i at t = 0 (s = t = 0)
    # adds one call each for xi_q and eta_q
    p = TestFnParams(q=q_choice(n, p_crit(m, n)), n=n, m=m)
    grid = Lemma22Grid.log_default(t_max=1000.0, nt=24, ns=7, nx=7)
    calls = []
    kernel = testfun.kummer_m_gap1

    def counted(b, z):
        calls.append(np.size(z))
        return kernel(b, z)

    monkeypatch.setattr(testfun, "kummer_m_gap1", counted)
    rep = lemma22_report(p, grid)
    diagonal = calls[:-2]  # the two t = 0 calls come last
    assert max(calls) <= testfun._BATCH and len(rep.rows_for("iii")) == 24 * 7
    assert len(diagonal) == 2 if n == 3 else len(diagonal) <= 2 * -(-sum(diagonal) // testfun._BATCH)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_average_of_many_times_matches_one_call_per_time(n):
    # radii at different times in one call get the bits of one call per time
    p = TestFnParams(q=0.3, n=n, m=1.0)
    ts = np.array([0.5, 2.0, 40.0, 900.0])
    xs = [np.linspace(0.0, phi_of_t(p.m, t) + p.R, 9) for t in ts]
    batch = testfun._sphere_average(np.concatenate(xs), np.repeat(ts, 9), p)
    single = np.concatenate([testfun._sphere_average(x, float(t), p) for x, t in zip(xs, ts)])
    assert batch.tobytes() == single.tobytes()


@pytest.mark.parametrize("n", [3, 4])
def test_lemma22_takes_at_most_two_quadratures_per_time(monkeypatch, n):
    # xi_q at s = 0, and eta_q over every s of part i and ii (and, off the
    # sphere average at n = 4, part iii's diagonal): one lambda-quadrature each
    m = 1.0
    p = TestFnParams(q=q_choice(n, p_crit(m, n)), n=n, m=m)
    assert p.q > (n - 3.0) / 2.0  # part iii is measured
    grid = Lemma22Grid.log_default(t_max=500.0, nt=5, ns=7, nx=7)
    scales = []
    quad = testfun.integrate_lambda_weighted

    def counted(g, q, lam0, scale, rtol):
        scales.append(scale)
        return quad(g, q, lam0, scale=scale, rtol=rtol)

    monkeypatch.setattr(testfun, "integrate_lambda_weighted", counted)
    lemma22_report(p, grid)
    for t in grid.t_values:
        calls = scales.count(phi_of_t(m, t) + p.R)
        assert calls == (2 if t > 0.0 or not testfun._on_sphere(p) else 0), (t, calls)


def test_reference_panels_built_once_per_weight_and_level(monkeypatch):
    # the lambda-rule of every (t, level) maps the same Gauss-Legendre and
    # Gauss-Jacobi panels: a report builds each (q, level) pair once
    p = TestFnParams(q=q_choice(3, p_crit(1, 3)), n=3, m=1.0)
    grid = Lemma22Grid.log_default(t_max=1e3, nt=6, ns=3, nx=3)
    legendre, eigh = [], []
    leggauss, eigh_of = np.polynomial.legendre.leggauss, np.linalg.eigh

    def counted_leggauss(level):
        legendre.append(level)
        return leggauss(level)

    def counted_eigh(matrix):
        eigh.append(len(matrix))
        return eigh_of(matrix)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted_leggauss)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    testfun._panels.cache_clear()
    testfun._graded_rule.cache_clear()
    lemma22_report(p, grid)
    # the times take several depths k, so the rule is built more than once per level
    assert testfun._graded_rule.cache_info().misses > len(set(legendre)) >= 2
    assert sorted(legendre) == sorted(set(legendre)) == sorted(eigh)


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

    rules = set()
    rule = testfun._graded_rule

    def recorded(*key):
        rules.add(key)
        return rule(*key)

    monkeypatch.setattr(tricomi_ode, "ive", counted("ive", tricomi_ode.ive))
    monkeypatch.setattr(tricomi_ode, "kve", counted("kve", tricomi_ode.kve))
    monkeypatch.setattr(testfun, "_graded_rule", recorded)
    tricomi_ode._time_block_of.cache_clear()
    lemma22_report(p, grid)
    # the Gauss levels the quadratures reached are the rules asked for
    x_t = {(rule(*key)[0] * phi_of_t(m, t)).tobytes() for key in rules}
    assert len(x_t) >= 2
    nu = 1.0 / (m + 2.0)
    for name in ("ive", "kve"):
        at_t = [(order, x) for fn, order, x in calls if fn == name and x in x_t]
        assert sorted(x for _, x in at_t) == sorted(x_t)  # once per level
        assert all(order == nu for order, _ in at_t)

    # the s = 0 kernels take I_{-nu} from the block: no negative order
    lam = np.geomspace(1e-12, 3.0, 50)
    calls.clear()
    tricomi_ode._time_block_of.cache_clear()
    kernel_phi1_scaled(t, 0.0, lam, m)
    kernel_phi2_ratio_scaled(t, 0.0, lam, m)
    assert sorted((fn, order) for fn, order, _ in calls) == [("ive", nu), ("kve", nu)]


def test_lemma22_excludes_lower_bounds_below_minus_alpha():
    # m = 1: alpha = 1/6, so q = -0.5 <= -alpha drops parts i and ii at every
    # t; q > (n - 3)/2 = -1 keeps part iii at t > 0
    p = TestFnParams(q=-0.5, n=1, m=1.0)
    grid = Lemma22Grid(t_values=(0.0, 2.0, 30.0), s_fractions=(0.0, 0.5),
                       x_fractions=(0.0, 0.5, 0.95))
    rep = lemma22_report(p, grid)
    # per t: 2 x 3 (i) + 2 x 3 (ii), and 3 (iii) at t = 0
    assert rep.excluded == 3 * 12 + 3 and rep.unconverged == 0
    assert all(math.isnan(rep.constants[part]) for part in ("i-xi", "i-eta", "ii"))
    assert [(r.part, r.t, r.s) for r in rep.rows] == [
        ("iii", t, t) for t in (2.0, 30.0) for _ in range(3)]
    assert [r.x_norm for r in rep.rows] == [
        x for t in (2.0, 30.0) for x in np.asarray(grid.x_fractions) * (phi_of_t(1.0, t) + 1.0)]
    assert [r.value for r in rep.rows[:3]] == eta_q(np.asarray(
        [r.x_norm for r in rep.rows[:3]]), 2.0, 2.0, p).tolist()
    assert rep.constants["iii"] == max(r.ratio for r in rep.rows) > 0


def test_lemma22_counts_unconverged_points():
    p = TestFnParams(q=0.5, n=3, m=1.0)
    grid = Lemma22Grid(t_values=(0.0, 2.0), s_fractions=(0.0, 0.5), x_fractions=(0.0, 0.9))
    assert lemma22_report(p, grid).unconverged == 0
    # below double precision no doubling of the Gauss order can agree
    strict = lemma22_report(p, grid, rtol=1e-17)
    assert 0 < strict.unconverged <= len(strict.rows)
