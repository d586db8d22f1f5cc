import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scipy.special import ive, kve

from tricomilab import tricomi_ode
from tricomilab.errors import DomainError
from tricomilab.tricomi_ode import (
    OdeParams,
    fundamental_pair,
    fundamental_pair_scaled,
    kernel_phi1_scaled,
    kernel_phi2_ratio_scaled,
    ode_oracle_scaled,
    phi1,
    phi2,
    phi2_ratio,
    phi_of_t,
)
from tricomilab.specfun import kummer_m, kummer_m_deriv

# Oracle anchor for m=2, lambda=1, ic=(0,1), t_end=2, recorded at local
# tolerance 1e-10 and cross-checked at 1e-12 (agreement ~1e-10).
ANCHOR_M2 = (3.9942518657498796, 6.85615658096327)


def _oracle(params, t_end, ic, rtol=1e-10):
    """(y, y') at t_end: the scaled oracle times e^{lambda phi(t_end)}."""
    w, v = ode_oracle_scaled(params, t_end, ic, rtol)
    scale = math.exp(params.lam * phi_of_t(params.m, t_end))
    return (w * scale, v * scale)


def test_phi_of_t_values():
    assert phi_of_t(2.0, 2.0) == pytest.approx(2.0, rel=1e-15)
    assert phi_of_t(1.7, 0.0) == 0.0
    assert phi_of_t(0.0, 3.2) == pytest.approx(3.2, rel=1e-15)
    with pytest.raises(DomainError):
        phi_of_t(1.0, -0.1)
    for t in (1e300, math.inf):  # t^{3/2} overflows: a DomainError, not OverflowError
        with pytest.raises(DomainError):
            phi_of_t(1.0, t)


def test_initial_conditions_exact():
    for m in (0.0, 0.5, 1.0, 2.0):
        fe = fundamental_pair(OdeParams(m, 2.0), 0.0)
        assert (fe.v1, fe.dv1, fe.v2, fe.dv2) == (1.0, 0.0, 0.0, 1.0) or (
            fe.v1 == 1.0 and fe.dv1 == -0.0 and fe.v2 == 0.0 and fe.dv2 == 1.0
        )


def test_wronskian_fixed_samples():
    # lambda chosen so lambda*phi(t) stays below 8: beyond that the decaying
    # mode falls under double-precision eps relative to the growing one and
    # the identity cannot be represented by the returned values
    samples = (
        (0.5, 2.0, (0.5, 1.0, 2.0)),
        (1.0, 1.5, (0.5, 1.0, 2.0)),
        (5.0, 0.5, (0.5, 1.0, 2.0)),
        (20.0, 0.05, (0.5, 1.0)),  # m = 2 gives lambda*phi = 10, see below
    )
    for t, lam, ms in samples:
        for m in ms:
            assert lam * phi_of_t(m, t) <= 8.0, (m, lam, t)
            fe = fundamental_pair(OdeParams(m, lam), t)
            assert abs(fe.v1 * fe.dv2 - fe.dv1 * fe.v2 - 1.0) <= 1e-8


def test_pair_against_mpmath_past_the_wronskian_window():
    # at lambda*phi(t) = 10 the Wronskian's products are ~1.7e8, so even the
    # correctly rounded pair misses W = 1 by 2.98e-8; check the components
    m, lam, t = 2.0, 0.05, 20.0
    assert lam * phi_of_t(m, t) == pytest.approx(10.0, rel=1e-14)
    fe = fundamental_pair(OdeParams(m, lam), t)
    with mpmath.workdps(50):
        ref = _mp_pair(*(mpmath.mpf(v) for v in (m, lam, t)))[:4]
        for got, want in zip((fe.v1, fe.dv1, fe.v2, fe.dv2), ref):
            assert abs(got - want) <= 1e-14 * abs(want)


@settings(max_examples=60, deadline=None)
@given(
    m=st.floats(min_value=0.0, max_value=3.0),
    lam=st.floats(min_value=0.1, max_value=5.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_wronskian_property(m, lam, frac):
    # sample t within the representable window lambda*phi(t) <= 8
    t_cap = ((m + 2.0) * 7.0 / (2.0 * lam)) ** (2.0 / (m + 2.0))
    t = frac * min(t_cap, 20.0)
    fe = fundamental_pair(OdeParams(m, lam), t)
    assert abs(fe.v1 * fe.dv2 - fe.dv1 * fe.v2 - 1.0) <= 1e-8


def _kummer_pair_scaled(m, lam, t):
    """Reference: the hypergeometric closed form of the scaled pair,
    V1 = e^{-z/2} M(alpha, gamma_k; z) and V2 = e^{-z/2} t M(1+alpha-gamma_k, 2-gamma_k; z)
    with z = -2 lambda phi(t), alpha = m/(2(m+2)), gamma_k = m/(m+2)."""
    alpha, gamma_k = m / (2.0 * (m + 2.0)), m / (m + 2.0)
    a2, b2 = 1.0 + alpha - gamma_k, 2.0 - gamma_k
    z = -2.0 * lam * phi_of_t(m, t)
    dz = -2.0 * lam * t ** (m / 2.0)
    m1, dm1 = kummer_m(alpha, gamma_k, z), kummer_m_deriv(alpha, gamma_k, z)
    m2, dm2 = kummer_m(a2, b2, z), kummer_m_deriv(a2, b2, z)
    return (m1, dz * (dm1 - 0.5 * m1), t * m2, m2 + t * dz * (dm2 - 0.5 * m2))


def test_bessel_pair_matches_hypergeometric_form():
    # the Bessel-basis pair is an exact rewriting of the Kummer forms
    # (DLMF 13.6); seeded points with m > 0 inside lambda phi(t) <= 7
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = rng.uniform(0.05, 3.0)
        lam = rng.uniform(0.1, 5.0)
        t_cap = ((m + 2.0) * 7.0 / (2.0 * lam)) ** (2.0 / (m + 2.0))
        t = rng.uniform(0.0, min(t_cap, 20.0))
        fe = fundamental_pair_scaled(OdeParams(m, lam), t)
        ref = _kummer_pair_scaled(m, lam, t)
        for got, want in zip((fe.v1, fe.dv1, fe.v2, fe.dv2), ref):
            assert got == pytest.approx(want, rel=1e-10)


def test_small_t_limit():
    # far below the Bessel form's range the leading Taylor terms are exact
    for m in (0.0, 1.0, 3.0):
        params = OdeParams(m, 1.3)
        for t in (1e-12, 1e-150, 5e-324):
            fe = fundamental_pair(params, t)
            assert (fe.v1, fe.v2, fe.dv2) == pytest.approx((1.0, t, 1.0), rel=1e-15)
            assert fe.v1 * fe.dv2 - fe.dv1 * fe.v2 == pytest.approx(1.0, rel=1e-15)
            assert phi1(t, 0.0, params) == pytest.approx(1.0, rel=1e-15)
            assert phi2_ratio(t, 0.0, params) == pytest.approx(1.0, rel=1e-15)


def test_large_t_overflows_to_inf():
    params = OdeParams(1.0, 1.0)
    fe = fundamental_pair(params, 200.0)
    assert fe.v1 == math.inf and fe.dv2 == math.inf
    sc = fundamental_pair_scaled(params, 200.0)
    assert 0.0 < sc.v1 < 1.0 and math.isfinite(sc.dv2)


def test_unscaled_propagators_are_inf_only_where_the_value_overflows():
    # at m = 0, lambda = 1 the growth is t: e^709.4 overflows, but cosh 709.4 =
    # 6.13e307 and sinh(709.4)/709.4 do not
    params, t = OdeParams(0.0, 1.0), 709.4
    assert phi1(t, 0.0, params) == pytest.approx(math.cosh(t), rel=1e-12, abs=0.0)
    assert phi2_ratio(t, 0.0, params) == pytest.approx(math.sinh(t) / t, rel=1e-12, abs=0.0)
    assert phi2(t, 0.0, params) == pytest.approx(math.sinh(t), rel=1e-12, abs=0.0)
    assert phi1(711.0, 0.0, params) == math.inf  # cosh 711 leaves the double range
    # below e^709 the value is the scaled kernel times e^growth, as it was
    lam = np.array([1.0])
    for kernel, fn in ((kernel_phi1_scaled, phi1), (kernel_phi2_ratio_scaled, phi2_ratio)):
        assert fn(708.9, 0.0, params) == float(kernel(708.9, 0.0, lam, 0.0)[0]) * math.exp(708.9)


def test_scaled_forms_refuse_past_the_bessel_range():
    # scipy's ive and kve are nan past x = 2^30 - 0.5; the scaled forms are
    # finite up to it and refuse anything past it
    edge = 2.0**30 - 0.5
    for fn in (ive, kve):
        assert math.isfinite(fn(1.0 / 3.0, edge)) and math.isnan(fn(1.0 / 3.0, edge + 1e-7))
    m = 1.0
    t_edge = (1.5 * edge) ** (2.0 / 3.0)  # phi(t_edge) = 2^30 - 0.5 at m = 1, lambda = 1
    for t, ok in ((t_edge * (1.0 - 1e-9), True), (t_edge * (1.0 + 1e-9), False)):
        lam = np.array([0.25, 1.0])
        calls = (lambda: fundamental_pair_scaled(OdeParams(m, 1.0), t),
                 lambda: kernel_phi1_scaled(t, 0.5 * t, lam, m),
                 lambda: kernel_phi2_ratio_scaled(t, 0.0, lam, m))
        for call in calls:
            if ok:
                out = call()
                values = [out.v1, out.dv2] if hasattr(out, "v1") else out
                assert np.all(np.isfinite(values))
            else:
                with pytest.raises(DomainError, match="range of the scaled Bessel"):
                    call()


def test_wave_reduction_m0():
    lam = 1.3
    for t in (0.0, 0.5, 2.0, 7.0):
        fe = fundamental_pair(OdeParams(0.0, lam), t)
        assert fe.v1 == pytest.approx(math.cosh(lam * t), abs=1e-8)
        assert fe.v2 == pytest.approx(math.sinh(lam * t) / lam, abs=1e-8)
        assert fe.dv1 == pytest.approx(lam * math.sinh(lam * t), abs=1e-8)
        assert fe.dv2 == pytest.approx(math.cosh(lam * t), abs=1e-8)


def test_small_m_limit_continuous():
    # the Kummer route at m -> 0+ must approach the closed wave forms
    lam, t = 0.8, 2.0
    fe = fundamental_pair(OdeParams(1e-7, lam), t)
    assert fe.v1 == pytest.approx(math.cosh(lam * t), rel=1e-5)
    assert fe.v2 == pytest.approx(math.sinh(lam * t) / lam, rel=1e-5)


def test_oracle_constant_coefficient():
    y, yp = _oracle(OdeParams(0.0, 1.0), 1.0, (1.0, 0.0))
    assert y == pytest.approx(math.cosh(1.0), rel=1e-9)
    assert yp == pytest.approx(math.sinh(1.0), rel=1e-9)
    assert _oracle(OdeParams(1.0, 1.0), 0.0, (1.0, 0.0)) == (1.0, 0.0)


def test_oracle_refuses_unbounded_work():
    # inf m or lambda, a growth lambda phi(t) past the oracle's cost bound,
    # or an rtol outside [100 eps, 1), each a DomainError before integrating
    for m, lam in ((math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(DomainError, match="finite"):
            OdeParams(m, lam)
    # m = 3, lambda = 5, t = 20 (lambda phi = 3.6e3) is the largest checked pair
    with pytest.raises(DomainError, match="growth"):
        ode_oracle_scaled(OdeParams(3.0, 15.0), 20.0, (1.0, 0.0))
    for rtol in (1.0, math.inf, 1e-15, 1e-300):
        with pytest.raises(DomainError, match="rtol"):
            ode_oracle_scaled(OdeParams(1.0, 1.0), 2.0, (1.0, 0.0), rtol=rtol)


def test_oracle_regression_anchor():
    got = _oracle(OdeParams(2.0, 1.0), 2.0, (0.0, 1.0))
    assert got[0] == pytest.approx(ANCHOR_M2[0], rel=1e-9)
    assert got[1] == pytest.approx(ANCHOR_M2[1], rel=1e-9)
    tighter = _oracle(OdeParams(2.0, 1.0), 2.0, (0.0, 1.0), rtol=1e-12)
    assert got[0] == pytest.approx(tighter[0], rel=1e-8)


def test_fundamental_pair_matches_oracle():
    # scaled comparison stays representable even where e^{lambda phi(t)}
    # overflows; relative errors agree with the unscaled ones identically
    for m in (0.5, 1.0, 2.0, 3.0):
        for lam in (0.1, 1.0, 5.0):
            for t in (1.0, 5.0, 20.0):
                params = OdeParams(m, lam)
                fe = fundamental_pair_scaled(params, t)
                w1 = ode_oracle_scaled(params, t, (1.0, 0.0))
                w2 = ode_oracle_scaled(params, t, (0.0, 1.0))
                assert fe.v1 == pytest.approx(w1[0], rel=1e-6)
                assert fe.dv1 == pytest.approx(w1[1], rel=1e-6)
                assert fe.v2 == pytest.approx(w2[0], rel=1e-6)
                assert fe.dv2 == pytest.approx(w2[1], rel=1e-6)


def test_propagator_normalization():
    # same representability window as the Wronskian: the identity is a
    # cancellation between e^{+-lambda phi} modes, so lambda phi(s) <= 7
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = rng.uniform(0.0, 3.0)
        lam = rng.uniform(0.1, 2.0)
        s_cap = ((m + 2.0) * 7.0 / (2.0 * lam)) ** (2.0 / (m + 2.0))
        s = rng.uniform(0.0, min(s_cap, 3.0))
        params = OdeParams(m, lam)
        assert phi1(s, s, params) == pytest.approx(1.0, abs=1e-8)
        assert phi2(s, s, params) == pytest.approx(0.0, abs=1e-8)


def test_propagators_reduce_to_fundamental_pair():
    params = OdeParams(1.0, 2.0)
    for t in (0.5, 2.0, 4.0):
        fe = fundamental_pair(params, t)
        assert phi1(t, 0.0, params) == pytest.approx(fe.v1, rel=1e-12)
        assert phi2(t, 0.0, params) == pytest.approx(fe.v2, rel=1e-12)


def test_propagator_vs_oracle_from_interior_time():
    # Phi1/Phi2 solve the ODE with unit data at s; integrate from s to t
    from scipy.integrate import solve_ivp

    m, lam, s, t = 1.0, 2.0, 1.0, 3.0
    params = OdeParams(m, lam)

    def rhs(tt, y):
        return [y[1], lam * lam * tt**m * y[0]]

    for ic, target in (((1.0, 0.0), phi1), ((0.0, 1.0), phi2)):
        sol = solve_ivp(rhs, (s, t), list(ic), method="DOP853", rtol=1e-10, atol=1e-12)
        assert target(t, s, params) == pytest.approx(sol.y[0, -1], rel=1e-6)


def test_kernels_are_exactly_one_on_the_diagonal():
    lam = np.geomspace(1e-12, 50.0, 200)
    for m in (0.0, 1.0, 2.5):
        for t in (1e-9, 0.3, 2.0, 40.0):
            for kernel in (kernel_phi1_scaled, kernel_phi2_ratio_scaled):
                assert np.all(kernel(t, t, lam, m) == 1.0)
    params = OdeParams(1.0, 1.0)
    assert phi1(2.0, 2.0, params) == 1.0 and phi2_ratio(2.0, 2.0, params) == 1.0
    assert phi2(2.0, 2.0, params) == 0.0


def test_phi2_ratio_diagonal_and_continuity():
    params = OdeParams(1.0, 1.0)
    assert phi2_ratio(2.0, 2.0, params) == 1.0
    assert phi2_ratio(2.0, 1.999, params) == pytest.approx(1.0, abs=1e-4)
    # continuity across the expansion/determinant switch
    t = 2.0
    below = phi2_ratio(t, t - 0.9e-6 * t, params)
    above = phi2_ratio(t, t - 1.1e-6 * t, params)
    assert below == pytest.approx(above, rel=1e-6)
    assert phi2_ratio(2.0, 0.0, params) == pytest.approx(
        phi2(2.0, 0.0, params) / 2.0, rel=1e-12
    )


def test_argument_order_errors():
    params = OdeParams(1.0, 1.0)
    with pytest.raises(DomainError):
        phi1(1.0, 2.0, params)
    with pytest.raises(DomainError):
        phi2(0.5, 1.0, params)
    with pytest.raises(DomainError):
        OdeParams(-0.5, 1.0)
    with pytest.raises(DomainError):
        OdeParams(1.0, 0.0)


def _mp_pair(m, lam, tau):
    """(V1, V1', V2, V2', lambda phi(tau)) from the Bessel form, in mpmath."""
    nu = 1 / (m + 2)
    x = lam * 2 / (m + 2) * tau ** ((m + 2) / 2)
    c1 = mpmath.gamma(1 - nu) * (nu * lam) ** nu * mpmath.sqrt(tau)
    c2 = mpmath.gamma(1 + nu) * (nu * lam) ** -nu * mpmath.sqrt(tau)
    dx = lam * tau ** (m / 2)
    return (c1 * mpmath.besseli(-nu, x), c1 * mpmath.besseli(1 - nu, x) * dx,
            c2 * mpmath.besseli(nu, x), c2 * mpmath.besseli(nu - 1, x) * dx, x)


def _mp_kernels(m, lam, t, s):
    """e^{-(x_t-x_s)} (Phi1, Phi2/(t-s)) from the Bessel pair at 50 digits."""
    with mpmath.workdps(50):
        m, lam, t, s = (mpmath.mpf(v) for v in (m, lam, t, s))
        v1t, _, v2t, _, x_t = _mp_pair(m, lam, t)
        # the Bessel form is 0 * inf at s = 0; the initial data are exact there
        v1s, dv1s, v2s, dv2s, x_s = _mp_pair(m, lam, s) if s else (1, 0, 0, 1, 0)
        scale = mpmath.exp(x_s - x_t)
        return (float(scale * (v1t * dv2s - v2t * dv1s)),
                float(scale * (v2t * v1s - v1t * v2s) / (t - s)))


def test_kernels_at_tiny_s():
    # once lam phi(s) underflows, the Bessel products x_s^nu K_{nu-1}(x_s)
    # and x_s^nu I_{nu-1}(x_s) are 0 * inf; the leading small-s terms take over
    assert math.isfinite(phi1(1.0, 1e-300, OdeParams(1.0, 1.0)))
    assert math.isfinite(phi2_ratio(1.0, 1e-300, OdeParams(1.0, 1.0)))
    lam = np.array([1e-3, 0.05, 0.3, 1.0, 4.0])
    for m in (0.0, 0.3, 1.0, 2.5):
        for t in (0.4, 3.0):
            for kernel in (kernel_phi1_scaled, kernel_phi2_ratio_scaled):
                at_zero = kernel(t, 0.0, lam, m)
                tiny = kernel(t, 1e-300, lam, m)
                assert np.all(np.isfinite(tiny))
                assert np.allclose(tiny, at_zero, rtol=1e-14, atol=0.0)
            for s in (1e-30, 1e-12, 1e-9, 1e-6):
                k1 = kernel_phi1_scaled(t, s, lam, m)
                k2 = kernel_phi2_ratio_scaled(t, s, lam, m)
                for i, lam_i in enumerate(lam):
                    r1, r2 = _mp_kernels(m, lam_i, t, s)
                    assert k1[i] == pytest.approx(r1, rel=1e-13), (m, t, s, lam_i)
                    assert k2[i] == pytest.approx(r2, rel=1e-13), (m, t, s, lam_i)


def test_kernels_at_s_zero_against_mpmath():
    # V1 at s = 0 comes from I_{-nu} = I_nu + (2/pi) sin(nu pi) K_nu, so only +nu
    # orders are evaluated; both terms are positive, so no digits cancel
    for m in (0.0, 0.4, 1.0, 2.5):
        for lam in (0.05, 1.0, 6.0):
            for x in np.geomspace(1e-8, 700.0, 25):
                t = float((x / lam * (m + 2.0) / 2.0) ** (2.0 / (m + 2.0)))
                k1 = kernel_phi1_scaled(t, 0.0, np.array([lam]), m)[0]
                k2 = kernel_phi2_ratio_scaled(t, 0.0, np.array([lam]), m)[0]
                r1, r2 = _mp_kernels(m, lam, t, 0.0)
                assert k1 == pytest.approx(r1, rel=1e-13), (m, lam, x)
                assert k2 == pytest.approx(r2, rel=1e-13), (m, lam, x)


def _reference_kernels(t, s, lam, m):
    """Off-diagonal (Phi1, Phi2/(t-s)) kernels as written before the time pair
    was shared: ive/kve at x_t evaluated afresh on each branch's nodes."""
    nu = 1.0 / (m + 2.0)
    x_t = lam * phi_of_t(m, t)
    x_s = lam * phi_of_t(m, s)
    small = x_s < 1e-8

    def small_s(lo):
        xt = lo * phi_of_t(m, t)
        i_nu = ive(nu, xt)
        k_nu = np.exp(-2.0 * xt) * kve(nu, xt)
        v1 = math.gamma(1.0 - nu) * (nu * lo) ** nu * math.sqrt(t) * (
            i_nu + 2.0 / math.pi * math.sin(nu * math.pi) * k_nu
        )
        v2r = math.gamma(1.0 + nu) * (nu * lo) ** (-nu) * math.sqrt(t) / t * i_nu
        tiny = xt < 1e-8
        return np.where(tiny, np.exp(-xt), v1), np.where(tiny, np.exp(-xt), v2r)

    k1, k2 = np.empty_like(lam), np.empty_like(lam)
    lo = lam[small]
    v1, v2r = small_s(lo)
    k1[small] = np.exp(x_s[small]) * (v1 - lo * lo * s ** (m + 1.0) / (m + 1.0) * t * v2r)
    k2[small] = np.exp(x_s[small]) * (t * v2r - s * v1) / (t - s)
    lb, xt, xs = lam[~small], x_t[~small], x_s[~small]
    delta = xt - xs
    pref = 2.0 * nu * (2.0 * nu * lb) ** (-nu) * lb * s ** (m / 2.0) * math.sqrt(t)
    grow = ive(nu, xt) * xs**nu * kve(nu - 1.0, xs)
    decay = np.exp(-2.0 * delta) * kve(nu, xt) * xs**nu * ive(nu - 1.0, xs)
    k1[~small] = pref * (grow + decay)
    pref = 2.0 * nu * math.sqrt(s * t) / (t - s)
    main = kve(nu, xs) * ive(nu, xt)
    sub = np.exp(-2.0 * delta) * ive(nu, xs) * kve(nu, xt)
    k2[~small] = pref * (main - sub)
    return k1, k2


def test_shared_time_pair_keeps_kernels_bit_identical():
    # nodes on both sides of the small-s switch x_s = 1e-8
    lam = np.geomspace(1e-15, 5.0, 301)
    cases = [(m, t, s) for m in (0.0, 1.0, 2.5)
             for t, s in ((0.4, 1e-12), (3.0, 1e-6), (3.0, 1.2), (700.0, 300.0))]
    for m, t, s in cases:
        ref = [k.tobytes() for k in _reference_kernels(t, s, lam, m)]

        def kernels():
            return [kernel_phi1_scaled(t, s, lam, m).tobytes(),
                    kernel_phi2_ratio_scaled(t, s, lam, m).tobytes()]

        cache = tricomi_ode._time_block_of
        cache.cache_clear()
        assert kernels() == ref  # empty cache: the block is built here
        assert kernels() == ref  # the block comes from the cache
        assert cache.cache_info().misses == 1
        for other in (0.7, 1.5, 2.2, 9.0, 41.0):
            kernel_phi1_scaled(other, 0.0, lam, m)  # other times evict it
        assert cache.cache_info().currsize == 4
        misses = cache.cache_info().misses
        assert kernels() == ref  # evicted: built afresh
        assert cache.cache_info().misses == misses + 1


def test_rows_at_zero_and_diagonal_build_no_entries(monkeypatch):
    # s = 0 rows come from the time-t block and s = t rows are ones: neither
    # forms the per-s entries, which only rows with 0 < s < t need
    entries = tricomi_ode._entries
    built = []

    def counted(*args):
        built.append(args[2])
        return entries(*args)

    monkeypatch.setattr(tricomi_ode, "_entries", counted)
    lam = np.geomspace(1e-15, 5.0, 31)
    t = 3.0
    for kernel in (kernel_phi1_scaled, kernel_phi2_ratio_scaled):
        for s in (0.0, t, np.array([0.0, t, 0.0]), np.array([t, t])):
            kernel(t, s, lam, 1.0)
        assert built == []
        kernel(t, np.array([0.0, 1.2, t]), lam, 1.0)
        assert built == [{1: 1.2}]
        built.clear()


@pytest.mark.parametrize("m", [0.0, 1.0, 2.5])
def test_kernel_rows_of_an_s_array_match_scalar_calls(m):
    # every row of an s array has the bits of the scalar call at its s: the
    # diagonal, s = 0, the (t-s)-series next to t, the small-s terms where
    # x_s < _SMALL_X, the Bessel products, and rows that mix the last two
    lam = np.geomspace(1e-15, 5.0, 301)
    for t in (2e-6, 0.4, 3.0, 700.0):
        near = t - 0.5 * tricomi_ode._RATIO_SWITCH * max(1.0, t)
        # phi(mixed) = _SMALL_X: x_s crosses _SMALL_X at lam = 1
        mixed = (tricomi_ode._SMALL_X * (m + 2.0) / 2.0) ** (2.0 / (m + 2.0))
        ss = np.array([t, 0.0, near, 1e-300, 0.3 * t, 0.0, 0.7 * t, t]
                      + ([mixed] if mixed < 0.5 * t else []))
        for kernel in (kernel_phi1_scaled, kernel_phi2_ratio_scaled):
            rows = kernel(t, ss, lam, m)
            assert rows.shape == (ss.size, lam.size)
            for s, row in zip(ss.tolist(), rows):
                assert row.tobytes() == kernel(t, s, lam, m).tobytes(), (kernel.__name__, t, s)
            # one time alone in an array gives the same row
            assert kernel(t, ss[4:5], lam, m).tobytes() == rows[4].tobytes()
