import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammasgn

from tricomilab import specfun
from tricomilab.errors import DomainError
from tricomilab.specfun import (
    _gamma_sign,
    kummer_m,
    kummer_m_detail,
    kummer_m_deriv,
    kummer_m_gap1,
    log_gamma,
    surface_area,
    varphi,
    varphi_scaled,
    varphi_sphere_quadrature,
)

# parameter pairs that actually occur downstream: (alpha, gamma_k),
# (1+alpha-gamma_k, 2-gamma_k), their derivative shifts, and reflections
PAIRS = []
for m in (0.5, 1.0, 2.0, 3.0, 4.0):
    alpha = m / (2 * (m + 2))
    gk = m / (m + 2)
    PAIRS += [
        (alpha, gk),
        (1 + alpha - gk, 2 - gk),
        (alpha + 1, gk + 1),
        (gk - alpha, gk),
    ]


def test_value_at_zero_is_one():
    for a, b in PAIRS:
        assert kummer_m(a, b, 0.0) == 1.0


def test_elementary_identity_m_1_2():
    # M(1,2;z) = 2 e^{z/2} sinh(z/2) / z, evaluated independently at z = 2
    expected = math.e * math.sinh(1.0)
    assert kummer_m(1.0, 2.0, 2.0) == pytest.approx(expected, abs=1e-10)


def test_equal_parameters_exponential():
    assert kummer_m(0.5, 0.5, 1.3) == pytest.approx(math.exp(1.3), rel=1e-14)
    assert kummer_m(0.0, 0.0, -2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_invalid_parameters_raise():
    with pytest.raises(DomainError):
        kummer_m(0.5, -1.0, 1.0)
    with pytest.raises(DomainError):
        kummer_m(0.3, 0.0, 1.0)
    with pytest.raises(DomainError):
        kummer_m(0.5, -2.0, 0.1)
    # degenerate a = b at a pole location is allowed
    assert kummer_m(-1.0, -1.0, 0.5) == pytest.approx(math.exp(0.5))


def test_kummer_transformation_grid():
    zs = np.linspace(-50.0, 20.0, 701)
    for a, b in PAIRS:
        for z in zs:
            lhs = kummer_m(a, b, float(z))
            rhs = math.exp(z) * kummer_m(b - a, b, float(-z))
            assert abs(lhs - rhs) / max(1.0, abs(lhs)) <= 1e-10


def _taylor_series_reference(a, b, z, max_terms=2000):
    """The series loop with an int counter, max() and repeated abs()."""
    term = total = peak = 1.0
    drift = 0.0
    k = 0
    z_hump = abs(z) + 10.0
    while k < max_terms:
        term *= (a + k) * z / ((b + k) * (k + 1.0))
        total += term
        peak = max(peak, abs(total), abs(term))
        k += 1
        drift += k * abs(term)
        if abs(term) <= specfun._EPS * abs(total) and k > z_hump:
            break
    return total, specfun._EPS * (4.0 * peak + drift) + 2.0 * abs(term)


def test_taylor_series_matches_reference_loop_bitwise():
    # the Kummer transformation grid's series calls, both sides of the
    # transformation: the same float operations in the same order
    for a, b in PAIRS:
        for z in np.linspace(-50.0, 20.0, 141).tolist():
            for args in ((a, b, z), (b - a, b, -z)):
                got = np.array(specfun._taylor_series(*args))
                ref = np.array(_taylor_series_reference(*args))
                assert got.tobytes() == ref.tobytes(), args


@settings(max_examples=80, deadline=None)
@given(
    a=st.floats(min_value=0.05, max_value=1.8),
    gap=st.floats(min_value=0.05, max_value=1.0),
    z=st.floats(min_value=-50.0, max_value=20.0),
)
def test_kummer_transformation_property(a, gap, z):
    b = a + gap
    lhs = kummer_m(a, b, z)
    rhs = math.exp(z) * kummer_m(b - a, b, -z)
    assert abs(lhs - rhs) / max(1.0, abs(lhs)) <= 1e-10


def test_negative_asymptotic_leading_form():
    # M(a,b;z) ~ Gamma(b)/Gamma(b-a) (-z)^{-a} as z -> -inf
    for a, b in ((0.25, 0.5), (0.75, 1.5)):
        z = -2000.0
        lead = math.exp(math.lgamma(b) - math.lgamma(b - a)) * (-z) ** (-a)
        assert kummer_m(a, b, z) == pytest.approx(lead, rel=2e-3)


def test_positive_asymptotic_leading_form():
    # M(a,b;z) ~ Gamma(b)/Gamma(a) e^z z^{a-b} as z -> +inf
    a, b = 0.75, 1.5
    z = 300.0
    lead = math.exp(math.lgamma(b) - math.lgamma(a) + z) * z ** (a - b)
    assert kummer_m(a, b, z) == pytest.approx(lead, rel=1e-2)


def test_regime_overlap_consistency():
    # reflected series and asymptotic evaluations agree on the handover band
    for a, b in PAIRS:
        for z in np.linspace(-60.0, -31.0, 40):
            val = kummer_m(a, b, float(z))
            ref = math.exp(z) * kummer_m(b - a, b, float(-z))
            assert val == pytest.approx(ref, rel=1e-8)


def test_regimes_reported():
    assert kummer_m_detail(0.25, 0.5, -5.0).regime == "series"
    assert kummer_m_detail(0.25, 0.5, -60.0).regime == "asymptotic"
    assert kummer_m_detail(0.25, 0.5, 60.0).regime == "asymptotic-kummer"
    assert kummer_m_detail(0.5, 0.5, 3.0).regime == "exp"


def test_gamma_sign_matches_scipy():
    # the asymptotic regimes take the sign of Gamma without scipy: compare
    # with gammasgn at negative half-integers, 1e-9 either side of every
    # pole down to -30, and magnitudes up to 1e300 off the poles
    poles = -np.arange(31.0)
    xs = np.concatenate((
        np.linspace(-30.5, 30.5, 4001), poles - 1e-9, poles + 1e-9,
        [-1e5 - 0.5, -170.5, -171.5, 171.5, 1e5, 1e15, 1e300],
    ))
    xs = xs[(xs > 0) | (xs != np.round(xs))]
    assert len(xs) > 4000
    assert [_gamma_sign(float(x)) for x in xs] == gammasgn(xs).tolist()
    # gammasgn casts floor(x) to a C int, so past -2^31 its sign is wrong
    # (1 at -3e9 - 0.5); mpmath is the reference there
    for x in (-(2.0**31) - 0.5, -3e9 - 0.5, -1e15 - 0.5, -(2.0**52) + 0.5):
        assert _gamma_sign(x) == float(mpmath.sign(mpmath.gamma(x))), x


# z grid for the high-precision oracle: the whole finite range, both blend
# zones |z| in [30, 40], the direct-series cut at -6, and the points around
# +-709 where e^z leaves the double range
ORACLE_Z = sorted(
    set(
        np.round(
            np.concatenate(
                (
                    np.linspace(-708.0, 711.0, 15),
                    np.linspace(-40.0, -30.0, 6),
                    np.linspace(30.0, 40.0, 6),
                    np.linspace(-8.0, 8.0, 9),
                    [-709.5, -708.9, 705.0, 708.0, 709.0, 709.5, 710.0, 710.5, 711.0],
                )
            ),
            6,
        ).tolist()
    )
)
ORACLE_PAIRS = [
    (0.25, 0.5), (0.75, 1.5), (1 / 6, 1 / 3), (7 / 6, 4 / 3), (1.0, 2.0), (0.5, 2.5), (2.5, 1.2),
]


def test_kummer_against_mpmath():
    # independent 40-digit reference; every finite value must lie within its
    # own error estimate, and inf only where the true value overflows
    with mpmath.workdps(40):
        huge = mpmath.mpf(np.finfo(float).max)
        for a, b in ORACLE_PAIRS:
            for z in ORACLE_Z:
                detail = kummer_m_detail(a, b, z)
                ref = mpmath.hyp1f1(a, b, z)
                if math.isinf(detail.value):
                    assert abs(ref) > huge, (a, b, z)
                    continue
                err = abs(mpmath.mpf(detail.value) - ref)
                assert err <= detail.error_estimate, (a, b, z, detail)
                assert err <= 1e-8 * abs(ref), (a, b, z, detail)


@pytest.mark.parametrize("a, b, z, ref", [
    (0.0, 1.5, 100.0, 1.0),  # a = 0: M = 1
    (-1.0, 0.94070482075, 108.024253791, None),  # a = -1: M = 1 - z/b
    (2.5, 0.5, -45.0, None),  # b - a = -2: e^z times a quadratic
])
def test_polynomial_cases_against_mpmath(a, b, z, ref):
    # where a or b - a is a non-positive integer M is a polynomial (or e^z
    # times one); the asymptotic side's Gamma prefactor has a pole there
    with mpmath.workdps(50):
        exact = mpmath.hyp1f1(a, b, z)
    if ref is not None:
        assert exact == ref
    detail = kummer_m_detail(a, b, z)
    err = abs(mpmath.mpf(detail.value) - exact)
    assert err <= detail.error_estimate and err <= 1e-14 * abs(exact), detail


# the kernel of the diagonal test functions: b = q + 1 at the q of the lab's
# runs, and the n = 3 series' b = q + 1 + j, j = 0, 2, ..., 18, at q = 0.375
GAP1_B = sorted({0.5, 0.944, 1.0, 1.05, 1.375, *(1.375 + np.arange(0.0, 19.0, 2.0)).tolist()})
GAP1_Z = np.concatenate((-np.geomspace(1e-4, 1e4, 41), [0.0], np.linspace(0.5, 40.0, 12),
                         [1e-9, 1e-3]))


def test_gap1_kernel_against_mpmath():
    # relative error <= 4e-15 against 50 digits wherever M(b, b+1; z) is a
    # normal double (measured: 2.2e-15), inf only past the double range
    with mpmath.workdps(50):
        for b in GAP1_B:
            got = kummer_m_gap1(b, GAP1_Z)
            assert got.shape == GAP1_Z.shape
            for z, value in zip(GAP1_Z.tolist(), got.tolist()):
                ref = mpmath.hyp1f1(b, b + 1, z)
                if abs(ref) >= np.finfo(float).tiny:
                    assert abs(value - ref) <= 4e-15 * abs(ref), (b, z, value)
            big = kummer_m_gap1(b, np.array([700.0, 740.0, 1e4]))
            assert np.isfinite(big[0]) and np.all(big[1:] == np.inf), b
    # past e^709.78 by the factor z/b: b = 1 is finite at 716 and inf at 717
    assert np.isfinite(kummer_m_gap1(1.0, 716.0)) and kummer_m_gap1(1.0, 717.0) == np.inf
    assert kummer_m_gap1(1.5, 0.0) == 1.0


def test_gap1_kernel_agrees_with_scalar_kummer():
    # pointwise against kummer_m within kummer_m's own error estimate.  The
    # exceptions are kummer_m's: at b >= 15, z = -63.1 its asymptotic side
    # drops the e^z branch with an estimate 1.2-1.4x too small (ROADMAP
    # item 2), while the kernel stays within 6e-16 of mpmath there
    misses = []
    for b in GAP1_B:
        got = kummer_m_gap1(b, GAP1_Z)
        for z, value in zip(GAP1_Z.tolist(), got.tolist()):
            detail = kummer_m_detail(b, b + 1.0, z)
            if abs(value - detail.value) > detail.error_estimate:
                misses.append((b, round(z, 1), detail.regime))
                with mpmath.workdps(50):
                    ref = mpmath.hyp1f1(b, b + 1, z)
                assert abs(detail.value - ref) > detail.error_estimate
                assert abs(value - ref) <= 4e-15 * abs(ref)
    assert misses == [(b, -63.1, "asymptotic") for b in (15.375, 17.375, 19.375)]
    # an array of b (the n = 3 series) gives each entry its scalar call's bits
    bs = np.array(GAP1_B)
    assert kummer_m_gap1(bs, -3.0).tolist() == [kummer_m_gap1(b, -3.0) for b in GAP1_B]
    with pytest.raises(DomainError):
        kummer_m_gap1(0.0, 1.0)
    with pytest.raises(DomainError):
        kummer_m_gap1(0.5, np.nan)


def test_derivative_ratio_form():
    # dM/dz at z=0 equals a/b
    for a, b in PAIRS:
        assert kummer_m_deriv(a, b, 0.0) == pytest.approx(a / b, rel=1e-13)
    assert kummer_m_deriv(0.0, 0.7, 1.9) == 0.0


def test_derivative_matches_finite_difference():
    h = 1e-5
    for a, b, z in ((1.0, 2.0, 2.0), (0.25, 0.5, -3.0), (0.75, 1.5, 5.0)):
        fd = (kummer_m(a, b, z + h) - kummer_m(a, b, z - h)) / (2 * h)
        assert abs(kummer_m_deriv(a, b, z) - fd) <= 1e-8


# ---------------------------------------------------------------------------
# radial eigenfunction
# ---------------------------------------------------------------------------


def test_varphi_dimension_one():
    assert varphi(1, 0.0) == pytest.approx(2.0)
    assert varphi(1, 2.0) == pytest.approx(math.exp(2) + math.exp(-2), rel=1e-14)


def test_varphi_against_sphere_quadrature():
    for n in (2, 3, 4, 5):
        for r in (0.0, 0.3, 1.0, 5.0, 20.0):
            assert varphi(n, r) == pytest.approx(
                varphi_sphere_quadrature(n, r), rel=1e-11
            )


def test_varphi_three_dim_closed_form():
    assert varphi(3, 1.0) == pytest.approx(4 * math.pi * math.sinh(1.0), rel=1e-13)
    assert varphi(3, 0.0) == pytest.approx(surface_area(3), rel=1e-14)


def test_varphi_large_r_asymptotic():
    # varphi ~ C_n r^{-(n-1)/2} e^r; fit C_2 at large r, check at r = 10
    rs = np.array([20.0, 30.0, 40.0])
    cs = varphi(2, rs) * rs**0.5 * np.exp(-rs)
    c2 = float(np.mean(cs))
    predicted = c2 * 10.0**-0.5 * math.exp(10.0)
    assert varphi(2, 10.0) == pytest.approx(predicted, rel=0.1)


def test_varphi_radial_helmholtz_identity():
    # phi'' + (n-1)/r phi' = phi, via central differences
    h = 1e-3
    for n in (1, 2, 3):
        for r in (0.1, 0.5, 2.0, 7.0, 20.0):
            f0 = varphi(n, r)
            fp = varphi(n, r + h)
            fm = varphi(n, r - h)
            lap = (fp - 2 * f0 + fm) / h**2
            if n > 1:
                lap += (n - 1) / r * (fp - fm) / (2 * h)
            assert abs(lap - f0) / abs(f0) <= 1e-4


def test_varphi_monotone_increasing():
    rs = np.linspace(0.0, 20.0, 300)
    for n in (1, 2, 3, 4):
        vals = varphi(n, rs)
        assert np.all(np.diff(vals) > 0)


def test_varphi_scaled_consistency():
    rs = np.array([0.0, 1e-8, 0.5, 30.0, 600.0])
    for n in (1, 2, 3, 5):
        scaled = varphi_scaled(n, rs)
        assert np.all(np.isfinite(scaled))
        direct = varphi(n, rs[rs < 500])
        assert np.allclose(scaled[rs < 500] * np.exp(rs[rs < 500]), direct, rtol=1e-12)


def test_varphi_scaled_two_dim_against_mpmath():
    # n = 2 is 2 pi e^{-r} I_0(r), evaluated with scipy's i0e
    rs = np.concatenate(([0.0], np.geomspace(1e-8, 800.0, 799)))
    got = varphi_scaled(2, rs)
    with mpmath.workdps(40):
        ref = [float(2 * mpmath.pi * mpmath.exp(-r) * mpmath.besseli(0, r)) for r in rs]
    rel = np.abs(got - ref) / np.abs(ref)
    assert rel.max() <= 2e-15


def test_varphi_scaled_bessel_branch_against_mpmath():
    # n >= 4: (2 pi)^{n/2} and r^{-nu} leave the double range before their
    # product does, so the prefactor is taken in log space
    # at n = 343 ive underflows below r ~ 2 and the value past r ~ 300
    for n, lo, hi in ((4, 0.05, 1e5), (50, 0.05, 1e5), (343, 5.0, 250.0)):
        rs = np.geomspace(lo, hi, 40)
        got = varphi_scaled(n, rs)
        with mpmath.workdps(40):
            nu = mpmath.mpf(n) / 2 - 1
            ref = np.array([float((2 * mpmath.pi) ** (mpmath.mpf(n) / 2) * mpmath.mpf(r) ** -nu
                                  * mpmath.besseli(nu, r) * mpmath.exp(-r)) for r in rs])
        assert np.max(np.abs(got - ref) / ref) <= 5e-13, n


def test_varphi_scaled_extremes_warn_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # 2 pi (1 - e^{-2r}) / r, with no 2r overflow on the way
        assert varphi_scaled(3, 1e308) == pytest.approx(2 * math.pi / 1e308, rel=1e-15)
        assert varphi_scaled(343, 0.0) == surface_area(343)
        # ive underflows to 0 (n = 343, r = 1e-3) or is past scipy's range
        for n, r in ((343, 1e-3), (343, [0.0, 10.0, 1e-3]), (5, 1e308)):
            with pytest.raises(DomainError, match="ive"):
                varphi_scaled(n, r)


def test_varphi_domain_errors():
    with pytest.raises(DomainError):
        varphi(0, 1.0)
    with pytest.raises(DomainError):
        varphi(3, -0.5)


def test_log_gamma():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-14)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-1.3)
