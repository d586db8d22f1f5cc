import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricomilab.errors import DomainError
from tricomilab.specfun import (
    kummer_m,
    kummer_m_detail,
    kummer_m_deriv,
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
