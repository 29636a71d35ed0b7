"""Volume constants against independent oracles, and the bound formulas."""

import math

import pytest
from scipy.integrate import quad

from altknot import augment, constants, twist_volume_bounds
from altknot.volume import (
    augmented_volume_bounds,
    volume_report,
)
from altknot.errors import DomainError, NotCertified

from conftest import corpus_diagrams


def oracle_lobachevsky(theta: float) -> float:
    """Adaptive quadrature of -int_0^theta log|2 sin t| dt."""
    val, err = quad(
        lambda t: math.log(2.0 * math.sin(t)), 0.0, theta,
        epsabs=1e-15, epsrel=1e-13, limit=400,
    )
    assert err < 1e-13
    return -val


def oracle_tetrahedron_volume() -> float:
    """3 * Lobachevsky(pi/3): dihedral angles of the regular ideal
    tetrahedron are all pi/3 and an ideal tetrahedron's volume is the sum
    of the Lobachevsky values of its angles."""
    return 3.0 * oracle_lobachevsky(math.pi / 3.0)


def oracle_four_catalan() -> float:
    """4 * sum (-1)^n / (2n+1)^2 with an asymptotic tail correction:
    sum_{n>=N} (-1)^n f(n) = (-1)^N [f(N)/2 - f'(N)/4 + f'''(N)/48 - ...]."""
    n_terms = 4000
    s = 0.0
    for n in range(n_terms - 1, -1, -1):  # small terms first
        s += (-1.0) ** n / (2 * n + 1) ** 2

    def f(x):
        return 1.0 / (2.0 * x + 1.0) ** 2

    def f1(x):
        return -4.0 / (2.0 * x + 1.0) ** 3

    def f3(x):
        return -192.0 / (2.0 * x + 1.0) ** 5

    n = float(n_terms)
    tail = ((-1.0) ** n_terms) * (f(n) / 2.0 - f1(n) / 4.0 + f3(n) / 48.0)
    return 4.0 * (s + tail)


class TestConstants:
    def test_v3_matches_quadrature(self):
        assert abs(constants().v3 - oracle_tetrahedron_volume()) <= 1e-12

    def test_v3_half_angle_identity(self):
        # 2 * Lobachevsky(pi/6) gives the same constant
        assert abs(constants().v3 - 2.0 * oracle_lobachevsky(math.pi / 6)) <= 1e-12

    def test_four_catalan_matches_series(self):
        assert abs(constants().four_catalan - oracle_four_catalan()) <= 1e-12

    def test_four_catalan_octahedron_identity(self):
        # the regular ideal octahedron's volume is 8 * Lobachevsky(pi/4) = 4G
        assert abs(constants().four_catalan - 8.0 * oracle_lobachevsky(math.pi / 4)) <= 1e-12

    def test_positive_and_ordered(self):
        c = constants()
        assert 0 < c.v3 < c.four_catalan

    def test_pinned_digits(self):
        c = constants()
        assert abs(c.v3 - 1.014941606409653) <= 1e-12
        assert abs(c.four_catalan - 3.663862376708876) <= 1e-12


class TestBoundFormulas:
    def test_bitwise_formula_range(self):
        v3 = constants().v3
        for t in range(1, 101):
            w = twist_volume_bounds(t)
            assert w.lower_raw == v3 * (t - 2)
            assert w.lower == max(0.0, v3 * (t - 2))
            assert w.upper == 10.0 * v3 * (t - 1)
            u, _ = augmented_volume_bounds(t)
            assert u.upper == 10.0 * v3 * (5 * t - 1)

    def test_small_t(self):
        w = twist_volume_bounds(1)
        assert w.lower == 0.0 and w.lower_raw < 0.0 and w.upper == 0.0
        w2 = twist_volume_bounds(2)
        assert w2.lower == 0.0
        assert w2.upper == pytest.approx(10.149416064096537, abs=1e-9)
        w4 = twist_volume_bounds(4)
        assert w4.lower == pytest.approx(2.029883213, abs=1e-8)
        assert w4.upper == pytest.approx(30.448248192, abs=1e-8)

    def test_monotone_and_width(self):
        v3 = constants().v3
        prev = twist_volume_bounds(1)
        for t in range(2, 60):
            w = twist_volume_bounds(t)
            assert w.lower >= prev.lower and w.upper >= prev.upper
            assert w.upper - w.lower_raw == pytest.approx(v3 * (9 * t - 8), rel=1e-12)
            prev = w

    def test_trefoil_reference(self):
        # minimal twist number 1: the known augmentation volume (four
        # Catalan) sits below the upper bound 40 v3
        u, _ = augmented_volume_bounds(1)
        assert u.upper == pytest.approx(40 * constants().v3, rel=1e-15)
        assert constants().four_catalan <= u.upper

    def test_claimed_lower(self):
        u, lo = augmented_volume_bounds(4, t_lower_claim=3)
        assert lo is not None
        assert lo.lower == pytest.approx(constants().v3, rel=1e-12)
        assert lo.upper == u.upper

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            twist_volume_bounds(0)
        with pytest.raises(DomainError):
            augmented_volume_bounds(0)
        with pytest.raises(DomainError):
            augmented_volume_bounds(2, t_lower_claim=0)
        with pytest.raises(DomainError):
            augmented_volume_bounds(2, t_lower_claim=3)


class TestVolumeReport:
    def test_report_on_pipeline_output(self):
        (seed, d), = corpus_diagrams(1)
        res = augment(d)
        rep = volume_report(res)
        v3 = constants().v3
        assert rep["vol_upper"] == 10 * v3 * (res.t_G - 1)
        assert rep["altvol_upper"] == 10 * v3 * (5 * res.t_D - 1)
        assert rep["vol_upper"] <= rep["altvol_upper"]
        assert all(rep["audit"].values())

    def test_report_with_claim(self):
        # the report carries no claimed lower window; a claim goes through
        # augmented_volume_bounds, whose upper window is the report's
        (seed, d), = corpus_diagrams(1)
        res = augment(d)
        rep = volume_report(res)
        assert "altvol_lower" not in rep
        upper, lower = augmented_volume_bounds(res.t_D, t_lower_claim=1)
        assert upper.upper == rep["altvol_upper"] == lower.upper
        assert (lower.t, lower.lower, lower.kind) == (1, 0.0, "augmented_lower")

    def test_not_certified_rejected(self):
        class Fake:
            class certificate:
                verdict = "not_certified"

        with pytest.raises(NotCertified):
            volume_report(Fake())
