"""Kernel normalization, rescaling, tails and the interaction kernel Psi''(r, 0)
that a catalog micro-potential carries."""

import numpy as np
import pytest

from helpers import check_assumption_A, check_density_condition, custom_radial, tail_mass
from peribond.kernels import (KernelSequence, box_kernel, box_sequence,
                              make_fractional, make_rescaled, radial_integral)
from peribond.materials import catalog_potential


class TestRadialIntegral:
    def test_polynomial_1d(self):
        # integral of r^2 over (0,1) in d=1 times |S^0| = 2/3
        val = radial_integral(lambda r: r**2, 0.0, 1.0, 1)
        assert val == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_singular_integrand(self):
        # r^(-1/2) * r * 2pi over (0,1) in d=2 -> 2pi * 2/3
        val = radial_integral(lambda r: r**-0.5, 0.0, 1.0, 2)
        assert val == pytest.approx(2 * np.pi * 2.0 / 3.0, rel=1e-9)

    def test_annulus(self):
        val = radial_integral(lambda r: np.ones_like(r), 0.5, 1.0, 3)
        assert val == pytest.approx(4 * np.pi / 3 * (1 - 0.125), rel=1e-12)


class TestMassNormalization:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_box_mass(self, d):
        assert box_kernel(d).mass() == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("d,delta", [(1, 0.1), (2, 0.25), (3, 0.5)])
    def test_rescaled_mass(self, d, delta):
        k = make_rescaled(box_kernel(d), delta)
        assert k.mass() == pytest.approx(1.0, abs=1e-9)
        assert k.support_radius == pytest.approx(delta)

    @pytest.mark.parametrize("d,s,p", [(1, 0.5, 2.0), (2, 0.5, 2.0),
                                       (2, 0.9, 2.0), (3, 0.25, 3.0),
                                       (2, 0.99, 4.0)])
    def test_fractional_mass(self, d, s, p):
        k = make_fractional(d, s, p)
        assert k.mass() == pytest.approx(1.0, abs=1e-6)

    def test_fractional_validation(self):
        with pytest.raises(ValueError):
            make_fractional(2, 1.0, 2.0)
        with pytest.raises(ValueError):
            make_fractional(2, 0.5, 1.0)

    def test_custom_radial_normalizes(self):
        k = custom_radial(2, lambda r: np.exp(-r), 1.0)
        assert k.mass() == pytest.approx(1.0, abs=1e-9)


class TestEvaluation:
    def test_outside_support_is_zero(self):
        k = make_rescaled(box_kernel(2), 0.5)
        np.testing.assert_array_equal(k(np.array([0.51, 1.0, 2.0])), 0.0)

    def test_origin_is_zero_by_convention(self):
        k = make_fractional(2, 0.5, 2.0)
        assert k(np.array([0.0]))[0] == 0.0

    def test_rescaled_pointwise(self):
        base = box_kernel(1)
        k = make_rescaled(base, 0.1)
        assert k(np.array([0.05]))[0] == pytest.approx(base(np.array([0.5]))[0] / 0.1)


class TestTails:
    def test_box_sequence_tail_decay(self):
        rep = check_assumption_A(box_sequence(1), delta=0.3, n_max=10)
        assert rep.passed
        assert rep.tail[-1] == 0.0

    def test_tail_that_rises_late_fails(self):
        # box horizons 0.5, 0.4, 0.9, 0.35, 0.8, 0.31: the tails outside 0.3
        # are 1 - 0.3/delta_n, ending below tol but rising at n = 5
        horizons = (0.5, 0.4, 0.9, 0.35, 0.8, 0.31)
        seq = KernelSequence(lambda n: make_rescaled(box_kernel(1), horizons[n - 1]))
        rep = check_assumption_A(seq, delta=0.3, n_max=6, tol=0.5)
        np.testing.assert_allclose(rep.tail, [1.0 - 0.3 / h for h in horizons], rtol=1e-9)
        assert not rep.passed

    def test_tail_mass_box(self):
        # 1D box on (-1,1): mass outside (-1/2, 1/2) is 1/2
        assert tail_mass(box_kernel(1), 0.5) == pytest.approx(0.5, rel=1e-9)


class TestDensityCondition:
    def test_fractional_passes(self):
        rep = check_density_condition(make_fractional(2, 0.5, 2.0), p=2.0)
        assert rep.passed

    def test_bounded_compact_kernel_with_large_p_still_blows_up(self):
        # any unit-mass kernel positive near 0 satisfies the condition for p > d
        rep = check_density_condition(box_kernel(2), p=3.0)
        assert rep.passed


class TestDerivedInteractionKernel:
    def test_quartic_curvature(self):
        w = catalog_potential("quartic")
        np.testing.assert_allclose(w.psi_ss0(np.array([0.3, 1.0])), 8.0)

    def test_cohesive_curvature_scales_with_radius(self):
        w = catalog_potential("cohesive")
        r = np.array([0.25, 0.5, 1.0])
        np.testing.assert_allclose(w.psi_ss0(r), 2.0 * r)
