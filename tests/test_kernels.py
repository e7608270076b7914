"""Kernel normalization, rescaling, tails and the derived interaction kernel."""

import numpy as np
import pytest

from peribond.kernels import (SPHERE_AREA, KernelSequence, box_kernel, box_sequence,
                              check_assumption_A, check_density_condition,
                              custom_radial, derived_interaction_kernel,
                              fractional_sequence, make_fractional,
                              make_rescaled, radial_integral)
from peribond.materials import MicroPotential, catalog_potential


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
        k = box_kernel(2, radius=0.5)
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

    def test_fractional_sequence_tail_decay(self):
        # closed form: mass outside B(0, delta) is 1 - delta^(p(1-s));
        # the decay is only O(1/n) along s(n) = 1 - 1/(n+1), so the terminal
        # tolerance is matched to the analytic tail
        p = 2.0
        rep = check_assumption_A(fractional_sequence(2, p=p), delta=0.3,
                                 n_max=12, tol=0.2)
        assert rep.passed
        n = np.arange(1, 13)
        s = 1.0 - 1.0 / (n + 1)
        np.testing.assert_allclose(rep.tail, 1.0 - 0.3 ** (p * (1 - s)), rtol=1e-8)

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
        assert box_kernel(1).tail_mass(0.5) == pytest.approx(0.5, rel=1e-9)


class TestDensityCondition:
    def test_box_1d_closed_form(self):
        # int_{|z|>delta} rho(z)/z^2 dz with rho = 1/2 on (-1,1) is 1/delta - 1
        k = box_kernel(1)
        rep = check_density_condition(k, p=2.0)
        expected = 1.0 / rep.deltas - 1.0
        np.testing.assert_allclose(rep.integrals, expected, rtol=1e-9)
        assert rep.passed

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
        rho = derived_interaction_kernel(w)
        np.testing.assert_allclose(rho(np.array([0.3, 1.0])), 8.0)

    def test_cohesive_curvature_scales_with_radius(self):
        w = catalog_potential("cohesive")
        rho = derived_interaction_kernel(w)
        r = np.array([0.25, 0.5, 1.0])
        np.testing.assert_allclose(rho(r), 2.0 * r)

    def test_finite_difference_fallback(self):
        # closed form withheld: the finite-difference route must agree
        base = catalog_potential("mbm_smooth", c=3.0)
        w = MicroPotential("fd", base.k, base.psi, base.c1, base.c2, base.delta0)
        rho = derived_interaction_kernel(w)
        np.testing.assert_allclose(rho(np.array([0.5, 1.0])), 3.0, rtol=1e-5)

    def test_rejects_kink_at_zero(self):
        w = MicroPotential("kink", lambda r: np.ones_like(r),
                           lambda r, s: np.abs(np.asarray(s, dtype=float)),
                           c1=1.0, c2=1.0, delta0=0.1)
        with pytest.raises(ValueError):
            derived_interaction_kernel(w)
