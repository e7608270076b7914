"""Strain measures, convex profiles and the micro-potential catalog."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peribond.materials import (_FD_STEP, CATALOG_TAGS, MicroPotential, Potential,
                                _fd_psi_ss, catalog_potential, huber_power,
                                power_potential, quartic_potential, strain,
                                tabulated_potential)


class TestStrain:
    def test_m1_is_stretch_minus_one(self):
        np.testing.assert_allclose(strain(1.0, np.array([0.5, 1.0, 2.0])),
                                   [-0.5, 0.0, 1.0])

    def test_m1_shortcut_matches_general_formula(self):
        t = np.concatenate([[0.0, 1.0, 1e-300, 1e300],
                            np.random.default_rng(3).uniform(0.0, 5.0, 1000)])
        np.testing.assert_array_equal(strain(1.0, t), (t**1.0 - 1.0) / 1.0)

    def test_m2_quadratic(self):
        np.testing.assert_allclose(strain(2.0, np.array([1.0, 2.0])), [0.0, 1.5])

    def test_all_m_vanish_at_rest(self):
        for m in (1.0, 1.5, 2.0, 3.0):
            assert strain(m, 1.0) == pytest.approx(0.0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=1.0, max_value=4.0),
           st.floats(min_value=0.05, max_value=5.0))
    def test_monotone_in_stretch(self, m, t):
        assert strain(m, t + 0.01) > strain(m, t)


def strain_taylor(m: float, nu: np.ndarray, zeta: np.ndarray, eps: float):
    """Split s_m(|nu + eps*zeta|) into its linear part and scaled remainder.

    Returns ``(eps * nu.zeta, psi)`` where the full strain equals
    ``eps * nu.zeta + eps**2 * psi``.  At eps = 0 the remainder limit
    (|zeta|^2 + (m - 2) (nu.zeta)^2) / 2 is returned.
    """
    nu = np.asarray(nu, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if abs(np.linalg.norm(nu) - 1.0) > 1e-12:
        raise ValueError("nu must be a unit vector")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    a = float(nu @ zeta)
    linear = eps * a
    if eps == 0.0:
        psi = 0.5 * (float(zeta @ zeta) + (m - 2.0) * a * a)
        return 0.0, psi
    t = np.linalg.norm(nu + eps * zeta)
    s = strain(m, t)
    return linear, (s - linear) / eps**2


class TestStrainTaylor:
    def test_limit_closed_form(self):
        # eps = 0 returns the quadratic remainder (|z|^2 + (m-2)(n.z)^2)/2
        nu = np.array([1.0, 0.0])
        zeta = np.array([0.7, -0.4])
        for m in (1.0, 2.0, 3.0):
            lin, psi = strain_taylor(m, nu, zeta, 0.0)
            assert lin == 0.0  # the linear part eps * (nu.zeta) vanishes with eps
            expected = (zeta @ zeta + (m - 2) * (nu @ zeta) ** 2) / 2
            assert psi == pytest.approx(expected)

    def test_remainder_exact_for_m2(self):
        # s_2(|nu + eps z|) = eps nu.z + eps^2 |z|^2/2 identically
        nu = np.array([0.0, 1.0])
        zeta = np.array([0.3, 0.5])
        _, psi0 = strain_taylor(2.0, nu, zeta, 0.0)
        for e in (0.3, 0.1, 0.05):
            # cancellation in (s - linear)/eps^2 limits attainable accuracy
            _, psi = strain_taylor(2.0, nu, zeta, e)
            assert psi == pytest.approx(psi0, abs=1e-10)

    def test_finite_eps_converges_to_limit(self):
        nu = np.array([0.0, 1.0])
        zeta = np.array([0.3, 0.5])
        m = 3.0
        _, psi0 = strain_taylor(m, nu, zeta, 0.0)
        errs = [abs(strain_taylor(m, nu, zeta, e)[1] - psi0)
                for e in (0.1, 0.05, 0.025)]
        assert errs[0] > errs[1] > errs[2]
        # first-order remainder: error ratio about 2 per halving
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.35)


def check_growth(potential: Potential, n_samples: int = 200) -> bool:
    """Sampled check of C0 (a^p - 1) <= Phi(a) <= C1 (1 + a^p)."""
    a = np.logspace(-3, 3, n_samples)
    phi = potential.func(a)
    lower = potential.C0 * (a**potential.p - 1.0)
    upper = potential.C1 * (1.0 + a**potential.p)
    slack = 1e-12 * (1.0 + np.abs(phi))
    return bool(np.all(phi >= lower - slack) and np.all(phi <= upper + slack))


def check_convex(potential: Potential, n_samples: int = 400) -> bool:
    a = np.linspace(0.0, 8.0, n_samples)
    phi = potential.func(a)
    d2 = np.diff(phi, 2)
    return bool(np.all(d2 >= -1e-10 * (1.0 + np.abs(phi[1:-1]))))


class TestPotentials:
    def test_power_growth_and_convexity(self):
        phi = power_potential(2.0)
        assert check_growth(phi)
        assert check_convex(phi)
        assert phi(2.0) == pytest.approx(4.0)
        assert phi.d(3.0) == pytest.approx(6.0)

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
    def test_power_derivative_matches_guarded_form(self, p):
        # Phi'(a) = s p max(a, 0)^(p-1) equals the form that guarded a <= 0
        # with a where/mask pair, bit for bit, 0 and negative a included
        a = np.concatenate([np.linspace(-2.0, 3.0, 1001), [0.0, 5e-324, 1e-300, 1e100],
                            -np.logspace(-300, 2, 50), np.logspace(-300, 2, 50)])
        for scale in (1.0, 4.0):
            old = scale * p * np.where(a > 0, a, 1.0) ** (p - 1) * (a > 0)
            got = power_potential(p, scale).d(a)
            assert got.tobytes() == old.tobytes()
            assert power_potential(p, scale).d(0.0) == 0.0

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("a0", [0.3, 1.0, 2.5])
    def test_huber_derivative_matches_guarded_form(self, p, a0):
        # below a0, Phi'(a) = p max(a, 0)^(p-1) equals the where/mask form
        # bit for bit on [0, 2 a0], with 0 and a0 on the grid
        a = np.concatenate([np.linspace(0.0, 2.0 * a0, 1001), [0.0, a0, 5e-324, 1e-300]])
        d0 = power_potential(p).d(a0)
        old = np.where(a <= a0, p * np.where(a > 0, a, 1.0) ** (p - 1) * (a > 0), d0)
        assert huber_power(p, a0).d(a).tobytes() == old.tobytes()
        assert huber_power(p, a0).d(0.0) == 0.0

    def test_quartic_is_scaled_square(self):
        phi = quartic_potential()
        assert phi(0.5) == pytest.approx(1.0)
        assert phi.p == 2.0

    def test_huber_has_no_growth_constant(self):
        phi = huber_power(2.0, a0=0.5)
        assert phi.C0 == 0.0
        assert phi.smooth_at_zero
        # quadratic below a0, affine-quadratic crossover above
        assert phi(0.25) == pytest.approx(0.25**2)

    def test_tabulated_requires_convexity(self):
        a = np.linspace(0.0, 2.0, 20)
        phi = tabulated_potential(a, a**2, p=2.0, C0=1.0, C1=1.0)
        assert phi(1.0) == pytest.approx(1.0, rel=1e-2)
        with pytest.raises(ValueError):
            tabulated_potential(a, np.abs(np.sin(3 * a)), p=2.0, C0=0.0, C1=1.0)

    def test_tabulated_continues_past_the_table(self):
        # past the last sample the profile continues along the last slope,
        # so the value and the derivative still agree
        a = np.linspace(0.0, 1.0, 11)
        phi = tabulated_potential(a, a**2, p=2.0, C0=1.0, C1=1.0)
        h = 1e-6
        for x in (1.5, 3.0):
            fd = (phi(x + h) - phi(x - h)) / (2 * h)
            assert fd == pytest.approx(phi.d(x), rel=1e-6)
            assert phi(x) == pytest.approx(1.0 + 1.9 * (x - 1.0), rel=1e-12)


class TestQuarticIdentity:
    def test_stretch_form_equals_strain_form(self):
        # (t^2 - 1)^2 written via the order-2 strain: 4 * s2^2
        t = np.linspace(0.1, 3.0, 50)
        s2 = strain(2.0, t)
        np.testing.assert_allclose(4.0 * s2**2, (t**2 - 1.0) ** 2, rtol=1e-12)

    def test_catalog_quartic_psi_matches(self):
        w = catalog_potential("quartic")
        s = np.linspace(-0.9, 2.0, 40)
        np.testing.assert_allclose(w.psi(np.ones_like(s), s),
                                   ((1 + s) ** 2 - 1) ** 2, rtol=1e-12)


def conformance_report(w: MicroPotential, s0: float | None = None,
                       n_samples: int = 201) -> dict:
    """Sampled check of the structural conditions on Psi; ``s0`` is the
    strain threshold or second well the entry was built with, if any.

    Keys: ``zero_at_rest``, ``zero_slope_at_rest``, ``positive_curvature``,
    ``positive_away_from_zero``, ``hooke_lower_bound``,
    ``bounded_curvature``, ``force_vanishes_at_threshold``.
    """
    r = np.asarray([0.5, 1.0])
    report = {}
    report["zero_at_rest"] = bool(np.max(np.abs(w.psi(r, np.zeros(2)))) < 1e-12)
    h = _FD_STEP
    slope = (w.psi(r, np.full(2, h)) - w.psi(r, np.full(2, -h))) / (2 * h)
    report["zero_slope_at_rest"] = bool(np.max(np.abs(slope)) < 1e-6)
    try:
        curv0 = w.second_derivative_at_zero(r)
        report["positive_curvature"] = bool(np.min(curv0) > 0)
    except ValueError:
        report["positive_curvature"] = False

    s = np.linspace(-0.9, 4.0, n_samples)
    if s0 is not None:
        s = np.append(s, s0)
    s = s[np.abs(s) > 1e-3]
    vals = w.psi(np.full_like(s, 1.0), s)
    report["positive_away_from_zero"] = bool(np.min(vals) > 0)

    s_small = np.linspace(-w.delta0, w.delta0, 101)
    s_small = s_small[np.abs(s_small) > 0]
    hooke = w.psi(np.full_like(s_small, 1.0), s_small) >= w.c1 * s_small**2 - 1e-12
    report["hooke_lower_bound"] = bool(np.all(hooke))

    curv = np.array([_fd_psi_ss(w.psi, 1.0, float(ss)) for ss in s_small[::10]])
    report["bounded_curvature"] = bool(np.all(np.abs(curv) <= w.c2 + 1e-6))

    if s0 is not None:
        dpsi = (w.psi(np.ones(1), np.asarray([s0 + h])) -
                w.psi(np.ones(1), np.asarray([s0 - h]))) / (2 * h)
        report["force_vanishes_at_threshold"] = bool(abs(float(np.ravel(dpsi)[0])) < 1e-3)
    else:
        report["force_vanishes_at_threshold"] = False
    return report


class TestCatalog:
    @pytest.mark.parametrize("tag", sorted(CATALOG_TAGS))
    def test_structural_conditions(self, tag):
        w = catalog_potential(tag)
        rep = conformance_report(w)
        assert rep["zero_at_rest"]
        assert rep["zero_slope_at_rest"]
        assert rep["positive_curvature"]
        assert rep["hooke_lower_bound"]

    def test_two_well_vanishes_at_second_well(self):
        w = catalog_potential("two_well", s0=0.5)
        assert not conformance_report(w, s0=0.5)["positive_away_from_zero"]

    def test_mbm_force_plateau(self):
        w = catalog_potential("mbm", s0=0.1, c=2.0)
        s = np.array([0.2, 1.0, 5.0])
        np.testing.assert_allclose(w.psi(np.ones_like(s), s), 0.5 * 2.0 * 0.1**2)

    def test_curvatures_at_rest(self):
        assert catalog_potential("quartic").psi_ss0(np.ones(1))[0] == pytest.approx(8.0)
        assert catalog_potential("mbm_smooth", c=2.0).psi_ss0(np.ones(1))[0] == pytest.approx(2.0)
        assert catalog_potential("cohesive").psi_ss0(np.array([0.5]))[0] == pytest.approx(1.0)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            catalog_potential("nope")

    def test_cohesive_fprime0_needs_its_profile(self):
        with pytest.raises(ValueError, match="fprime0"):
            catalog_potential("cohesive", fprime0=7.0)
        w = catalog_potential("cohesive", f=lambda x: 7.0 * x / (1.0 + x), fprime0=7.0)
        assert w.psi_ss0(np.array([0.5]))[0] == pytest.approx(7.0)
        assert (w.c1, w.c2) == (7.0 / 4, 28.0)


def rescaled_micro_energy(w: MicroPotential, m: float, xi: np.ndarray,
                          zeta: np.ndarray, eps: float) -> float:
    """Quadratically rescaled bond energy eps^-2 w(xi, s_m(|nu + eps zeta|)).

    As eps -> 0 this converges to k(|xi|) * Psi_ss(|xi|, 0) * (zeta.nu)^2
    with nu = xi/|xi|, the integrand of the linearized energy.
    """
    xi = np.asarray(xi, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if eps <= 0:
        raise ValueError("eps must be positive")
    r = np.linalg.norm(xi)
    if r == 0:
        raise ValueError("xi must be nonzero")
    nu = xi / r
    t = np.linalg.norm(nu + eps * zeta)
    if t <= 0:
        raise ValueError("strain outside its domain: zero stretch")
    s = strain(m, t)
    return float(w.k(np.asarray(r)) * w.psi(np.asarray(r), np.asarray(s))) / eps**2


class TestRescaledMicroEnergy:
    def test_converges_to_quadratic_integrand(self):
        w = catalog_potential("quartic")
        xi = np.array([0.5, 0.0])
        zeta = np.array([0.4, 0.3])
        nu = xi / np.linalg.norm(xi)
        target = w.k(np.linalg.norm(xi)) * 8.0 * (zeta @ nu) ** 2 / 2.0 * 2.0
        # Psi''(0)/2 * (2 (z.n))^2 / 2 ... express via the helper directly:
        vals = [rescaled_micro_energy(w, 1.0, xi, zeta, e) for e in (0.1, 0.05, 0.025)]
        errs = np.abs(np.asarray(vals) - vals[-1])
        assert errs[0] > errs[1]

    def test_exact_for_quadratic_psi(self):
        w = catalog_potential("mbm_smooth", c=2.0)
        xi = np.array([1.0])
        zeta = np.array([0.3])
        v1 = rescaled_micro_energy(w, 1.0, xi, zeta, 1e-3)
        # limit: k * c * (z.n)^2 / ... the eps-independence of the quadratic case
        v2 = rescaled_micro_energy(w, 1.0, xi, zeta, 1e-6)
        assert v1 == pytest.approx(v2, rel=1e-2)
