"""Limit-density bound sandwich: closed forms, ordering, invariances,
zero set, coercivity and the lamination upper bound."""

import numpy as np
import pytest

import peribond.density
from helpers import huber_power, rot, tabulated_potential
from peribond.density import (LaminateSearch, _canonical_rows, _monomial_rule,
                              _sphere_average, closed_form_tilde_2d, compute_bounds,
                              density_laminate_upper, density_lower,
                              density_lower_batch, density_tilde,
                              density_tilde_batch, singular_values,
                              zero_set_predicate)
from peribond.grids import SphereQuadrature, sphere_quadrature
from peribond.materials import Potential, power_potential

PHI2 = power_potential(2.0)
Q2 = sphere_quadrature(2, 256)


class TestClosedForm2D:
    @pytest.mark.parametrize("F", [
        np.diag([2.0, 1.0]),
        np.diag([4.0, 0.25]),
        np.diag([0.5, 0.5]),
        3.0 * np.eye(2),
        np.array([[1.2, 0.3], [-0.1, 0.9]]),
    ])
    def test_matches_quadrature(self, F):
        # quartic profile, order-2 strain: the circle average has an exact
        # closed form via the fourth moments of the circle
        got = density_tilde(F, PHI2, 2.0, Q2)
        assert got == pytest.approx(closed_form_tilde_2d(F), rel=1e-12, abs=1e-14)

    def test_spot_value(self):
        # diag(2,1): G-I = diag(3,0), |G-I|^2 = 9, (trG-2)^2/2 = 4.5 -> 27/32
        assert closed_form_tilde_2d(np.diag([2.0, 1.0])) == pytest.approx(27.0 / 32.0)


def one_d_exact_density(t: float, phi: Potential, m: float = 1.0) -> float:
    """The exact limit density in d = 1: Phi(m^-1 (|t|^m - 1)_+)."""
    return float(phi(max((abs(t) ** m - 1.0) / m, 0.0)))


class TestOneD:
    def test_exact_density_values(self):
        assert one_d_exact_density(1.0, PHI2, 1.0) == 0.0
        assert one_d_exact_density(0.5, PHI2, 1.0) == 0.0  # compression is free
        assert one_d_exact_density(2.0, PHI2, 1.0) == pytest.approx(1.0)
        assert one_d_exact_density(2.0, PHI2, 2.0) == pytest.approx(2.25)

    def test_matches_sphere_average_in_1d(self):
        q = sphere_quadrature(1, 2)
        for t in (0.3, 1.0, 1.7):
            F = np.array([[t]])
            assert density_lower(F, PHI2, 1.0, q) == pytest.approx(
                one_d_exact_density(t, PHI2, 1.0), abs=1e-15)


class TestOrderingAndZeroSet:
    @pytest.mark.parametrize("sig", [(0.5, 0.5), (1.5, 0.7), (2.0, 1.0),
                                     (4.0, 0.25), (3.0, 3.0)])
    def test_sandwich_ordering(self, sig):
        b = compute_bounds(np.diag(sig), PHI2, 2.0, order=128)
        assert b.lower <= b.laminate_upper + 1e-9
        assert b.laminate_upper <= b.tilde + 1e-9

    def test_zero_set_boundary(self):
        assert zero_set_predicate(np.diag([0.99, 0.5]))
        assert zero_set_predicate(np.diag([1.0, 1.0]))
        assert not zero_set_predicate(np.diag([1.01, 0.5]))

    def test_lower_vanishes_exactly_on_zero_set(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            sig = rng.uniform(0.05, 1.6, size=2)
            F = rot(rng.uniform(0, 7)) @ np.diag(sig) @ rot(rng.uniform(0, 7))
            val = density_lower(F, PHI2, 2.0, Q2)
            if np.max(sig) <= 1.0:
                assert val == 0.0
            else:
                assert val > 0.0

    def test_lower_equals_tilde_when_all_directions_stretched(self):
        # sigma_min >= 1: |F w| >= 1 everywhere, so the positive part is moot
        for sig in [(1.5, 1.2), (3.0, 3.0), (2.0, 1.0)]:
            F = np.diag(sig)
            assert density_lower(F, PHI2, 2.0, Q2) == pytest.approx(
                density_tilde(F, PHI2, 2.0, Q2), rel=1e-14)


class TestBatchHelpers:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        Fs = rng.uniform(-2, 2, size=(6, 2, 2))
        lo = density_lower_batch(Fs, PHI2, 2.0, Q2)
        ti = density_tilde_batch(Fs, PHI2, 2.0, Q2)
        for k in range(6):
            # batch skips the diag(sigma) canonicalization, so agreement is
            # limited by the orientation sensitivity of the quadrature
            assert lo[k] == pytest.approx(density_lower(Fs[k], PHI2, 2.0, Q2),
                                          rel=1e-5, abs=1e-7)
            assert ti[k] == pytest.approx(density_tilde(Fs[k], PHI2, 2.0, Q2),
                                          rel=1e-5, abs=1e-7)


def reference_average(F, phi, m, q, lower):
    """The stretch |F w| taken as np.linalg.norm(F w) at every quadrature point."""
    t = np.linalg.norm(q.points @ np.asarray(F, dtype=float).T, axis=1)
    arg = (t**m - 1.0) / m
    arg = np.maximum(arg, 0.0) if lower else np.abs(arg)
    return float(np.dot(q.weights, phi(arg)))


def equivalence_matrices(d):
    rng = np.random.default_rng(100 + d)
    Fs = [np.eye(d), np.zeros((d, d))]
    Fs += [rng.uniform(-2.0, 2.0, (d, d)) for _ in range(4)]
    if d == 2:
        Fs += [np.diag([1.0, 0.0]), np.array([[1.0, 1.0], [1.0, 1.0]]),
               np.array([[1.0, -1.0], [-1.0, 1.0]]),
               rot(0.3) @ np.diag([2.0, 0.0]) @ rot(1.1)]
    if d == 3:
        Fs += [np.diag([1.5, 1.0, 0.0]), np.ones((3, 3))]
    return np.array(Fs)


class TestSphereAverageEquivalence:
    """The Gram-matrix sphere average against the |F w| formula it replaced.

    Single-matrix calls average over diag(sigma(F)), batch calls over the raw
    F; the tolerance is relative to the reference plain average of the same
    matrix, with a floor for averages that vanish.
    """

    # order 20 puts circle nodes on both diagonals, the null directions of
    # the singular 2 x 2 matrices, where rounding can make w^T C w negative
    QUADS = {1: sphere_quadrature(1, 2), 2: sphere_quadrature(2, 20),
             3: sphere_quadrature(3, 12)}

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("phi", [power_potential(1.5), PHI2, power_potential(3.0),
                                     huber_power(2.0, 0.5)], ids=lambda p: p.name)
    @pytest.mark.parametrize("m", [1.0, 1.5, 2.0])
    def test_matches_norm_formula(self, d, phi, m):
        q = self.QUADS[d]
        Fs = equivalence_matrices(d)
        batch = {True: density_lower_batch(Fs, phi, m, q),
                 False: density_tilde_batch(Fs, phi, m, q)}
        for k, F in enumerate(Fs):
            canon = np.diag(singular_values(F))
            single = {True: density_lower(F, phi, m, q),
                      False: density_tilde(F, phi, m, q)}
            for lower in (True, False):
                for got, G in ((single[lower], canon), (batch[lower][k], F)):
                    ref = reference_average(G, phi, m, q, lower)
                    tol = 1e-12 * reference_average(G, phi, m, q, False) + 1e-20
                    assert abs(got - ref) <= tol, (F, lower, got, ref)


class TestLaminateFastPath:
    """The node halving and the closed-form candidate Grams of the laminate
    search, each against the explicit computation it stands for."""

    @pytest.mark.parametrize("phi", [power_potential(1.5), PHI2], ids=lambda p: p.name)
    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_odd_order_keeps_the_full_rule(self, phi, m):
        # at an odd order no node has its antipode in the rule
        q = sphere_quadrature(2, 21)
        assert peribond.density._monomial_rule(q)[0].shape == (3, 21)
        assert peribond.density._monomial_rule(sphere_quadrature(2, 20))[0].shape == (3, 10)
        Fs = equivalence_matrices(2)
        batch = density_tilde_batch(Fs, phi, m, q)
        for k, F in enumerate(Fs):
            canon = np.diag(singular_values(F))
            ref = reference_average(canon, phi, m, q, False)
            tol = 1e-12 * ref + 1e-20
            assert abs(density_tilde(F, phi, m, q) - ref) <= tol
            assert abs(density_lower(F, phi, m, q)
                       - reference_average(canon, phi, m, q, True)) <= tol
            ref = reference_average(F, phi, m, q, False)
            assert abs(batch[k] - ref) <= 1e-12 * ref + 1e-20

    @staticmethod
    def candidates(seed, count):
        rng = np.random.default_rng(seed)
        sig = np.exp(rng.uniform(np.log(0.25), np.log(4.0), 2))
        lam = rng.uniform(0.0, 1.0, count)
        th_a, th_n = rng.uniform(0.0, 2 * np.pi, (2, count))
        a = rng.uniform(0.0, 2.0, count)[:, None] * np.stack([np.cos(th_a), np.sin(th_a)], -1)
        n = np.stack([np.cos(th_n), np.sin(th_n)], -1)
        return sig, lam, a, n

    @pytest.mark.parametrize("seed", range(5))
    def test_closed_form_rows_match_explicit_matrices(self, seed):
        sig, lam, a, n = self.candidates(seed, 64)
        lin, quad = peribond.density._rank_one_terms(sig, a, n)
        base = np.array([sig[0] ** 2, 0.0, sig[1] ** 2])
        rank1 = a[:, :, None] * n[:, None, :]
        for s in (1.0 - lam, -lam):
            rows = base + s[:, None] * lin + (s * s)[:, None] * quad
            want = peribond.density._gram_rows(np.diag(sig) + s[:, None, None] * rank1)
            np.testing.assert_allclose(rows, want, rtol=0, atol=1e-14 * np.abs(want).max())

    @pytest.mark.parametrize("phi,m", [(PHI2, 2.0), (power_potential(1.5), 1.0)],
                             ids=["p2-m2", "p1.5-m1"])
    def test_candidate_value_matches_reference(self, phi, m):
        sig, lam, a, n = self.candidates(11, 4)
        q = sphere_quadrature(2, 32)
        mag = np.hypot(a[:, 0], a[:, 1])
        for k in range(4):
            f = peribond.density._shear_averages(
                sig, np.arctan2(a[k:k + 1, 1], a[k:k + 1, 0]),
                np.arctan2(n[k:k + 1, 1], n[k:k + 1, 0]),
                np.array([(1 - lam[k]) * mag[k], -lam[k] * mag[k]]), phi, m,
                peribond.density._monomial_rule(q))
            got = lam[k] * f[0, 0] + (1 - lam[k]) * f[1, 0]
            rank1 = np.outer(a[k], n[k])
            F = np.diag(sig)
            want = (lam[k] * reference_average(F + (1 - lam[k]) * rank1, phi, m, q, False)
                    + (1 - lam[k]) * reference_average(F - lam[k] * rank1, phi, m, q, False))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-20)


def full_grid_laminate(F, phi, m, q, search):
    """The laminate search over every angle pair of the coarse grid, with
    each candidate's two matrices built explicitly and averaged by
    ``density_tilde_batch``; the same first-minimum rule and refinement."""
    sig = singular_values(F)
    D = np.diag(sig)

    def evaluate(lams, mags, angs_a, angs_n):
        lam, mag, aa, an = (x.ravel() for x in
                            np.meshgrid(lams, mags, angs_a, angs_n, indexing="ij"))
        a = mag[:, None] * np.stack([np.cos(aa), np.sin(aa)], -1)
        n = np.stack([np.cos(an), np.sin(an)], -1)
        rank1 = a[:, :, None] * n[:, None, :]
        vals = (lam * density_tilde_batch(D + (1 - lam)[:, None, None] * rank1, phi, m, q)
                + (1 - lam) * density_tilde_batch(D - lam[:, None, None] * rank1, phi, m, q))
        k = int(np.argmin(vals))
        return float(vals[k]), (lam[k], mag[k], aa[k], an[k])

    lams = np.linspace(0.0, 1.0, search.n_lambda)[1:-1]
    mags = np.linspace(search.max_mag / search.n_mag, search.max_mag, search.n_mag)
    angs = np.linspace(0.0, np.pi, search.n_angle, endpoint=False)
    best, (bl, bm, ba, bn) = evaluate(lams, mags, angs, angs)
    dl = lams[1] - lams[0] if len(lams) > 1 else 0.1
    dm = mags[1] - mags[0] if len(mags) > 1 else 0.1
    da = angs[1] - angs[0]
    for _ in range(search.refine_rounds):
        step = np.linspace(-1.0, 1.0, 7)
        val, (bl, bm, ba, bn) = evaluate(np.clip(bl + dl * step, 1e-3, 1 - 1e-3),
                                         np.clip(bm + dm * step, 1e-6, None),
                                         ba + da * step, bn + da * step)
        best = min(best, val)
        dl, dm, da = dl / 3, dm / 3, da / 3
    return min(best, density_tilde(D, phi, m, q))


class TestLaminateMirrorOrbits:
    """The coarse laminate grid evaluated once per orbit of the reflection
    diag(1, -1), against the whole grid."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 32])
    def test_kept_pairs_and_mirrors_cover_the_grid_once(self, n):
        ka, kn = peribond.density._mirror_orbit_pairs(n)
        hits = np.zeros((n, n), dtype=int)
        for pair in zip(ka, kn):
            for k in {pair, ((-pair[0]) % n, (-pair[1]) % n)}:
                hits[k] += 1
        assert np.all(hits == 1)
        fixed = 1 if n % 2 else 4
        assert len(ka) == (n * n + fixed) // 2
        assert np.all(np.diff(ka * n + kn) > 0)

    @pytest.mark.parametrize("phi,m", [(PHI2, 2.0), (power_potential(1.5), 1.0)],
                             ids=["p2-m2", "p1.5-m1"])
    def test_mirror_pair_has_the_same_value(self, phi, m):
        # value(lam, (k_a, k_n)) = value(lam', mirror), with lam' = 1 - lam
        # when exactly one index is 0, on the candidates of the coarse grid
        n, sig = 16, np.array([1.7, 0.4])
        ka, kn = (k.ravel() for k in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
        mirror = (-ka) % n * n + (-kn) % n
        ang = np.pi * np.arange(n) / n
        lams = np.linspace(0.0, 1.0, 9)[1:-1]
        f = peribond.density._shear_averages(
            sig, ang[ka], ang[kn], 0.9 * np.concatenate([1.0 - lams, -lams]), phi, m,
            peribond.density._monomial_rule(sphere_quadrature(2, 32)))
        vals = {lam: lam * f[i] + (1.0 - lam) * f[len(lams) + i] for i, lam in enumerate(lams)}
        swap = (ka == 0) != (kn == 0)
        for lam in lams:
            other = np.where(swap, vals[1.0 - lam][mirror], vals[lam][mirror])
            np.testing.assert_allclose(vals[lam], other, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("phi,m", [(PHI2, 2.0), (power_potential(1.5), 1.0)],
                             ids=["p2-m2", "p1.5-m1"])
    def test_matches_full_grid(self, phi, m):
        rng = np.random.default_rng(29)
        Fs = [rot(rng.uniform(0, 7)) @ np.diag(np.exp(rng.uniform(-1.5, 1.4, 2)))
              @ rot(rng.uniform(0, 7)) for _ in range(8)]
        Fs += [np.diag(s) for s in ([0.5, 0.5], [3.0, 3.0], [1.0, 1.0], [1.0, 0.0],
                                    [0.0, 0.0])]
        q = sphere_quadrature(2, 16)
        s = LaminateSearch(n_lambda=9, n_mag=6, n_angle=16, refine_rounds=1)
        below = 0
        for F in Fs:
            tilde = density_tilde(F, phi, m, q)
            want = full_grid_laminate(F, phi, m, q, s)
            got = density_laminate_upper(F, phi, m, q, s)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(tilde)), F
            below += want < tilde
        assert below >= 6  # the search is not merely capped at tilde


class TestLaminateSharedShears:
    """The laminate search averages each distinct shear mu of a candidate's
    two matrices diag(sig) + mu a (x) n once per angle pair; against the
    per-candidate reference."""

    @staticmethod
    def check(phi, m, search):
        rng = np.random.default_rng(31)
        q = sphere_quadrature(2, 16)
        for _ in range(4):
            F = (rot(rng.uniform(0, 7)) @ np.diag(np.exp(rng.uniform(-1.4, 1.4, 2)))
                 @ rot(rng.uniform(0, 7)))
            tilde = density_tilde(F, phi, m, q)
            want = full_grid_laminate(F, phi, m, q, search)
            got = density_laminate_upper(F, phi, m, q, search)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(tilde)), F

    @pytest.mark.parametrize("phi,m", [(PHI2, 2.0), (power_potential(1.5), 1.0)],
                             ids=["p2-m2", "p1.5-m1"])
    def test_default_search_matches_full_grid(self, phi, m):
        self.check(phi, m, LaminateSearch())

    @pytest.mark.parametrize("phi,m", [(PHI2, 2.0), (power_potential(1.5), 1.0)],
                             ids=["p2-m2", "p1.5-m1"])
    @pytest.mark.parametrize("n_lambda", [3, 5])
    @pytest.mark.parametrize("n_mag", [1, 4])
    def test_small_grids_match_full_grid(self, phi, m, n_lambda, n_mag):
        self.check(phi, m, LaminateSearch(n_lambda=n_lambda, n_mag=n_mag, n_angle=8,
                                          refine_rounds=1))

    def test_default_search_averages_each_shear_once(self, monkeypatch):
        rows = []
        average = peribond.density._sphere_average

        def counted(coef, *args, **kwargs):
            rows.append(len(coef))
            return average(coef, *args, **kwargs)

        monkeypatch.setattr(peribond.density, "_sphere_average", counted)
        F, q = rot(0.4) @ np.diag([1.3, 0.6]) @ rot(-0.8), sphere_quadrature(2, 8)
        # lower and tilde at F, then the 83 distinct products k j (k <= 15,
        # j <= 12) of each sign on 514 angle pairs; two averages per
        # candidate took 2 * 15 * 12 * 514 = 185,040
        density_laminate_upper(F, PHI2, 2.0, q, LaminateSearch(refine_rounds=0))
        assert sum(rows) == 2 + 2 * 83 * 514
        # each refinement round: at most 2 * 7 * 7 shears on 7 * 7 pairs
        # (the first round's products can still coincide)
        rows.clear()
        density_laminate_upper(F, PHI2, 2.0, q)
        assert 2 + 85_324 < sum(rows) <= 2 + 85_324 + 2 * 98 * 49


def frame_indifference_check(F, U, phi: Potential, m: float, q: SphereQuadrature,
                             search: LaminateSearch | None = None) -> float:
    """Max deviation of the bound sandwich under left rotation F -> U F."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if np.max(np.abs(U.T @ U - np.eye(U.shape[0]))) > 1e-12:
        raise ValueError("U must be orthogonal")
    F = np.atleast_2d(np.asarray(F, dtype=float))
    UF = U @ F
    devs = [
        abs(density_lower(F, phi, m, q) - density_lower(UF, phi, m, q)),
        abs(density_tilde(F, phi, m, q) - density_tilde(UF, phi, m, q)),
    ]
    if F.shape == (2, 2):
        s = search or LaminateSearch(n_lambda=9, n_mag=6, n_angle=16, refine_rounds=1)
        devs.append(abs(density_laminate_upper(F, phi, m, q, s)
                        - density_laminate_upper(UF, phi, m, q, s)))
    return float(max(devs))


class TestFrameIndifference:
    def test_depends_only_on_singular_values(self):
        # scalar bounds canonicalize to diag(sigma), so two-sided rotations
        # only perturb the answer through singular-value rounding
        F = np.diag([1.8, 0.6])
        for th1, th2 in [(0.3, 1.1), (2.0, -0.4)]:
            G = rot(th1) @ F @ rot(th2)
            assert density_tilde(G, PHI2, 2.0, Q2) == pytest.approx(
                density_tilde(F, PHI2, 2.0, Q2), abs=1e-12)
            assert density_lower(G, PHI2, 2.0, Q2) == pytest.approx(
                density_lower(F, PHI2, 2.0, Q2), abs=1e-12)

    def test_laminate_invariant_to_rotations(self):
        # the lamination search canonicalizes to diag(sigma), so rotations
        # change the answer only through singular-value rounding
        F = np.diag([2.5, 0.4])
        s = LaminateSearch(n_lambda=9, n_mag=6, n_angle=16, refine_rounds=1)
        v1 = density_laminate_upper(F, PHI2, 2.0, Q2, s)
        v2 = density_laminate_upper(rot(0.9) @ F @ rot(-1.7), PHI2, 2.0, Q2, s)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_check_helper(self):
        dev = frame_indifference_check(np.diag([1.4, 0.8]), rot(0.77),
                                       PHI2, 2.0, Q2)
        assert dev < 1e-10

    def test_rejects_nonorthogonal(self):
        with pytest.raises(ValueError):
            frame_indifference_check(np.eye(2), np.diag([1.0, 2.0]),
                                     PHI2, 2.0, Q2)


class TestLaminateUpper:
    def test_identity_relaxes_to_zero(self):
        # F = I sits in the zero set; a lamination between +/- rank-one
        # shears reaches (near) zero energy
        val = density_laminate_upper(np.eye(2), PHI2, 2.0, Q2)
        assert val < 1e-6

    def test_strict_improvement_inside_unit_ball(self):
        # short matrices relax: the plain average is positive but the
        # relaxed density vanishes, and one lamination level already helps
        F = np.diag([0.5, 0.5])
        tilde = density_tilde(F, PHI2, 2.0, Q2)
        lam = density_laminate_upper(F, PHI2, 2.0, Q2)
        assert lam < tilde - 1e-3
        assert lam >= density_lower(F, PHI2, 2.0, Q2)

    def test_no_improvement_far_out(self):
        # strongly stretched matrices: the plain average is already optimal
        F = 3.0 * np.eye(2)
        tilde = density_tilde(F, PHI2, 2.0, Q2)
        assert density_laminate_upper(F, PHI2, 2.0, Q2) == pytest.approx(
            tilde, abs=1e-12)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            density_laminate_upper(np.eye(3), PHI2, 2.0, sphere_quadrature(3, 32))

    def test_raises_when_below_lower_bound(self, monkeypatch):
        # the sandwich guard must survive python -O, so it is no assert
        monkeypatch.setattr(peribond.density, "density_lower", lambda *a, **k: 1e9)
        s = LaminateSearch(n_lambda=5, n_mag=4, n_angle=8, refine_rounds=0)
        with pytest.raises(RuntimeError, match="below the lower bound"):
            density_laminate_upper(np.diag([1.5, 0.25]), PHI2, 2.0, Q2, s)

    @pytest.mark.parametrize("field,value", [
        ("n_angle", 0), ("n_angle", 1), ("n_lambda", 2), ("n_mag", 0),
        ("max_mag", 0.0), ("max_mag", -1.0), ("refine_rounds", -1)])
    def test_search_rejects_degenerate_grid(self, field, value):
        # each used to end in a bare IndexError or ZeroDivisionError, or to
        # run on an empty or mirrored grid
        with pytest.raises(ValueError, match=f"LaminateSearch.{field} must be"):
            LaminateSearch(**{field: value})

    def test_compute_bounds_evaluates_each_average_once(self, monkeypatch):
        # the laminate search takes compute_bounds' own lower and tilde
        calls = {"density_lower": 0, "density_tilde": 0}
        for name, fn in [(n, getattr(peribond.density, n)) for n in calls]:
            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(peribond.density, name, counted)
        F = rot(0.3) @ np.diag([1.5, 0.25]) @ rot(-1.1)
        b = compute_bounds(F, PHI2, 2.0, order=64)
        assert calls == {"density_lower": 1, "density_tilde": 1}
        assert b.lower <= b.laminate_upper <= b.tilde
        alone = density_laminate_upper(F, PHI2, 2.0, sphere_quadrature(2, 64))
        assert b.laminate_upper == pytest.approx(alone, rel=1e-14)


def fit_coercivity_constant(d: int, phi: Potential, m: float = 1.0,
                            order: int = 256, n_samples: int = 64,
                            seed: int = 1234) -> float:
    """Fitted constant C with lower-bound density >= C (|F|^p - 1).

    Minimizes the ratio over a sample of matrices with Frobenius norm in
    [2, 50].
    """
    q = sphere_quadrature(d, order)
    rng = np.random.Generator(np.random.Philox(seed))
    Fs, norms = np.empty((n_samples, d, d)), np.empty(n_samples)
    for k in range(n_samples):
        G = rng.standard_normal((d, d))
        norms[k] = rng.uniform(2.0, 50.0)
        Fs[k] = G * (norms[k] / np.linalg.norm(G))
    lhs = _sphere_average(_canonical_rows(Fs), phi, m, _monomial_rule(q), lower=True)
    return 0.99 * float(np.min(lhs / (norms**phi.p - 1.0)))


def coercivity_check(F, phi: Potential, m: float = 1.0,
                     q: SphereQuadrature | None = None,
                     C: float | None = None):
    """Evaluate both sides of the coercivity inequality with a fitted constant.

    Returns (lhs, rhs, pass).
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    d = F.shape[0]
    if q is None:
        q = sphere_quadrature(d, 256)
    if C is None:
        C = fit_coercivity_constant(d, phi, m, order=len(q.weights) if d == 2 else 256)
    lhs = density_lower(F, phi, m, q)
    rhs = C * (float(np.linalg.norm(F)) ** phi.p - 1.0)
    return lhs, rhs, bool(lhs >= rhs - 1e-12)


class TestCoercivity:
    def test_fitted_constant_holds_on_fresh_sample(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            G = rng.standard_normal((2, 2))
            F = G * (rng.uniform(2.0, 40.0) / np.linalg.norm(G))
            lhs, rhs, ok = coercivity_check(F, PHI2, 1.0, q=Q2)
            assert ok
            assert rhs > 0.0

    def test_constant_follows_the_profile_not_its_name(self):
        # both profiles are named "tabulated"; the constant scales with Phi
        a = np.linspace(0.0, 50.0, 501)
        c1 = fit_coercivity_constant(2, tabulated_potential(a, a**2, 2.0, 1.0, 1.0))
        c5 = fit_coercivity_constant(2, tabulated_potential(a, 5 * a**2, 2.0, 5.0, 5.0))
        assert c1 == pytest.approx(0.1285, abs=1e-4)
        assert c5 == pytest.approx(0.6427, abs=1e-4)
        assert c5 == pytest.approx(5 * c1, rel=1e-12)


class TestSingularValues:
    def test_sorted_descending(self):
        s = singular_values(np.array([[0.0, 2.0], [0.5, 0.0]]))
        np.testing.assert_allclose(s, [2.0, 0.5])
