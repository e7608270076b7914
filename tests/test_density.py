"""Limit-density bound sandwich: closed forms, ordering, invariances,
zero set, coercivity and the lamination upper bound."""

import tracemalloc

import numpy as np
import pytest

import peribond.density
from helpers import huber_power, rot, set_laminate_grid, tabulated_potential
from peribond.density import (_eigenvalues, _orthant_rule, _sphere_average,
                              closed_form_tilde_2d, compute_bounds, density_lower,
                              density_lower_batch, density_tilde,
                              density_tilde_batch, singular_values,
                              zero_set_predicate)
from peribond.grids import SphereQuadrature, sphere_quadrature
from peribond.materials import Potential, power_potential

PHI2 = power_potential(2.0)
ORDER2 = 256
Q2 = sphere_quadrature(2, ORDER2)


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

    @pytest.mark.parametrize("F", [[[2.0]], np.eye(3), np.ones((3, 2)),
                                   np.ones((2, 3))],
                             ids=["1x1", "3x3", "3x2", "2x3"])
    def test_rejects_other_shapes(self, F):
        # a 1 x 1 Gram used to broadcast against eye(2) and return 3.25; a
        # 3 x 2 F has a 2 x 2 Gram and used to return 2.125
        with pytest.raises(ValueError, match="d = 2"):
            closed_form_tilde_2d(F)


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
        # both average over the eigenvalues of F^T F, so only the order of
        # the sums can differ
        rng = np.random.default_rng(4)
        for q, phi, m in ((Q2, PHI2, 2.0), (sphere_quadrature(3, 16), power_potential(1.5), 1.0)):
            d = q.points.shape[1]
            Fs = rng.uniform(-2, 2, size=(6, d, d))
            lo = density_lower_batch(Fs, phi, m, q)
            ti = density_tilde_batch(Fs, phi, m, q)
            for k in range(6):
                assert lo[k] == pytest.approx(density_lower(Fs[k], phi, m, q),
                                              rel=1e-12, abs=1e-20)
                assert ti[k] == pytest.approx(density_tilde(Fs[k], phi, m, q),
                                              rel=1e-12, abs=1e-20)

    def test_two_dimensional_calls_make_no_svd(self, monkeypatch):
        # 2 x 2 Grams have closed-form eigenvalues: no LAPACK call, and no
        # memory its first batched call would take
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        Fs = np.random.default_rng(5).uniform(-2, 2, size=(6, 2, 2))
        want = density_tilde_batch(Fs, PHI2, 2.0, Q2)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        assert np.array_equal(density_tilde_batch(Fs, PHI2, 2.0, Q2), want)
        assert np.all(density_lower_batch(Fs, PHI2, 2.0, Q2) <= want)
        with pytest.raises(AssertionError, match="svd"):
            density_tilde_batch(np.eye(3)[None], PHI2, 2.0, sphere_quadrature(3, 8))

    @pytest.mark.parametrize("lower", [True, False], ids=["lower", "tilde"])
    def test_large_batch_is_averaged_in_chunks(self, lower):
        # 4,096 3D matrices at order 64 (1,024 kept nodes) held 96 MiB of
        # tracemalloc as one (B, Q) array; the chunks hold well under 8 MiB
        Fs = np.eye(3) + 0.4 * np.random.default_rng(5).standard_normal((4096, 3, 3))
        q, phi = sphere_quadrature(3, 64), power_potential(1.5)
        batch = density_lower_batch if lower else density_tilde_batch
        tracemalloc.start()
        try:
            got = batch(Fs, phi, 1.0, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        whole = _sphere_average(_eigenvalues(Fs), phi, 1.0, _orthant_rule(q), lower=lower)
        np.testing.assert_allclose(got, whole, rtol=1e-12, atol=0)

    def test_localize_size_batch_is_one_chunk(self, monkeypatch):
        # localize_2d averages 529 gradients at order 64 in one call, bit for bit
        Fs = np.eye(2) + 0.3 * np.random.default_rng(6).standard_normal((529, 2, 2))
        q = sphere_quadrature(2, 64)
        whole = _sphere_average(_eigenvalues(Fs), PHI2, 2.0, _orthant_rule(q))
        calls = []

        def counted(lam, *args, **kwargs):
            calls.append(len(lam))
            return _sphere_average(lam, *args, **kwargs)

        monkeypatch.setattr(peribond.density, "_sphere_average", counted)
        assert np.array_equal(density_tilde_batch(Fs, PHI2, 2.0, q), whole)
        assert calls == [529]


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
    """The eigenvalue sphere average against the |F w| formula at diag(sigma(F)).

    Single and batch calls both average in the eigenbasis of F^T F, where F
    is diag(sigma(F)); the tolerance is relative to the reference plain
    average, with a floor for averages that vanish.
    """

    # order 20 puts circle nodes on both diagonals, the null directions of
    # the singular 2 x 2 matrices in their raw orientation
    QUADS = {1: sphere_quadrature(1, 2), 2: sphere_quadrature(2, 20),
             3: sphere_quadrature(3, 12)}

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("phi", [power_potential(1.5), PHI2, power_potential(3.0),
                                     huber_power(2.0, 0.5)],
                             ids=["power(p=1.5, scale=1.0)", "power(p=2.0, scale=1.0)",
                                  "power(p=3.0, scale=1.0)", "huber(p=2.0, a0=0.5)"])
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
                ref = reference_average(canon, phi, m, q, lower)
                tol = 1e-12 * reference_average(canon, phi, m, q, False) + 1e-20
                for got in (single[lower], batch[lower][k]):
                    assert abs(got - ref) <= tol, (F, lower, got, ref)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("m", [1.0, 1.5, 2.0])
    def test_singular_matrix_keeps_every_digit(self, p, m):
        # circle nodes on the null direction of [[1, -1], [-1, 1]]: the
        # sqrt of a rounded w^T C w kept only half the digits of |F w| there
        F = np.array([[1.0, -1.0], [-1.0, 1.0]])
        phi, q = power_potential(p), self.QUADS[2]
        canon = np.diag(singular_values(F))
        tilde = reference_average(canon, phi, m, q, False)
        for lower, batch in ((True, density_lower_batch), (False, density_tilde_batch)):
            got = batch(F[None], phi, m, q)[0]
            assert abs(got - reference_average(canon, phi, m, q, lower)) <= 1e-15 * tilde


class TestOrthantRule:
    """The rule folded onto the closed positive orthant against the whole rule."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("order", [8, 20, 21, 22, 64])
    def test_folded_equals_full_rule(self, d, order):
        q = sphere_quadrature(d, order)
        full = ((q.points**2).T, q.weights)
        lam = np.sort(np.random.default_rng(order).uniform(0.0, 3.0, (20, d)))[:, ::-1]
        for phi, m in ((power_potential(1.5), 1.0), (PHI2, 2.0), (power_potential(3.0), 1.5)):
            tilde = _sphere_average(lam, phi, m, full)
            for lower in (True, False):
                got = _sphere_average(lam, phi, m, _orthant_rule(q), lower)
                want = _sphere_average(lam, phi, m, full, lower)
                assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, tilde))

    @pytest.mark.parametrize("d,order,nodes", [(1, 8, 1), (2, 8, 2), (2, 64, 16), (2, 21, 21),
                                               (2, 22, 6), (3, 21, 121), (3, 64, 1024)])
    def test_node_counts(self, d, order, nodes):
        # the d = 2 rule at odd order has no mirror image and stays whole; at
        # order 22 (and in d = 3 at odd order) nodes on a coordinate axis or
        # plane take split weights
        sq, w = _orthant_rule(sphere_quadrature(d, order))
        assert sq.shape == (d, nodes) and w.shape == (nodes,)
        assert abs(w.sum() - 1.0) <= 1e-14


class TestClosedFormEigenvalues:
    """The closed-form eigenvalues of 2 x 2 Grams against np.linalg.eigvalsh."""

    def test_explicit_matrices(self):
        rng = np.random.default_rng(17)
        Fs = [rng.uniform(-2.0, 2.0, (2, 2)) for _ in range(20)]
        # nearly isotropic, where tr^2 - 4 det^2 would cancel, and singular
        Fs += [rot(0.3) @ np.diag([1.0 + 1e-9, 1.0]) @ rot(1.1), 2.0 * rot(0.7),
               np.eye(2), np.zeros((2, 2)), np.array([[1.0, -1.0], [-1.0, 1.0]]),
               np.array([[1.0, 1.0], [1.0, 1.0]]), rot(0.3) @ np.diag([2.0, 0.0]) @ rot(1.1),
               np.diag([1e-8, 3.0])]
        Fs = np.array(Fs)
        got = _eigenvalues(Fs)
        want = np.linalg.eigvalsh(np.swapaxes(Fs, 1, 2) @ Fs)[:, ::-1]
        assert np.all(np.abs(got - want) <= 4e-16 * want[:, :1])
        assert np.all(got[:, 0] >= got[:, 1]) and np.all(got >= 0.0)
        # the smaller eigenvalue keeps its relative accuracy: det(F)^2 / lambda_1
        sig = np.array([1.0 + 1e-9, 1.0])
        np.testing.assert_allclose(got[20], sig**2, rtol=4e-16, atol=0)
        np.testing.assert_allclose(got[-1], [9.0, 1e-16], rtol=4e-16, atol=0)


class TestLaminateFastPath:
    """The folded rule and the closed-form candidate eigenvalues of the
    laminate search, each against the explicit computation it stands for."""

    @pytest.mark.parametrize("phi", [power_potential(1.5), PHI2],
                             ids=["power(p=1.5, scale=1.0)", "power(p=2.0, scale=1.0)"])
    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_odd_order_keeps_the_full_rule(self, phi, m):
        # at an odd order the circle rule has no mirror image of its nodes
        q = sphere_quadrature(2, 21)
        assert _orthant_rule(q)[0].shape == (2, 21)
        assert _orthant_rule(sphere_quadrature(2, 20))[0].shape == (2, 5)
        Fs = equivalence_matrices(2)
        batch = density_tilde_batch(Fs, phi, m, q)
        for k, F in enumerate(Fs):
            canon = np.diag(singular_values(F))
            ref = reference_average(canon, phi, m, q, False)
            tol = 1e-12 * ref + 1e-20
            assert abs(density_tilde(F, phi, m, q) - ref) <= tol
            assert abs(density_lower(F, phi, m, q)
                       - reference_average(canon, phi, m, q, True)) <= tol
            assert abs(batch[k] - ref) <= tol

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
        # each candidate's average from the closed-form coefficients in mu
        # against the |G w| reference at diag(sigma(G)), G built explicitly;
        # three more candidates are nearly isotropic, singular on an axis
        # and singular off the axes
        sig, lam, a, n = self.candidates(seed, 64)
        th_a = np.concatenate([np.arctan2(a[:, 1], a[:, 0]), [0.0, 0.0, 0.4]])
        th_n = np.concatenate([np.arctan2(n[:, 1], n[:, 0]), [0.0, 0.0, 1.3]])
        unit, normal = (np.stack([np.cos(t), np.sin(t)], -1) for t in (th_a, th_n))
        mag = np.hypot(a[:, 0], a[:, 1])
        det1 = sig[1] * unit[-1, 0] * normal[-1, 0] + sig[0] * unit[-1, 1] * normal[-1, 1]
        q = sphere_quadrature(2, 32)
        for phi, m in ((power_potential(1.5), 1.0), (PHI2, 2.0)):
            for s in (1.0 - lam, -lam):
                mu = np.concatenate([s * mag, [sig[1] - sig[0] + 1e-9, -sig[0],
                                               -sig[0] * sig[1] / det1]])
                got = np.diag(peribond.density._shear_averages(sig, th_a, th_n, mu, phi, m,
                                                               _orthant_rule(q)))
                for k in range(len(mu)):
                    G = np.diag(sig) + mu[k] * np.outer(unit[k], normal[k])
                    want = reference_average(np.diag(singular_values(G)), phi, m, q, False)
                    assert abs(got[k] - want) <= 1e-14 * max(1.0, want), (k, got[k], want)

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
                _orthant_rule(q))
            got = lam[k] * f[0, 0] + (1 - lam[k]) * f[1, 0]
            rank1 = np.outer(a[k], n[k])
            # each matrix averaged at diag(sigma) of itself, as the search does
            canon = [np.diag(singular_values(np.diag(sig) + s * rank1))
                     for s in (1 - lam[k], -lam[k])]
            want = (lam[k] * reference_average(canon[0], phi, m, q, False)
                    + (1 - lam[k]) * reference_average(canon[1], phi, m, q, False))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-20)


def full_grid_laminate(F, phi, m, q, n_lambda, n_mag, max_mag, n_angle, refine_rounds):
    """The laminate search over every angle pair of the coarse grid, with
    each candidate's two matrices built explicitly and averaged by
    ``density_tilde_batch``; the same first-minimum rule and refinement, on
    the grid given by the five numbers that ``set_laminate_grid`` takes."""
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

    lams = np.linspace(0.0, 1.0, n_lambda)[1:-1]
    mags = np.linspace(max_mag / n_mag, max_mag, n_mag)
    angs = np.linspace(0.0, np.pi, n_angle, endpoint=False)
    best, (bl, bm, ba, bn) = evaluate(lams, mags, angs, angs)
    dl, dm, da = 1.0 / (n_lambda - 1), max_mag / n_mag, angs[1] - angs[0]
    for _ in range(refine_rounds):
        step = np.linspace(-1.0, 1.0, 7)
        val, (bl, bm, ba, bn) = evaluate(np.clip(bl + dl * step, 1e-3, 1 - 1e-3),
                                         np.clip(bm + dm * step, 1e-6, None),
                                         ba + da * step, bn + da * step)
        best = min(best, val)
        dl, dm, da = dl / 3, dm / 3, da / 3
    return min(best, density_tilde(D, phi, m, q))


class TestLaminateMirrorOrbits:
    """The coarse laminate grid evaluated once per orbit of the reflection
    diag(1, -1) and the transpose, against the whole grid."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16, 32])
    def test_kept_pairs_and_mirrors_cover_the_grid_once(self, n):
        # the images of each kept pair under the mirror, the transpose and
        # both; (n^2 + 2n + 4)/4 orbits for even n, ((n + 1)/2)^2 for odd n
        kept = {1: 1, 2: 3, 3: 4, 7: 16, 8: 21, 16: 73, 32: 273}[n]
        ka, kn = peribond.density._mirror_orbit_pairs(n)
        hits = np.zeros((n, n), dtype=int)
        for a, b in zip(ka, kn):
            for k in {(a, b), (-a % n, -b % n), (b, a), (-b % n, -a % n)}:
                hits[k] += 1
        assert np.all(hits == 1)
        assert len(ka) == kept == ((n * n + 2 * n + 4) // 4 if n % 2 == 0 else (n + 1) ** 2 // 4)
        assert np.all(np.diff(ka * n + kn) > 0)
        # each kept pair is the first of its orbit in flat order
        assert all(a * n + b == min(k[0] * n + k[1] for k in
                                    [(a, b), (-a % n, -b % n), (b, a), (-b % n, -a % n)])
                   for a, b in zip(ka, kn))

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
            _orthant_rule(sphere_quadrature(2, 32)))
        vals = {lam: lam * f[i] + (1.0 - lam) * f[len(lams) + i] for i, lam in enumerate(lams)}
        swap = (ka == 0) != (kn == 0)
        for lam in lams:
            other = np.where(swap, vals[1.0 - lam][mirror], vals[lam][mirror])
            np.testing.assert_allclose(vals[lam], other, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("phi,m", [(PHI2, 2.0), (power_potential(1.5), 1.0)],
                             ids=["p2-m2", "p1.5-m1"])
    def test_transpose_pair_has_the_same_value(self, phi, m):
        # (diag(sig) + mu a (x) n)^T = diag(sig) + mu n (x) a: the shear
        # averages at (k_a, k_n) and (k_n, k_a) agree, for every shear
        n, sig = 16, np.array([1.7, 0.4])
        ka, kn = (k.ravel() for k in np.meshgrid(np.arange(n), np.arange(n), indexing="ij"))
        ang = np.pi * np.arange(n) / n
        mus = np.linspace(-1.9, 1.9, 13)
        rule = _orthant_rule(sphere_quadrature(2, 32))
        f = peribond.density._shear_averages(sig, ang[ka], ang[kn], mus, phi, m, rule)
        g = peribond.density._shear_averages(sig, ang[kn], ang[ka], mus, phi, m, rule)
        np.testing.assert_allclose(f, g, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("phi,m", [(PHI2, 2.0), (power_potential(1.5), 1.0)],
                             ids=["p2-m2", "p1.5-m1"])
    def test_matches_full_grid(self, phi, m, monkeypatch):
        rng = np.random.default_rng(29)
        Fs = [rot(rng.uniform(0, 7)) @ np.diag(np.exp(rng.uniform(-1.5, 1.4, 2)))
              @ rot(rng.uniform(0, 7)) for _ in range(8)]
        Fs += [np.diag(s) for s in ([0.5, 0.5], [3.0, 3.0], [1.0, 1.0], [1.0, 0.0],
                                    [0.0, 0.0])]
        q = sphere_quadrature(2, 16)
        grid = (9, 6, 2.0, 16, 1)
        set_laminate_grid(monkeypatch, *grid)
        below = 0
        for F in Fs:
            tilde = density_tilde(F, phi, m, q)
            want = full_grid_laminate(F, phi, m, q, *grid)
            got = compute_bounds(F, phi, m, 16).laminate_upper
            assert abs(got - want) <= 1e-12 * max(1.0, abs(tilde)), F
            below += want < tilde
        assert below >= 6  # the search is not merely capped at tilde

    @pytest.mark.parametrize("phi,m", [(PHI2, 2.0), (power_potential(1.5), 1.0)],
                             ids=["p2-m2", "p1.5-m1"])
    def test_matches_full_grid_at_odd_angle_count(self, phi, m, monkeypatch):
        # with n odd no pair but (0, 0) is its own mirror
        rng = np.random.default_rng(37)
        Fs = [rot(rng.uniform(0, 7)) @ np.diag(np.exp(rng.uniform(-1.5, 1.4, 2)))
              @ rot(rng.uniform(0, 7)) for _ in range(6)] + [np.diag([0.5, 0.5])]
        q = sphere_quadrature(2, 16)
        grid = (9, 6, 2.0, 7, 1)
        set_laminate_grid(monkeypatch, *grid)
        for F in Fs:
            tilde = density_tilde(F, phi, m, q)
            want = full_grid_laminate(F, phi, m, q, *grid)
            got = compute_bounds(F, phi, m, 16).laminate_upper
            assert abs(got - want) <= 1e-12 * max(1.0, abs(tilde)), F


class TestLaminateSharedShears:
    """The laminate search averages each distinct shear mu of a candidate's
    two matrices diag(sig) + mu a (x) n once per angle pair; against the
    per-candidate reference."""

    @staticmethod
    def check(phi, m, grid):
        # ``grid`` is the search's grid, given to the reference as numbers
        rng = np.random.default_rng(31)
        q = sphere_quadrature(2, 16)
        for _ in range(4):
            F = (rot(rng.uniform(0, 7)) @ np.diag(np.exp(rng.uniform(-1.4, 1.4, 2)))
                 @ rot(rng.uniform(0, 7)))
            tilde = density_tilde(F, phi, m, q)
            want = full_grid_laminate(F, phi, m, q, *grid)
            got = compute_bounds(F, phi, m, 16).laminate_upper
            assert abs(got - want) <= 1e-12 * max(1.0, abs(tilde)), F

    @pytest.mark.parametrize("phi,m", [(PHI2, 2.0), (power_potential(1.5), 1.0)],
                             ids=["p2-m2", "p1.5-m1"])
    def test_default_search_matches_full_grid(self, phi, m):
        self.check(phi, m, (17, 12, 2.0, 32, 2))

    @pytest.mark.parametrize("phi,m", [(PHI2, 2.0), (power_potential(1.5), 1.0)],
                             ids=["p2-m2", "p1.5-m1"])
    @pytest.mark.parametrize("n_lambda", [3, 5])
    @pytest.mark.parametrize("n_mag", [1, 4])
    def test_small_grids_match_full_grid(self, phi, m, n_lambda, n_mag, monkeypatch):
        grid = (n_lambda, n_mag, 2.0, 8, 1)
        set_laminate_grid(monkeypatch, *grid)
        self.check(phi, m, grid)

    def test_default_search_averages_each_shear_once(self, monkeypatch):
        rows = []
        average = peribond.density._sphere_average

        def counted(coef, *args, **kwargs):
            rows.append(len(coef))
            return average(coef, *args, **kwargs)

        monkeypatch.setattr(peribond.density, "_sphere_average", counted)
        F = rot(0.4) @ np.diag([1.3, 0.6]) @ rot(-0.8)
        # lower and tilde at F, then the 83 distinct products k j (k <= 15,
        # j <= 12) of each sign on 273 angle pairs; two averages per
        # candidate took 2 * 15 * 12 * 273 = 98,280.  Each refinement round
        # adds at most 2 * 7 * 7 shears on 7 * 7 pairs (the first round's
        # products can still coincide)
        compute_bounds(F, PHI2, 2.0, 8)
        assert 2 + 45_318 < sum(rows) <= 2 + 45_318 + 2 * 98 * 49
        rows.clear()
        set_laminate_grid(monkeypatch, 17, 12, 2.0, 32, 0)
        compute_bounds(F, PHI2, 2.0, 8)
        assert sum(rows) == 2 + 2 * 83 * 273


def frame_indifference_check(F, U, phi: Potential, m: float, order: int) -> float:
    """Max deviation of the bound sandwich under left rotation F -> U F."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if np.max(np.abs(U.T @ U - np.eye(U.shape[0]))) > 1e-12:
        raise ValueError("U must be orthogonal")
    F = np.atleast_2d(np.asarray(F, dtype=float))
    q = sphere_quadrature(F.shape[0], order)
    UF = U @ F
    devs = [
        abs(density_lower(F, phi, m, q) - density_lower(UF, phi, m, q)),
        abs(density_tilde(F, phi, m, q) - density_tilde(UF, phi, m, q)),
    ]
    if F.shape == (2, 2):
        devs.append(abs(compute_bounds(F, phi, m, order).laminate_upper
                        - compute_bounds(UF, phi, m, order).laminate_upper))
    return float(max(devs))


class TestFrameIndifference:
    def test_depends_only_on_singular_values(self):
        # the averages take the eigenvalues of F^T F, so two-sided rotations
        # only perturb the answer through eigenvalue rounding
        F = np.diag([1.8, 0.6])
        for th1, th2 in [(0.3, 1.1), (2.0, -0.4)]:
            G = rot(th1) @ F @ rot(th2)
            assert density_tilde(G, PHI2, 2.0, Q2) == pytest.approx(
                density_tilde(F, PHI2, 2.0, Q2), abs=1e-12)
            assert density_lower(G, PHI2, 2.0, Q2) == pytest.approx(
                density_lower(F, PHI2, 2.0, Q2), abs=1e-12)

    def test_laminate_invariant_to_rotations(self, monkeypatch):
        # the lamination search runs at diag(sigma), and the tilde cap and
        # lower-bound guard take the eigenvalues of F^T F, so rotations change
        # the answer only through the rounding of sigma and the eigenvalues
        F = np.diag([2.5, 0.4])
        set_laminate_grid(monkeypatch, 9, 6, 2.0, 16, 1)
        v1 = compute_bounds(F, PHI2, 2.0, ORDER2).laminate_upper
        v2 = compute_bounds(rot(0.9) @ F @ rot(-1.7), PHI2, 2.0, ORDER2).laminate_upper
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_check_helper(self, monkeypatch):
        set_laminate_grid(monkeypatch, 9, 6, 2.0, 16, 1)
        dev = frame_indifference_check(np.diag([1.4, 0.8]), rot(0.77),
                                       PHI2, 2.0, ORDER2)
        assert dev < 1e-10

    def test_rejects_nonorthogonal(self):
        with pytest.raises(ValueError):
            frame_indifference_check(np.eye(2), np.diag([1.0, 2.0]),
                                     PHI2, 2.0, ORDER2)


class TestLaminateUpper:
    def test_identity_relaxes_to_zero(self):
        # F = I sits in the zero set; a lamination between +/- rank-one
        # shears reaches (near) zero energy
        val = compute_bounds(np.eye(2), PHI2, 2.0, ORDER2).laminate_upper
        assert val < 1e-6

    def test_strict_improvement_inside_unit_ball(self):
        # short matrices relax: the plain average is positive but the
        # relaxed density vanishes, and one lamination level already helps
        F = np.diag([0.5, 0.5])
        tilde = density_tilde(F, PHI2, 2.0, Q2)
        lam = compute_bounds(F, PHI2, 2.0, ORDER2).laminate_upper
        assert lam < tilde - 1e-3
        assert lam >= density_lower(F, PHI2, 2.0, Q2)

    def test_no_improvement_far_out(self):
        # strongly stretched matrices: the plain average is already optimal
        F = 3.0 * np.eye(2)
        tilde = density_tilde(F, PHI2, 2.0, Q2)
        assert compute_bounds(F, PHI2, 2.0, ORDER2).laminate_upper == pytest.approx(
            tilde, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 3])
    def test_other_dimensions_report_tilde(self, d, monkeypatch):
        # only d = 2 runs the search
        calls = []
        monkeypatch.setattr(peribond.density, "_shear_averages",
                            lambda *args: calls.append(args))
        F = np.diag([0.5, 1.4, 0.8][:d])
        b = compute_bounds(F, PHI2, 2.0, 32)
        assert b.laminate_upper == b.tilde
        assert calls == []

    def test_raises_when_below_lower_bound(self, monkeypatch):
        # the sandwich guard must survive python -O, so it is no assert
        monkeypatch.setattr(peribond.density, "density_lower", lambda *a, **k: 1e9)
        set_laminate_grid(monkeypatch, 5, 4, 2.0, 8, 0)
        with pytest.raises(RuntimeError, match="below the lower bound"):
            compute_bounds(np.diag([1.5, 0.25]), PHI2, 2.0, ORDER2)

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
    lhs = density_lower_batch(Fs, phi, m, q)
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
