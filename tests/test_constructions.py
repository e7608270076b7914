"""Sawtooth and laminate families, and three rigidity procedures: the
library's reconstruction of an isometry, and the energy-decay and Piola
checks defined here."""

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

import peribond.constructions
from helpers import rot
from peribond.constructions import (LaminateSpec, RigidityResult,
                                    laminate_energy_decay, laminate_field,
                                    laminate_profile, rigidity_reconstruct,
                                    sawtooth_energy, sawtooth_value)
from peribond.density import density_lower
from peribond.energy import build_pairs, energy_Fn
from peribond.grids import (VectorField, affine_field, box_grid,
                            field_from_function, full_mask, sphere_quadrature)
from peribond.kernels import Kernel, box_kernel, make_rescaled
from peribond.materials import Potential, power_potential


class TestSawtooth:
    def test_shape(self):
        # peaks 1/(2N) at half-periods, zeros at periods, 1-Lipschitz
        for N in (1, 3, 10):
            x = np.linspace(0.0, 1.0, 1000)
            v = sawtooth_value(N, x)
            assert np.max(v) == pytest.approx(1.0 / (2 * N), abs=1e-3)
            assert np.min(v) >= 0.0
            assert sawtooth_value(N, 0.5 / N) == pytest.approx(1.0 / (2 * N))
            assert sawtooth_value(N, 1.0 / N) == pytest.approx(0.0, abs=1e-15)
            lip = np.max(np.abs(np.diff(v))) / (x[1] - x[0])
            assert lip <= 1.0 + 1e-9

    def test_periodic_extension(self):
        x = np.array([-0.3, 1.4, 2.05])
        np.testing.assert_allclose(sawtooth_value(4, x),
                                   sawtooth_value(4, np.mod(x, 1.0)), atol=1e-15)

    @pytest.mark.parametrize("N,delta", [(2, 0.05), (5, 0.02), (10, 0.001)])
    def test_energy_matches_closed_form(self, N, delta):
        res = sawtooth_energy(N, delta)
        assert res.in_closed_form_regime
        assert res.rel_error < 0.02
        assert res.expected == pytest.approx(8.0 / 15.0 * N * delta)

    def test_coupled_horizon_energy_vanishes(self):
        # delta(N) = 1/N^2: sup-norm and energy both go to zero
        vals = [sawtooth_energy(N, 1.0 / N**2).value for N in (4, 8, 16)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.04

    def test_out_of_regime_flagged(self):
        res = sawtooth_energy(2, 0.5)  # delta > 1/(4N)
        assert not res.in_closed_form_regime

    def test_horizon_resolution_required(self):
        with pytest.raises(ValueError):
            sawtooth_energy(2, 0.1, h=0.05)


class TestLaminate:
    def test_profile_slopes_and_peak(self):
        lam = 0.4
        t = np.linspace(0.0, 1.0, 2001)
        g = laminate_profile(lam, t)
        a = 0.5 * (1 + lam)
        up = t < a - 1e-3
        down = (t > a + 1e-3) & (t < 1 - 1e-3)
        slopes = np.diff(g) / np.diff(t)
        np.testing.assert_allclose(slopes[up[:-1] & up[1:]], 1 - lam, atol=1e-9)
        np.testing.assert_allclose(slopes[down[:-1] & down[1:]], -(1 + lam), atol=1e-9)
        assert np.max(g) == pytest.approx((1 - lam) * (1 + lam) / 2, abs=1e-3)

    def test_field_gradient_orthogonal_ae(self):
        # componentwise slope +-1 away from breakpoints
        spec = LaminateSpec((0.3, 0.7), k=2)
        g = box_grid(2, 0.0, 1.0, 64)
        v = laminate_field(spec, g)
        vals = v.values.reshape(64, 64, 2)
        for i in range(2):
            d = np.diff(vals[..., i], axis=i) / g.h
            frac_unit = np.mean(np.isclose(np.abs(d), 1.0, atol=1e-9))
            assert frac_unit > 0.9  # breakpoint cells excluded

    def test_uniform_distance_to_affine(self):
        spec = LaminateSpec((0.5, 0.5), k=4)
        g = box_grid(2, 0.0, 1.0, 64)
        v = laminate_field(spec, g)
        aff = affine_field(g, np.diag([0.5, 0.5]))
        gap = np.max(np.abs(v.values - aff.values))
        bound = max((1 - l) * (1 + l) / 2 for l in spec.lam) / spec.k
        assert gap <= bound + 1e-12
        assert gap > 0.5 * bound

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LaminateSpec((1.5, 0.5), k=2)
        with pytest.raises(ValueError):
            LaminateSpec((0.5,), k=0)

    def test_short_diagonal_has_zero_lower_density(self):
        # the laminate exists exactly because diag(lam), lam in [0,1]^d, sits
        # in the zero set of the limit density
        q = sphere_quadrature(2, 64)
        assert density_lower(np.diag([0.5, 0.5]), power_potential(2.0), 1.0, q) == 0.0
        assert density_lower(np.diag([1.2, 0.5]), power_potential(2.0), 1.0, q) > 0.0

    def test_energy_decay_with_concentrating_kernel(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(peribond.constructions, "_MAX_CELLS", 96)
            rows = laminate_energy_decay((0.5, 0.5), [2, 4, 6])
        es = [r.energy for r in rows]
        assert all(np.isfinite(e) and e >= 0 for e in es)
        # k * delta = 1/n -> 0 drives the energy down
        assert es[-1] < es[0]
        # 4 / delta(7) = 196.00000000000003 in floating point; the grid must
        # still get 196 = 4 * 7^2 cells, a whole number per laminate period
        assert laminate_energy_decay((0.5, 0.5), [7])[0].n_cells == 196


class TestRigidityReconstruct:
    def test_exact_for_isometry(self):
        g = box_grid(2, 0.0, 1.0, 24)
        U = rot(0.6)
        b = np.array([0.2, -0.1])
        v = VectorField(g, g.nodes() @ U.T + b)
        res = rigidity_reconstruct(v, R=0.5)
        assert res.residual <= 1e-8 and res.orthogonality_defect <= 1e-8
        np.testing.assert_allclose(res.F, U, atol=1e-12)
        np.testing.assert_allclose(res.b, b, atol=1e-12)

    def test_noise_bounded_defect(self):
        g = box_grid(2, 0.0, 1.0, 24)
        rng = np.random.default_rng(0)
        vals = affine_field(g, rot(0.6)).values + 1e-6 * rng.standard_normal((g.n_nodes, 2))
        res = rigidity_reconstruct(VectorField(g, vals), R=0.5)
        assert res.residual <= 1e-4
        assert res.orthogonality_defect <= 1e-4

    def test_stretch_flagged(self):
        g = box_grid(2, 0.0, 1.0, 24)
        v = affine_field(g, np.diag([1.5, 1.0]))
        res = rigidity_reconstruct(v, R=0.5)
        assert not (res.residual <= 1e-8 and res.orthogonality_defect <= 1e-8)
        assert res.orthogonality_defect == pytest.approx(1.25, abs=1e-10)

    def test_stretch_away_from_anchors_flagged(self):
        # the identity on x_1 <= 3/4 holds all three anchors, so F = I
        # exactly; the residual pairs are drawn from every node and so reach
        # the stretched strip beyond
        g = box_grid(2, 0.0, 1.0, 24)
        x = g.nodes()
        vals = x.copy()
        vals[:, 0] += 0.5 * np.maximum(x[:, 0] - 0.75, 0.0)
        res = rigidity_reconstruct(VectorField(g, vals), R=0.5)
        np.testing.assert_allclose(res.F, np.eye(2), atol=1e-12)
        assert res.orthogonality_defect <= 1e-12
        assert res.residual > 0.05


@dataclass(frozen=True)
class DecayRigidityVerdict:
    verdict: str  # "rigid", "not-rigid", or "inconclusive"
    energies: np.ndarray
    l1_distances: np.ndarray
    terminal: RigidityResult | None


def energy_decay_rigidity(v_seq: Sequence[VectorField], kernel: Kernel,
                          phi: Potential, m: float = 1.0, R: float | None = None,
                          tol: float | None = None) -> DecayRigidityVerdict:
    """Rigidity check for a sequence whose energies decay under a fixed kernel.

    If the energy trace is decreasing toward zero and the fields are Cauchy
    in discrete L^1, the terminal field is reconstructed; the verdict is
    "rigid" when it is an isometry to tolerance.  A non-decreasing trace is
    inconclusive: nothing about the limit can be inferred.
    """
    grid = v_seq[0].grid
    A = full_mask(grid)
    pairs = build_pairs(grid, A, kernel.support_radius)
    energies = np.array([
        energy_Fn(v, A, kernel, phi, m, pairs=pairs).value for v in v_seq
    ])
    l1 = np.array([
        grid.cell_volume * np.sum(np.abs(v_seq[i + 1].values - v_seq[i].values))
        for i in range(len(v_seq) - 1)
    ])
    if np.any(np.diff(energies) > 1e-12) or energies[-1] > energies[0] * 0.5 + 1e-12:
        return DecayRigidityVerdict("inconclusive", energies, l1, None)
    if R is None:
        R = 0.25 * grid.extent
    rec = rigidity_reconstruct(v_seq[-1], R)
    h = grid.h
    tol = tol if tol is not None else max(100.0 * h, 1e-6)
    verdict = "rigid" if (rec.orthogonality_defect <= tol and rec.residual <= tol) else "not-rigid"
    return DecayRigidityVerdict(verdict, energies, l1, rec)


class TestEnergyDecayRigidity:
    kernel = staticmethod(lambda: make_rescaled(box_kernel(2), 0.25))

    def test_sequence_converging_to_rotation(self):
        g = box_grid(2, 0.0, 1.0, 24)
        U = rot(0.8)
        # uniformly shrinking overstretch: energies decay like 4^-n
        seq = [VectorField(g, (1 + 2.0**-n) * (g.nodes() @ U.T))
               for n in range(1, 6)]
        out = energy_decay_rigidity(seq, self.kernel(), power_potential(2.0))
        assert out.verdict == "rigid"
        assert np.all(np.diff(out.energies) < 0)

    def test_laminate_under_fixed_kernel_inconclusive(self):
        # with the horizon fixed the laminate energies do not decay to zero,
        # so no rigidity conclusion is available
        g = box_grid(2, 0.0, 1.0, 64)
        seq = [laminate_field(LaminateSpec((0.5, 0.5), k), g) for k in (1, 2, 4)]
        out = energy_decay_rigidity(seq, self.kernel(), power_potential(2.0))
        assert out.verdict == "inconclusive"
        assert out.terminal is None

    def test_exact_isometry_sequence(self):
        g = box_grid(2, 0.0, 1.0, 24)
        seq = [affine_field(g, rot(0.3 + 0.1 / (n + 1))) for n in range(4)]
        out = energy_decay_rigidity(seq, self.kernel(), power_potential(2.0))
        assert out.verdict == "rigid"
        assert out.terminal.residual <= 1e-10


@dataclass(frozen=True)
class PiolaReport:
    max_metric_defect: float   # max |grad(v)^T grad(v) - I|
    max_laplacian: float       # max |component Laplacian|
    max_second_derivative: float


def piola_rigidity_check(v: VectorField, exclude: np.ndarray | None = None) -> PiolaReport:
    """Finite-difference check that metric-preserving fields are affine.

    For smooth v with grad(v)^T grad(v) = I the trace |grad v|^2 = d is
    constant, each component is harmonic by the Piola identity, and all
    second derivatives vanish.  Central differences on interior nodes report
    the three maxima; optional ``exclude`` masks nodes (e.g. breakpoint
    cells of piecewise-affine fields) from the maxima.
    """
    g = v.grid
    d = g.dim
    shape = g.shape
    vals = v.values.reshape(*shape, d)
    h = g.h
    grads = np.gradient(vals, h, axis=tuple(range(d)), edge_order=2)
    grads = [np.asarray(gr) for gr in np.atleast_1d(grads)] if d > 1 else [np.asarray(grads)]
    # metric defect
    G = np.zeros(shape + (d, d))
    for a in range(d):
        for b_ in range(d):
            for c in range(d):
                G[..., a, b_] += grads[c][..., a] * grads[c][..., b_]
    metric = np.abs(G - np.eye(d))
    # second derivatives of each component along/across each axis
    second = np.zeros(shape)
    lap = np.zeros(shape + (d,))
    for a in range(d):
        second_a = np.gradient(grads[a], h, axis=tuple(range(d)), edge_order=2)
        second_a = [np.asarray(sr) for sr in np.atleast_1d(second_a)] if d > 1 else [np.asarray(second_a)]
        for b_ in range(d):
            second = np.maximum(second, np.max(np.abs(second_a[b_]), axis=-1))
        lap += second_a[a]
    interior = np.zeros(shape, dtype=bool)
    interior[(slice(2, -2),) * d] = True
    if exclude is not None:
        interior &= ~np.asarray(exclude, dtype=bool).reshape(shape)
    if not interior.any():
        raise ValueError("finite-difference stencil has no interior nodes")
    return PiolaReport(
        float(np.max(metric[interior])),
        float(np.max(np.abs(lap)[interior])),
        float(np.max(second[interior])),
    )


class TestPiola:
    def test_affine_isometry_clean(self):
        g = box_grid(2, 0.0, 1.0, 32)
        rep = piola_rigidity_check(affine_field(g, rot(1.1)))
        assert rep.max_metric_defect < 1e-10
        assert rep.max_laplacian < 1e-10
        assert rep.max_second_derivative < 1e-10

    def test_smooth_nonisometry_detected(self):
        g = box_grid(2, 0.0, 1.0, 32)
        v = field_from_function(g, lambda x: np.stack(
            [x[:, 0] ** 2, x[:, 1]], axis=-1))
        rep = piola_rigidity_check(v)
        assert rep.max_metric_defect > 0.1
        assert rep.max_second_derivative > 1.0

    def test_piecewise_field_clean_off_breakpoints(self):
        # slope-+-1 zigzag in one component: affine away from breakpoints
        g = box_grid(2, 0.0, 1.0, 64)
        v = laminate_field(LaminateSpec((0.5, 1.0), k=1), g)
        x = g.nodes()[:, 0].reshape(64, 64)
        # exclude a band around the single interior breakpoint x = 0.75
        exclude = np.abs(x - 0.75) < 3.5 * g.h
        rep = piola_rigidity_check(v, exclude=exclude)
        assert rep.max_second_derivative < 1e-9
        full = piola_rigidity_check(v)
        assert full.max_second_derivative > 1.0
