"""Constrained minimization, the small-displacement convergence driver and
the concentrating-kernel localization driver."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import peribond.solver
from peribond.energy import energy_Fn, gradient_Fn
from peribond.grids import (Grid, SubdomainMask, VectorField, affine_field, box_grid,
                            field_from_function, full_mask)
from peribond.kernels import box_kernel, box_sequence, make_rescaled
from peribond.materials import Potential, catalog_potential, power_potential
from peribond.solver import (DirichletProblem, _discrete_gradients, linearization_experiment,
                             localization_experiment, minimize_Fng,
                             minimize_multistart)

PHI = power_potential(2.0)


def problem_1d(slope, n=64, delta=0.1, collar=0.15, m=1.0, phi=PHI):
    g = box_grid(1, 0.0, 1.0, n)
    mask = full_mask(g, collar_width=collar)
    datum = affine_field(g, np.array([[slope]]))
    kernel = make_rescaled(box_kernel(1), delta)
    return DirichletProblem(mask, datum, kernel, phi, m)


class TestDirichletProblem:
    def test_requires_positive_collar(self):
        with pytest.raises(ValueError):
            problem_1d(1.0, collar=0.0)

    def test_requires_thin_collar(self):
        with pytest.raises(ValueError):
            problem_1d(1.0, collar=0.6)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_collar_rule_on_irregular_masks(self, dim):
        """On irregular masks over grids of random origin, extent and cell
        count a collar is accepted exactly
        when it is below half the diameter of the active nodes, taken as
        0.5 * |max - min| of their coordinates: one float below, at and above."""
        rng = np.random.default_rng(dim)
        for _ in range(30):
            grid = Grid(dim, float(rng.uniform(-1.0, 1.0)), float(rng.uniform(0.1, 3.0)),
                        int(rng.integers(2, 9)))
            active = rng.random(grid.n_nodes) < rng.uniform(0.05, 0.9)
            active[rng.choice(grid.n_nodes, 2, replace=False)] = True
            x = grid.nodes()[active]
            half = 0.5 * float(np.linalg.norm(x.max(axis=0) - x.min(axis=0)))
            datum = affine_field(grid, np.eye(dim))
            for collar in (np.nextafter(half, 0.0), half, np.nextafter(half, np.inf)):
                try:
                    DirichletProblem(SubdomainMask(grid, active, collar), datum,
                                     box_kernel(dim), PHI)
                    accepted = True
                except ValueError:
                    accepted = False
                assert accepted == (collar < half)
        with pytest.raises(ValueError, match="below half"):
            DirichletProblem(SubdomainMask(grid, np.zeros(grid.n_nodes, bool), 0.1),
                             datum, box_kernel(dim), PHI)

    def test_free_set(self):
        prob = problem_1d(1.0, n=10, collar=0.25)
        x = prob.mask.grid.nodes()[:, 0]
        np.testing.assert_array_equal(prob.free,
                                      (x >= 0.25) & (x <= 0.75))


class TestMinimize:
    def test_isometry_datum_stays_at_zero(self):
        prob = problem_1d(1.0)
        res = minimize_Fng(prob)
        assert res.converged
        assert res.iterations == 0
        assert res.stop_reason == "converged"
        assert res.energy_trace[-1] == 0.0

    def test_collar_feasible_bit_identical(self):
        prob = problem_1d(1.5)
        res = minimize_Fng(prob)
        fixed = ~prob.free
        np.testing.assert_array_equal(res.v.values[fixed],
                                      prob.g.values[fixed])

    def test_energy_trace_decreasing(self):
        prob = problem_1d(0.5)
        res = minimize_multistart(prob)
        assert np.all(np.diff(res.energy_trace) <= 0.0)

    def test_stretch_no_worse_than_datum(self):
        # overstretched datum: the affine field balances interior forces, so
        # the minimizer cannot do worse than the datum energy
        prob = problem_1d(1.5)
        e_datum = energy_Fn(prob.g, prob.mask, prob.kernel, prob.phi, prob.m).value
        res = minimize_multistart(prob)
        assert res.energy_trace[-1] <= e_datum + 1e-12

    def test_compression_relaxes_strictly(self):
        # compressed datum sits in the interior of the relaxed zero set:
        # oscillating competitors absorb most of the energy.  The residual
        # is the O(delta) cost of the kinks, not machine zero.
        prob = problem_1d(0.5, n=128, delta=0.05)
        e_datum = energy_Fn(prob.g, prob.mask, prob.kernel, prob.phi, prob.m).value
        res = minimize_multistart(prob)
        assert res.energy_trace[-1] < 0.5 * e_datum

    def test_rejects_nonsmooth_profile(self):
        from helpers import tabulated_potential
        a = np.linspace(0.0, 2.0, 10)
        phi = tabulated_potential(a, a.copy(), p=2.0, C0=0.0, C1=1.0)
        with pytest.raises(ValueError):
            minimize_Fng(problem_1d(1.0, phi=phi))

    @pytest.mark.parametrize("slope", [0.0, 0.5])
    def test_smoothness_is_read_from_the_profile(self, slope):
        # a profile built directly, Phi(a) = a^2 + slope a: only Phi'(0) = 0
        # gives F_n a nodal gradient, and no caller declares it
        phi = Potential(lambda a: a**2 + slope * a, lambda a: 2.0 * a + slope,
                        p=2.0, C0=1.0, C1=1.0 + slope)
        assert phi.smooth_at_zero == (slope == 0.0)
        prob = problem_1d(1.2, n=32, phi=phi)
        if slope:
            with pytest.raises(ValueError, match=r"Phi'\(0\+\) > 0"):
                gradient_Fn(prob.g, prob.mask, prob.kernel, phi, prob.m)
            with pytest.raises(ValueError, match=r"Phi'\(0\+\) > 0"):
                minimize_Fng(prob)
        else:
            grad = gradient_Fn(prob.g, prob.mask, prob.kernel, phi, prob.m).values
            assert np.all(np.isfinite(grad)) and np.any(grad != 0.0)
            res = minimize_Fng(prob)
            assert res.energy_trace[-1] <= res.energy_trace[0]

    def test_2d_shear_datum(self):
        g = box_grid(2, 0.0, 1.0, 24)
        mask = full_mask(g, collar_width=0.15)
        F = np.array([[1.0, 0.3], [0.0, 1.0]])
        prob = DirichletProblem(mask, affine_field(g, F),
                                make_rescaled(box_kernel(2), 0.2), PHI, 1.0,
                                max_iters=300)
        e_datum = energy_Fn(prob.g, mask, prob.kernel, PHI, 1.0).value
        res = minimize_Fng(prob)
        assert res.energy_trace[-1] <= e_datum + 1e-12
        assert np.all(np.isfinite(res.v.values))


def wavy_problem_1d(**stop):
    """A non-affine datum, so the datum start is not a critical point."""
    g = box_grid(1, 0.0, 1.0, 48)
    datum = field_from_function(g, lambda x: 1.2 * x + 0.05 * np.sin(2 * np.pi * x))
    return DirichletProblem(full_mask(g, collar_width=0.15), datum,
                            make_rescaled(box_kernel(1), 0.1), PHI, 1.0, **stop)


class TestStopReason:
    def test_iteration_cap(self):
        res = minimize_Fng(wavy_problem_1d(max_iters=1))
        assert res.iterations == 1
        assert not res.converged
        assert res.stop_reason == "max_iters"

    def test_line_search_fails_at_zero_tolerance(self, monkeypatch):
        # no gradient is exactly zero, so descent runs on until no trial
        # lowers the energy or every trial step rounds away
        monkeypatch.setattr(peribond.solver, "_GRAD_TOL_1D", 0.0)
        res = minimize_Fng(wavy_problem_1d(max_iters=5000))
        assert not res.converged
        assert res.stop_reason == "line_search_failed"
        assert res.iterations < 5000

    def test_tolerance_by_dimension(self, monkeypatch):
        # a 1D solve stops at _GRAD_TOL_1D and never reads _GRAD_TOL
        fine = minimize_Fng(wavy_problem_1d())
        assert fine.stop_reason == "converged"
        assert fine.grad_norm <= 1e-8
        monkeypatch.setattr(peribond.solver, "_GRAD_TOL", 0.0)
        assert minimize_Fng(wavy_problem_1d()).iterations == fine.iterations
        monkeypatch.setattr(peribond.solver, "_GRAD_TOL_1D", 1e-4)
        coarse = minimize_Fng(wavy_problem_1d())
        assert coarse.stop_reason == "converged"
        assert coarse.grad_norm <= 1e-4
        assert coarse.iterations < fine.iterations

    def test_converged_with_reused_gradient(self):
        # the reported gradient norm is that of the returned iterate
        prob = wavy_problem_1d()
        res = minimize_Fng(prob)
        assert res.stop_reason == "converged"
        assert res.converged and "converged" not in vars(res)  # read from stop_reason
        assert res.iterations > 5
        g = gradient_Fn(res.v, prob.mask, prob.kernel, prob.phi, prob.m).values
        assert res.grad_norm == float(np.max(np.abs(g[prob.free])))
        assert res.energy_trace[-1] == energy_Fn(res.v, prob.mask, prob.kernel,
                                                 prob.phi, prob.m).value


class TestLinearization:
    def test_quadratic_case_exact_at_all_eps(self):
        # 1D with a quadratic bond response: no linearization error at all
        g = box_grid(1, 0.0, 1.0, 64)
        u = field_from_function(g, lambda x: x**2)
        w = catalog_potential("mbm_smooth", c=2.0)
        table = linearization_experiment(u, w, 1.0, [0.4, 0.2, 0.1, 0.05],
                                         support_radius=0.2)
        assert np.all(table.errors() <= 1e-12)

    def test_quartic_case_first_order_rate(self):
        # asymmetric profile so the leading cubic error term does not cancel
        g = box_grid(1, 0.0, 1.0, 96)
        u = field_from_function(g, lambda x: x**2)
        w = catalog_potential("quartic")
        table = linearization_experiment(u, w, 1.0, [0.2, 0.1, 0.05, 0.025],
                                         support_radius=0.2)
        errs = table.errors()
        assert np.all(np.diff(errs) < 0)
        assert table.slope == pytest.approx(1.0, abs=0.3)

    def test_domain_violation_flagged(self):
        g = box_grid(1, 0.0, 1.0, 32)
        u = field_from_function(g, lambda x: -x)
        w = catalog_potential("quartic")
        table = linearization_experiment(u, w, 1.0, [1.0, 0.1],
                                         support_radius=0.2)
        assert table.rows[0].flagged
        assert not table.rows[1].flagged


def gradients_by_component(v):
    """Per-node central-difference gradients one component at a time: the
    loop that ``_discrete_gradients`` replaced, kept as its reference."""
    g = v.grid
    d = g.dim
    vals = v.values.reshape(*g.shape, d)
    out = np.empty((g.n_nodes, d, d))
    for c in range(d):
        gr = np.gradient(vals[..., c], g.h, axis=tuple(range(d)), edge_order=1)
        gr = [np.asarray(x) for x in np.atleast_1d(gr)] if d > 1 else [np.asarray(gr)]
        for a in range(d):
            out[:, c, a] = gr[a].ravel()
    return out


class TestDiscreteGradients:
    @pytest.mark.parametrize("d,n", [(1, 17), (2, 9), (3, 5)])
    def test_equals_per_component_loop(self, d, n):
        g = Grid(d, -0.3, 1.7, n)
        rng = np.random.default_rng(d)
        x = g.nodes()
        v = VectorField(g, np.sin(3.0 * x) * x[:, ::-1] + 0.1 * rng.standard_normal(x.shape))
        np.testing.assert_array_equal(_discrete_gradients(v), gradients_by_component(v))

    @pytest.mark.parametrize("shape", [(5, 8), (3, 7, 4), (2, 3, 2)])
    def test_equals_per_component_loop_on_boxes(self, shape):
        # a cube grid has one cell count; the function reads only the grid's
        # shape and spacing, so a stand-in grid tries unequal axes
        d = len(shape)
        g = SimpleNamespace(dim=d, shape=shape, h=0.3, n_nodes=math.prod(shape))
        rng = np.random.default_rng(len(shape) + shape[0])
        v = SimpleNamespace(grid=g, values=np.exp(rng.standard_normal((g.n_nodes, d))))
        np.testing.assert_array_equal(_discrete_gradients(v), gradients_by_component(v))


class TestLocalization:
    def test_stretched_datum_brackets(self):
        # 1D datum g = 2x: the minimal energies approach the limit value 1
        # from below and stay inside the density-bound bracket
        rows = localization_experiment(
            np.array([[2.0]]), PHI, 1.0, box_sequence(1, delta_law=lambda n: 1.0 / n),
            n_values=[2, 4, 8], grid_law=lambda n: box_grid(1, 0.0, 1.0, 64),
            collar_width=0.1)
        es = [r.energy for r in rows]
        assert es[0] < es[1] < es[2] < 1.0
        assert es[-1] > 0.9
        # the density bracket is meaningful once the horizon is small; early
        # rows with a fat horizon carry a large boundary deficit
        last = rows[-1]
        tol = 0.1 * max(1.0, abs(last.tilde_int))
        assert last.lower_int - tol <= last.energy <= last.tilde_int + tol
        assert np.isnan(rows[0].lp_dist_prev)
        assert rows[1].lp_dist_prev >= 0.0

    def test_two_dimensional_run_makes_no_svd(self, monkeypatch):
        # the density integrals over 2 x 2 gradients take closed-form
        # eigenvalues; no step of a 2D run needs a singular value decomposition
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        rows = localization_experiment(
            np.array([[1.2, 0.1], [0.0, 0.9]]), PHI, 1.0, box_sequence(2, lambda n: 1.0 / n),
            n_values=[4], grid_law=lambda n: box_grid(2, 0.0, 1.0, 12), collar_width=0.1)
        assert 0.0 <= rows[0].lower_int <= rows[0].tilde_int
