"""Grids, masks, fields and sphere quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peribond.grids import (Grid, VectorField, affine_field, box_grid,
                            box_subdomain, full_mask, sphere_quadrature,
                            unit_interval_grid)


class TestGrid:
    def test_nodes_are_cell_centers(self):
        g = unit_interval_grid(4)
        np.testing.assert_allclose(g.nodes()[:, 0], [0.125, 0.375, 0.625, 0.875])

    def test_c_ordering_2d(self):
        g = Grid(2, (0.0, 0.0), (1.0, 2.0), (2, 3))
        x = g.nodes()
        # last axis varies fastest
        np.testing.assert_allclose(x[0], [0.25, 1.0 / 3.0])
        np.testing.assert_allclose(x[1], [0.25, 1.0])
        np.testing.assert_allclose(x[3], [0.75, 1.0 / 3.0])

    def test_cell_volume(self):
        g = Grid(2, (0.0, 0.0), (1.0, 2.0), (4, 8))
        assert g.cell_volume == pytest.approx(0.0625)

    def test_nearest_node_roundtrip(self):
        g = box_grid(2, -1.0, 1.0, 8)
        x = g.nodes()
        for k in (0, 13, 63):
            assert g.nearest_node(x[k]) == k

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_nearest_node_stack_matches_points(self, dim):
        g = box_grid(dim, -1.0, 1.0, 6)
        pts = np.random.default_rng(dim).uniform(-1.3, 1.3, (40, dim))
        got = g.nearest_node(pts)
        assert isinstance(got, np.ndarray) and got.shape == (40,)
        assert got.tolist() == [g.nearest_node(p) for p in pts]

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(4, (0.0,) * 4, (1.0,) * 4, (4,) * 4)
        with pytest.raises(ValueError):
            Grid(1, (0.0,), (1.0,), (1,))
        with pytest.raises(ValueError):
            Grid(1, (0.0,), (-1.0,), (4,))


class TestMask:
    def test_full_mask_collar_uses_box_boundary(self):
        g = unit_interval_grid(10)
        m = full_mask(g, collar_width=0.2)
        collar = m.collar()
        x = g.nodes()[:, 0]
        np.testing.assert_array_equal(collar, np.minimum(x, 1 - x) < 0.2)

    def test_subdomain_volume(self):
        g = box_grid(2, 0.0, 1.0, 10)
        m = box_subdomain(g, margin=0.2)
        assert m.active.sum() * g.cell_volume == pytest.approx(0.36)

    def test_collar_of_subdomain(self):
        g = unit_interval_grid(20)
        m = box_subdomain(g, margin=0.25, collar_width=0.1)
        collar = m.collar()
        # one active node per inner edge sits strictly closer than 0.1 to the
        # complement (node-to-node distances: 0.05, then exactly 0.10)
        assert collar.sum() == 2
        assert not collar[~m.active].any()


class TestVectorField:
    def test_rejects_nonfinite(self):
        g = unit_interval_grid(4)
        with pytest.raises(ValueError):
            VectorField(g, np.array([0.0, 1.0, np.inf, 2.0]))

    def test_values_read_only(self):
        v = affine_field(unit_interval_grid(4), np.array([[2.0]]))
        with pytest.raises(ValueError):
            v.values[0] = 7.0

    def test_affine_field(self):
        g = box_grid(2, 0.0, 1.0, 4)
        F = np.array([[1.0, 2.0], [0.0, -1.0]])
        b = np.array([3.0, 4.0])
        v = affine_field(g, F, b)
        np.testing.assert_allclose(v.values, g.nodes() @ F.T + b)


class TestSphereQuadrature:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_weights_normalized(self, d):
        q = sphere_quadrature(d, 16)
        assert q.weights.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(np.linalg.norm(q.points, axis=1), 1.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_second_moment(self, d):
        # average of (a . w)^2 over the sphere is |a|^2 / d
        q = sphere_quadrature(d, 32)
        a = np.arange(1.0, d + 1.0)
        val = np.dot(q.weights, (q.points @ a) ** 2)
        assert val == pytest.approx(np.dot(a, a) / d, rel=1e-12)

    def test_fourth_moment_2d(self):
        # average of (w^T A w)^2 = (2 tr(A^2) + tr(A)^2) / 8 for symmetric A
        q = sphere_quadrature(2, 64)
        A = np.array([[2.0, 1.0], [1.0, -3.0]])
        val = np.dot(q.weights, np.einsum("qi,ij,qj->q", q.points, A, q.points) ** 2)
        expected = (2 * np.trace(A @ A) + np.trace(A) ** 2) / 8.0
        assert val == pytest.approx(expected, rel=1e-12)

    def test_rotation_invariance_2d(self):
        q = sphere_quadrature(2, 128)
        F = np.array([[1.3, 0.4], [-0.2, 0.8]])
        th = 0.7
        U = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        v1 = np.dot(q.weights, np.linalg.norm(q.points @ F.T, axis=1))
        v2 = np.dot(q.weights, np.linalg.norm(q.points @ (U @ F).T, axis=1))
        assert v1 == pytest.approx(v2, abs=1e-13)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10_000))
def test_nearest_node_is_nearest(n, k):
    g = unit_interval_grid(n)
    rng = np.random.default_rng(k)
    p = rng.uniform(-0.2, 1.2)
    i = g.nearest_node(p)
    dists = np.abs(g.nodes()[:, 0] - p)
    assert dists[i] == pytest.approx(dists.min())
