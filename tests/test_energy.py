"""Discrete double-integral energies against brute-force oracles, gradient
checks, and the quadratic small-displacement identities."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from helpers import custom_radial, huber_power, stretches, tabulated_potential
from peribond.energy import (PairSet, StrainDomainError, _Fn_pass, _Workspace, build_pairs,
                             energy_E0, energy_E_eps, energy_Fn, energy_gradient_Fn,
                             gradient_Fn, seminorm_W)
from peribond.grids import (SubdomainMask, VectorField, affine_field, box_grid,
                            box_subdomain, field_from_function, full_mask)
from peribond.kernels import box_kernel, make_rescaled
from peribond.materials import CATALOG_TAGS, catalog_potential, power_potential, strain
from peribond.solver import linearization_experiment


def brute_force_pairs(grid, radius):
    """O(N^2) oracle for the pair enumeration."""
    x = grid.nodes()
    out = set()
    for i in range(grid.n_nodes):
        for j in range(i + 1, grid.n_nodes):
            if np.linalg.norm(x[j] - x[i]) <= radius + 1e-12:
                out.add((i, j))
    return out


def brute_force_energy(v, kernel, phi, m):
    """O(N^2) oracle for the double-sum energy on the full domain."""
    g = v.grid
    x = g.nodes()
    total = 0.0
    for i in range(g.n_nodes):
        for j in range(g.n_nodes):
            if i == j:
                continue
            r = np.linalg.norm(x[j] - x[i])
            rho = float(kernel(np.array([r]))[0])
            if rho == 0.0:
                continue
            t = np.linalg.norm(v.values[j] - v.values[i]) / r
            total += rho * phi(abs(strain(m, t)))
    return total * g.cell_volume**2


class ListedPairs(PairSet):
    """A PairSet that also lists its bonds one by one, in the order every
    bond sum visits them: tail and head nodes ``i`` and ``j``, bond vectors
    ``xi``, lengths ``r`` and unit directions ``dir``."""

    def _offsets(self):
        return [o for run in self._runs for o in run.offsets]

    @property
    def i(self):
        return np.concatenate([np.empty(0, dtype=int),
                               *(self._nodes(o)[0] for o in self._offsets())])

    @property
    def j(self):
        return np.concatenate([np.empty(0, dtype=int),
                               *(self._nodes(o)[1] for o in self._offsets())])

    @property
    def r(self):
        return np.concatenate([np.empty(0), *(np.repeat(run.r, run.counts) for run in self._runs)])

    @property
    def xi(self):
        return np.concatenate([np.empty((0, self.grid.dim)),
                               *(np.repeat([o.xi for o in run.offsets], run.counts, axis=0)
                                 for run in self._runs)])

    @property
    def dir(self):
        return self.xi / self.r[:, None]


def listed_pairs(grid, mask, radius):
    """:func:`build_pairs` returning a :class:`ListedPairs`."""
    active = mask.active if mask is not None else np.ones(grid.n_nodes, dtype=bool)
    return ListedPairs(grid, active, radius)


class PerPairReference:
    """Per-pair gather formulas over :func:`brute_force_pairs`: one row per
    bond in offset-major, node-minor order, gathered by index arrays and
    scattered with ``np.add.at``."""

    def __init__(self, grid, active, radius):
        multi = np.stack(np.unravel_index(np.arange(grid.n_nodes), grid.shape), axis=-1)
        bonds = sorted(((i, j) for i, j in brute_force_pairs(grid, radius)
                        if active[i] and active[j]),
                       key=lambda b: (tuple(multi[b[1]] - multi[b[0]]), b[0]))
        self.grid = grid
        self.i = np.array([b[0] for b in bonds], dtype=int)
        self.j = np.array([b[1] for b in bonds], dtype=int)
        xi = (multi[self.j] - multi[self.i]) * grid.h
        self.r = np.linalg.norm(xi, axis=1)
        self.dir = xi / self.r[:, None]
        self.w2 = 2.0 * grid.cell_volume**2

    def diff(self, v):
        return v.values[self.j] - v.values[self.i]

    def stretches(self, v):
        return np.linalg.norm(self.diff(v), axis=1) / self.r

    def energy_Fn(self, v, kernel, phi, m):
        t = self.stretches(v)
        return self.w2 * np.sum(kernel(self.r) * phi(np.abs(strain(m, t))))

    def gradient_Fn(self, v, kernel, phi, m):
        dv = self.diff(v)
        norm_dv = np.linalg.norm(dv, axis=1)
        t = norm_dv / self.r
        s = strain(m, t)
        coeff = self.w2 * kernel(self.r) * phi.d(np.abs(s)) * np.sign(s) * t ** (m - 1.0)
        safe = norm_dv > 0
        scale = np.zeros_like(norm_dv)
        scale[safe] = coeff[safe] / (norm_dv[safe] * self.r[safe])
        out = np.zeros_like(v.values)
        np.add.at(out, self.j, scale[:, None] * dv)
        np.add.at(out, self.i, -scale[:, None] * dv)
        return out

    def energy_E_eps(self, u, w, m, eps):
        delta = self.dir * self.r[:, None] + eps * self.diff(u)
        t = np.linalg.norm(delta, axis=1) / self.r
        return self.w2 * np.sum(w(self.r, strain(m, t))) / eps**2

    def seminorm_Xrho(self, u, rho):
        du_dot = np.einsum("pk,pk->p", self.diff(u), self.dir) / self.r
        return self.w2 * np.sum(rho(self.r) * du_dot**2)

    def seminorm_W(self, v, kernel, p):
        return self.w2 * np.sum(kernel(self.r) * self.stretches(v)**p)


class TestStencilEquivalence:
    """Every bond sum against the per-pair reference, to 1e-13 relative
    (gradients: max |difference| / max |reference|)."""

    TOL = 1e-13
    SIZES = {1: (24, 3.5 / 24), 2: (10, 0.25), 3: (6, 0.4)}

    @staticmethod
    def _mask(g, kind, radius):
        x = g.nodes()
        if kind == "full":
            return full_mask(g), radius
        if kind == "box":
            return box_subdomain(g, 1.5 * g.h, collar_width=radius), radius
        if kind == "notched":  # an L-shape in 2D/3D, two intervals in 1D
            cut = (x[:, 0] > 0.4) & (x[:, 0] < 0.6) if g.dim == 1 else \
                (x[:, 0] > 0.5) & (x[:, -1] > 0.5)
            return SubdomainMask(g, ~cut), radius
        return full_mask(g), 0.9 * g.h  # no bonds at all

    def _close(self, got, ref):
        assert abs(got - ref) <= self.TOL * abs(ref)

    @pytest.mark.parametrize("kind", ["full", "box", "notched", "no_bonds"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_per_pair_reference(self, d, kind):
        n, radius = self.SIZES[d]
        g = box_grid(d, 0.0, 1.0, n)
        mask, radius = self._mask(g, kind, radius)
        pairs = build_pairs(g, mask, radius)
        ref = PerPairReference(g, mask.active, radius)
        assert len(pairs) == len(ref.i)
        assert (len(pairs) == 0) == (kind == "no_bonds")
        if kind == "notched":
            assert any(o.keep is not None for run in pairs._runs for o in run.offsets)
        rng = np.random.default_rng(40 + d)
        x = g.nodes()
        F = np.eye(d) + 0.2 * rng.uniform(-1.0, 1.0, (d, d))
        v = VectorField(g, x @ F.T + 0.05 * rng.standard_normal(x.shape))
        u = VectorField(g, 0.5 * x**2 + 0.02 * rng.standard_normal(x.shape))
        kernel = custom_radial(d, lambda r: 1.0 - 0.8 * r / radius, radius)

        t = stretches(v, pairs)
        t_ref = ref.stretches(v)
        assert t.shape == t_ref.shape
        assert np.all(np.abs(t - t_ref) <= self.TOL * t_ref)
        for m in (1.0, 2.0):
            for p in (1.5, 2.0, 3.0):
                phi = power_potential(p)
                self._close(energy_Fn(v, mask, kernel, phi, m, pairs=pairs).value,
                            ref.energy_Fn(v, kernel, phi, m))
                g_new = gradient_Fn(v, mask, kernel, phi, m, pairs=pairs).values
                g_ref = ref.gradient_Fn(v, kernel, phi, m)
                assert np.max(np.abs(g_new - g_ref)) <= self.TOL * np.max(np.abs(g_ref))
            for tag in ("quartic", "cohesive"):
                w = catalog_potential(tag)
                self._close(energy_E_eps(u, w, m, 0.05, pairs=pairs).value,
                            ref.energy_E_eps(u, w, m, 0.05))
        for p in (1.5, 2.0, 3.0):
            self._close(seminorm_W(v, kernel, p, pairs=pairs), ref.seminorm_W(v, kernel, p))
        def bare(r):
            return np.exp(-r / radius)

        for rho in (kernel, bare):
            xr = ref.seminorm_Xrho(u, rho)
            self._close(energy_E0(u, rho, pairs=pairs).value, 0.5 * xr)


class TestFusedPass:
    """energy_gradient_Fn returns exactly what energy_Fn and gradient_Fn do."""

    _a = np.linspace(0.0, 4.0, 17)
    PHIS = {"power": power_potential(2.5),
            "huber": huber_power(2.0, 0.3),
            "tabulated": tabulated_potential(_a, np.maximum(_a - 0.25, 0.0)**2,
                                             p=2.0, C0=0.5, C1=2.0)}

    @pytest.mark.parametrize("phi", sorted(PHIS))
    @pytest.mark.parametrize("m", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("kind", ["full", "box", "notched"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_separate_calls(self, d, kind, m, phi):
        phi = self.PHIS[phi]
        assert phi.smooth_at_zero
        n, radius = TestStencilEquivalence.SIZES[d]
        g = box_grid(d, 0.0, 1.0, n)
        mask, radius = TestStencilEquivalence._mask(g, kind, radius)
        pairs = listed_pairs(g, mask, radius)
        rng = np.random.default_rng(60 + d)
        x = g.nodes()
        F = np.eye(d) + 0.3 * rng.uniform(-1.0, 1.0, (d, d))
        vals = x @ F.T + 0.05 * rng.standard_normal(x.shape)
        i, j = pairs.i[0], pairs.j[0]
        vals[j] = vals[i]  # one bond with coincident deformed ends
        v = VectorField(g, vals)
        assert stretches(v, pairs)[0] == 0.0
        kernel = custom_radial(d, lambda r: 1.0 - 0.8 * r / radius, radius)

        rep, grad = energy_gradient_Fn(v, mask, kernel, phi, m, pairs=pairs)
        assert rep == energy_Fn(v, mask, kernel, phi, m, pairs=pairs)
        sep = gradient_Fn(v, mask, kernel, phi, m, pairs=pairs).values
        assert np.all(np.isfinite(sep))
        np.testing.assert_array_equal(grad.values, sep)

    def test_rejects_nonsmooth_profile_but_energy_runs(self):
        g = box_grid(1, 0.0, 1.0, 8)
        a = np.linspace(0.0, 2.0, 10)
        phi = tabulated_potential(a, a.copy(), p=2.0, C0=0.0, C1=1.0)
        v = affine_field(g, np.array([[1.5]]))
        kernel = make_rescaled(box_kernel(1), 0.25)
        assert energy_Fn(v, full_mask(g), kernel, phi).value > 0.0
        with pytest.raises(ValueError):
            energy_gradient_Fn(v, full_mask(g), kernel, phi)


class TestPairSet:
    @pytest.mark.parametrize("d,n,radius", [(1, 12, 0.3), (2, 6, 0.4), (3, 4, 0.6)])
    def test_matches_brute_force(self, d, n, radius):
        g = box_grid(d, 0.0, 1.0, n)
        pairs = listed_pairs(g, None, radius)
        got = {(min(i, j), max(i, j)) for i, j in zip(pairs.i, pairs.j)}
        assert got == brute_force_pairs(g, radius)
        assert len(got) == len(pairs)  # no duplicates

    def test_geometry_exact(self):
        g = box_grid(2, 0.0, 1.0, 8)
        pairs = listed_pairs(g, None, 0.4)
        x = g.nodes()
        dx = x[pairs.j] - x[pairs.i]
        np.testing.assert_allclose(np.linalg.norm(dx, axis=1), pairs.r, rtol=1e-15)
        np.testing.assert_allclose(dx / pairs.r[:, None], pairs.dir, rtol=1e-15)

    def test_deterministic_order(self):
        g = box_grid(2, 0.0, 1.0, 10)
        a = listed_pairs(g, None, 0.35)
        b = listed_pairs(g, None, 0.35)
        np.testing.assert_array_equal(a.i, b.i)
        np.testing.assert_array_equal(a.j, b.j)

    def test_mask_restriction(self):
        g = box_grid(1, 0.0, 1.0, 10)
        active = np.zeros(10, dtype=bool)
        active[2:7] = True
        pairs = ListedPairs(g, active, 0.25)
        assert set(pairs.i) | set(pairs.j) <= set(range(2, 7))


class TestEnergyFn:
    def test_identity_has_zero_energy(self):
        g = box_grid(2, 0.0, 1.0, 12)
        v = affine_field(g, np.eye(2))
        rep = energy_Fn(v, full_mask(g), make_rescaled(box_kernel(2), 0.3),
                        power_potential(2.0), 1.0)
        # diagonal-offset bonds pick up one ulp of stretch error
        assert abs(rep.value) < 1e-28

    def test_rotation_has_zero_energy(self):
        g = box_grid(2, 0.0, 1.0, 10)
        th = 0.83
        U = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        v = affine_field(g, U)
        rep = energy_Fn(v, full_mask(g), make_rescaled(box_kernel(2), 0.3),
                        power_potential(2.0), 1.0)
        assert abs(rep.value) < 1e-28

    @pytest.mark.parametrize("m", [1.0, 2.0])
    def test_matches_brute_force(self, m):
        g = box_grid(2, 0.0, 1.0, 6)
        rng = np.random.default_rng(5)
        v = VectorField(g, g.nodes() + 0.1 * rng.standard_normal((g.n_nodes, 2)))
        kernel = make_rescaled(box_kernel(2), 0.45)
        phi = power_potential(2.0)
        rep = energy_Fn(v, full_mask(g), kernel, phi, m)
        assert rep.value == pytest.approx(brute_force_energy(v, kernel, phi, m),
                                          rel=1e-12)

    def test_deterministic_value(self):
        g = box_grid(2, 0.0, 1.0, 16)
        rng = np.random.default_rng(9)
        v = VectorField(g, g.nodes() + 0.05 * rng.standard_normal((g.n_nodes, 2)))
        kernel = make_rescaled(box_kernel(2), 0.2)
        vals = {energy_Fn(v, full_mask(g), kernel, power_potential(2.0), 1.0).value
                for _ in range(5)}
        assert len(vals) == 1

    def test_reports_the_exact_spacing_in_3d(self):
        # the spacing itself: a mean of three equal spacings reads
        # 0.10000000000000002 here
        g = box_grid(3, 0.0, 1.0, 10)
        rep = energy_Fn(affine_field(g, np.eye(3)), full_mask(g),
                        make_rescaled(box_kernel(3), 0.15), power_potential(2.0), 1.0)
        assert rep.h == g.h == 0.1

    def test_1d_affine_stretch_value(self):
        # rho_delta box on (0,1), v = 2x, Phi = t^2, m = 1: the continuum
        # value is Phi(1) * (1 - delta/2) after the boundary deficit
        delta = 0.1
        g = box_grid(1, 0.0, 1.0, 200)
        v = affine_field(g, np.array([[2.0]]))
        rep = energy_Fn(v, full_mask(g), make_rescaled(box_kernel(1), delta),
                        power_potential(2.0), 1.0)
        assert rep.value == pytest.approx(1.0 - delta / 2, rel=2e-2)


class TestGradient:
    @pytest.mark.parametrize("d,m,scale", [(1, 1.0, 1.0), (1, 2.0, 4.0),
                                           (2, 1.0, 1.0), (2, 2.0, 4.0)])
    def test_matches_finite_differences(self, d, m, scale):
        g = box_grid(d, 0.0, 1.0, 8 if d < 3 else 4)
        kernel = make_rescaled(box_kernel(d), 0.35)
        phi = power_potential(2.0, scale)
        mask = full_mask(g)
        pairs = build_pairs(g, mask, kernel.support_radius)
        rng = np.random.default_rng(17 + d)
        vals = g.nodes() + 0.1 * rng.standard_normal((g.n_nodes, d))
        v = VectorField(g, vals)
        grad = gradient_Fn(v, mask, kernel, phi, m, pairs=pairs).values
        step = 1e-6
        for k in rng.integers(0, g.n_nodes, size=4):
            for c in range(d):
                vp, vm = vals.copy(), vals.copy()
                vp[k, c] += step
                vm[k, c] -= step
                ep = energy_Fn(VectorField(g, vp), mask, kernel, phi, m, pairs=pairs).value
                em = energy_Fn(VectorField(g, vm), mask, kernel, phi, m, pairs=pairs).value
                fd = (ep - em) / (2 * step)
                assert grad[k, c] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_rejects_nonsmooth_profile(self):
        g = box_grid(1, 0.0, 1.0, 8)
        a = np.linspace(0.0, 2.0, 10)
        phi = tabulated_potential(a, a.copy(), p=2.0, C0=0.0, C1=1.0)
        assert not phi.smooth_at_zero
        with pytest.raises(ValueError):
            gradient_Fn(affine_field(g, np.array([[1.5]])), full_mask(g),
                        make_rescaled(box_kernel(1), 0.25), phi)

    def test_zero_at_minimum(self):
        g = box_grid(1, 0.0, 1.0, 16)
        v = affine_field(g, np.array([[1.0]]))
        grad = gradient_Fn(v, full_mask(g), make_rescaled(box_kernel(1), 0.2),
                           power_potential(2.0)).values
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)


class TestKernelReuse:
    def test_reused_pairs_follow_each_fresh_kernel(self):
        # one pair set, fifty kernels built and dropped in turn: a value
        # cached per kernel object would be handed to a later kernel that
        # reuses the freed object's identity
        g = box_grid(1, 0.0, 1.0, 200)
        mask = full_mask(g)
        pairs = build_pairs(g, mask, 0.3)
        v = field_from_function(g, lambda x: 1.3 * x**2)
        phi = power_potential(2.0)
        stale = []
        for delta in np.linspace(0.100, 0.296, 50):
            kernel = make_rescaled(box_kernel(1), delta)
            got = energy_Fn(v, mask, kernel, phi, 1.0, pairs=pairs).value
            fresh = energy_Fn(v, mask, kernel, phi, 1.0, pairs=build_pairs(g, mask, 0.3)).value
            if got != fresh:
                stale.append(round(float(delta), 3))
        assert stale == []


class TestEEps:
    def test_quadratic_1d_exact(self):
        # quadratic Psi and collinear geometry: E_eps = E_0 identically
        g = box_grid(1, 0.0, 1.0, 64)
        w = catalog_potential("mbm_smooth", c=2.0)
        u = field_from_function(g, lambda x: x**2)
        pairs = build_pairs(g, None, 0.2)
        e0 = energy_E0(u, w.psi_ss0, support_radius=0.2, pairs=pairs).value
        for eps in (0.2, 0.05):
            ee = energy_E_eps(u, w, 1.0, eps, support_radius=0.2, pairs=pairs).value
            assert ee == pytest.approx(e0, abs=1e-12)

    def test_strain_domain_error(self):
        # eps large enough to collapse a bond: v(y) = v(x) somewhere
        g = box_grid(1, 0.0, 1.0, 32)
        u = field_from_function(g, lambda x: -x)  # i + eps*u collapses at eps=1
        w = catalog_potential("quartic")
        with pytest.raises(StrainDomainError):
            energy_E_eps(u, w, 1.0, 1.0, support_radius=0.2)

    def test_strain_domain_error_names_first_vanishing_bond(self):
        # two bonds collapse at eps = 1/2: (45, 46) along offset (0, 1) and
        # (9, 17) along the later offset (1, 0); h = 1/8 keeps it exact
        g = box_grid(2, 0.0, 1.0, 8)
        eps = 0.5
        vals = np.zeros((g.n_nodes, 2))
        vals[46] = [0.0, -0.125 / eps]
        vals[17] = [-0.125 / eps, 0.0]
        u = VectorField(g, vals)
        w = catalog_potential("quartic")
        with pytest.raises(StrainDomainError) as info:
            energy_E_eps(u, w, 1.0, eps, support_radius=0.3)
        assert info.value.pair == (45, 46)
        deformed = g.nodes() + eps * vals
        np.testing.assert_array_equal(deformed[45], deformed[46])
        ref = PerPairReference(g, np.ones(g.n_nodes, dtype=bool), 0.3)
        dead = np.flatnonzero(np.all(deformed[ref.j] == deformed[ref.i], axis=1))
        assert [(ref.i[k], ref.j[k]) for k in dead] == [(45, 46), (9, 17)]

    def test_collapse_along_any_offset_is_named(self):
        # x + xi + eps (u(x + xi) - u(x)) rounds to x exactly along diagonal
        # offsets too, where |xi|^2 = r * r only to rounding
        w = catalog_potential("quartic")
        for n in (8, 10, 64):
            g = box_grid(2, 0.0, 1.0, n)
            pairs = build_pairs(g, None, 4 * g.h)
            a = (n // 2) * n + n // 2 - 2
            for off in [(1, 1), (1, 2), (2, 1), (1, -1), (2, 3)]:
                b = a + off[0] * n + off[1]
                for eps in (0.5, 0.3, 0.1):
                    vals = np.zeros((g.n_nodes, 2))
                    vals[b] = -np.array(off) * g.h / eps
                    u = VectorField(g, vals)
                    deformed = np.array(off) * g.h + eps * (vals[b] - vals[a])
                    assert not deformed.any()
                    with pytest.raises(StrainDomainError) as info:
                        energy_E_eps(u, w, 1.0, eps, pairs=pairs)
                    assert info.value.pair == (a, b)


class TestEEpsExact:
    """E_eps against a reference whose strains are exact: each bond's strain
    is computed in 50-digit decimal arithmetic from the float data, rounded
    once, and the library's Psi of it summed with math.fsum."""

    EPS = (0.02, 1e-3, 1e-4, 1e-6)
    GRIDS = {1: (24, 3.5 / 24), 2: (12, 0.25), 3: (5, 0.4)}

    @staticmethod
    def exact_strains(u, pairs, m, eps):
        with localcontext() as ctx:
            ctx.prec = 50
            e = Decimal(eps)
            vals = [[Decimal(c) for c in row] for row in u.values.tolist()]
            strains = []
            for o in pairs._offsets():
                xi = [Decimal(c) for c in o.xi.tolist()]
                xi2 = sum(c * c for c in xi)
                for i, j in zip(*pairs._nodes(o)):
                    t2 = sum((c + e * (b - a)) ** 2
                             for c, a, b in zip(xi, vals[i], vals[j])) / xi2
                    strains.append(float(t2.sqrt() - 1 if m == 1 else (t2 - 1) / 2))
        return np.array(strains)

    @staticmethod
    def fields(g, field):
        """(u, eps) cases: a mild field at every eps in EPS, or fields that
        compress every bond, diagonal ones too, to about t0 of its length,
        where t^2 = 1 + q keeps too few of its digits to give t."""
        x = g.nodes()
        if field == "mild":
            rng = np.random.default_rng(140 + g.dim)
            u = VectorField(g, 0.5 * x**2 + 0.02 * rng.standard_normal(x.shape))
            return [(u, eps) for eps in TestEEpsExact.EPS]
        rng, eps = np.random.default_rng(160 + g.dim), 0.1
        return [(VectorField(g, -(1.0 - t0) / eps * x
                             + 0.01 * t0 * g.h / eps * rng.standard_normal(x.shape)), eps)
                for t0 in (1e-6, 1e-3, 0.3)]

    @pytest.mark.parametrize("field", ["mild", "compressed"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_exact_reference(self, d, field):
        n, radius = self.GRIDS[d]
        g = box_grid(d, 0.0, 1.0, n)
        pairs = listed_pairs(g, None, radius)
        w2 = 2.0 * g.cell_volume**2
        worst = 0.0
        for u, eps in self.fields(g, field):
            for m in (1.0, 2.0):
                s = self.exact_strains(u, pairs, m, eps)
                assert (field == "mild") == (s.min() > -0.25)  # t > 0.71 on every bond
                for tag in CATALOG_TAGS:
                    w = catalog_potential(tag)
                    ref = math.fsum(w(pairs.r, s).tolist()) * w2 / eps**2
                    got = energy_E_eps(u, w, m, eps, pairs=pairs).value
                    worst = max(worst, abs(got - ref) / ref)
        assert worst <= 1e-14


class TestLinearizationPass:
    """linearization_experiment computes E0 and every E_eps in one pass over
    the bonds; each number equals the single-eps call exactly."""

    EPS = (0.2, 0.1, 0.05)

    @pytest.mark.parametrize("by_pairs", [False, True])
    @pytest.mark.parametrize("m", [1.0, 2.0])
    @pytest.mark.parametrize("tag", ["quartic", "cohesive", "mbm", "two_well"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rows_equal_single_calls_and_reference(self, d, tag, m, by_pairs):
        # the single calls take their horizon from the pair set or from the
        # support radius alone; either rule gives the table's bonds
        n, radius = TestStencilEquivalence.SIZES[d]
        g = box_grid(d, 0.0, 1.0, n)
        rng = np.random.default_rng(80 + d)
        x = g.nodes()
        u = VectorField(g, 0.5 * x**2 + 0.02 * rng.standard_normal(x.shape))
        w = catalog_potential(tag)
        rho = w.psi_ss0
        tab = linearization_experiment(u, w, m, self.EPS, support_radius=radius)

        horizon = (dict(pairs=build_pairs(g, None, radius)) if by_pairs
                   else dict(support_radius=radius))
        assert tab.E0 == energy_E0(u, rho, **horizon).value
        assert [r.eps for r in tab.rows] == list(self.EPS)
        for row in tab.rows:
            assert not row.flagged
            assert row.E_eps == energy_E_eps(u, w, m, row.eps, **horizon).value

        ref = PerPairReference(g, np.ones(g.n_nodes, dtype=bool), radius)
        xr = ref.seminorm_Xrho(u, rho)
        assert abs(tab.E0 - 0.5 * xr) <= 1e-13 * (0.5 * xr)
        for row in tab.rows:
            e = ref.energy_E_eps(u, w, m, row.eps)
            assert abs(row.E_eps - e) <= 1e-13 * abs(e)

    def test_collapsed_eps_is_flagged_alone(self):
        # at eps = 1/2 the bond (a, a + 1) along offset (0, 1) collapses, and
        # so does (b, b + 64) along (1, 0), which a later run of offsets holds;
        # the flagged eps keeps the first, the rows beside it are untouched
        g = box_grid(2, 0.0, 1.0, 64)
        h, radius, a, b = 1.0 / 64, 0.1, 20 * 64 + 30, 40 * 64 + 10
        pairs = build_pairs(g, None, radius)
        first = [tuple(o.xi) for o in pairs._runs[0].offsets]
        assert (0.0, h) in first and (h, 0.0) not in first
        vals = np.zeros((g.n_nodes, 2))
        vals[a + 1] = [0.0, -2.0 * h]
        vals[b + 64] = [-2.0 * h, 0.0]
        u = VectorField(g, vals)
        w = catalog_potential("quartic")
        with pytest.raises(StrainDomainError) as info:
            energy_E_eps(u, w, 1.0, 0.5, support_radius=radius)
        assert info.value.pair == (a, a + 1)
        tab = linearization_experiment(u, w, 1.0, (0.7, 0.5, 0.3), support_radius=radius)
        assert [r.flagged for r in tab.rows] == [False, True, False]
        assert np.isnan(tab.rows[1].E_eps) and np.isnan(tab.rows[1].abs_err)
        alone = linearization_experiment(u, w, 1.0, (0.7, 0.3), support_radius=radius)
        assert (tab.E0, tab.rows[0], tab.rows[2]) == (alone.E0, *alone.rows)
        for row in alone.rows:
            assert row.E_eps == energy_E_eps(u, w, 1.0, row.eps, support_radius=radius).value

    @pytest.mark.parametrize("bad", [0.0, -0.01])
    def test_nonpositive_eps_rejected_before_bond_work(self, bad, monkeypatch):
        import peribond.energy

        def no_bond_work(*args, **kwargs):
            raise AssertionError("bond work started")

        g = box_grid(1, 0.0, 1.0, 16)
        u = field_from_function(g, lambda x: x**2)
        w = catalog_potential("quartic")
        monkeypatch.setattr(peribond.energy, "build_pairs", no_bond_work)
        monkeypatch.setattr(peribond.energy, "_bond_runs", no_bond_work)
        with pytest.raises(ValueError, match="eps must be positive"):
            linearization_experiment(u, w, 1.0, [0.1, 0.05, bad, 0.01], support_radius=0.2)
        with pytest.raises(ValueError, match="eps must be positive"):
            energy_E_eps(u, w, 1.0, bad, support_radius=0.2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_eps_rejected(self, bad):
        g = box_grid(1, 0.0, 1.0, 16)
        u = field_from_function(g, lambda x: x**2)
        w = catalog_potential("quartic")
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            energy_E_eps(u, w, 1.0, bad, support_radius=0.2)
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            linearization_experiment(u, w, 1.0, [bad, 0.1], support_radius=0.2)

    def test_horizon_is_required(self):
        # without pairs or a support radius there is no horizon to default to,
        # not even a kernel's own; the unit radius would take every pair of
        # the unit interval
        g = box_grid(1, 0.0, 1.0, 16)
        u = field_from_function(g, lambda x: x**2)
        w = catalog_potential("quartic")
        with pytest.raises(ValueError, match="support_radius"):
            energy_E_eps(u, w, 1.0, 0.1)
        # linearization_experiment takes no pair set, so its radius is a
        # required argument
        with pytest.raises(TypeError, match="support_radius"):
            linearization_experiment(u, w, 1.0, [0.1, 0.05])
        with pytest.raises(ValueError, match="support_radius"):
            energy_E0(u, make_rescaled(box_kernel(1), 0.2))


class TestSeminorms:
    def test_affine_seminorm_W(self):
        # [v]_W^p with v = x: stretches identically 1, so the value is the
        # kernel mass over the restricted double integral
        delta = 0.05
        g = box_grid(1, 0.0, 1.0, 400)
        v = affine_field(g, np.array([[1.0]]))
        val = seminorm_W(v, make_rescaled(box_kernel(1), delta), p=2.0)
        assert val == pytest.approx(1.0 - delta / 2, rel=1e-2)


class TestStretches:
    def test_affine(self):
        g = box_grid(2, 0.0, 1.0, 8)
        F = np.array([[2.0, 0.0], [0.0, 0.5]])
        v = affine_field(g, F)
        pairs = listed_pairs(g, None, 0.4)
        t = stretches(v, pairs)
        expected = np.linalg.norm(pairs.dir @ F.T, axis=1)
        np.testing.assert_allclose(t, expected, rtol=1e-12)


class TestIncidencePath:
    """A pair set of one run gathers and scatters through its array of bond
    ends; every bond sum equals the slice path's bit for bit."""

    @staticmethod
    def _mask(g, kind, radius):
        if kind == "full":
            return full_mask(g, radius)
        box = box_subdomain(g, 1.5 * g.h, collar_width=radius)
        active = box.active.copy()
        inner = np.flatnonzero(active)
        active[inner[len(inner) // 2]] = False  # a hole: offsets get `keep`
        return SubdomainMask(g, active, radius)

    @pytest.mark.parametrize("kind", ["full", "holed_box"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_slice_path(self, d, kind, monkeypatch):
        import peribond.energy

        n, radius = TestStencilEquivalence.SIZES[d]
        g = box_grid(d, 0.0, 1.0, n)
        mask = self._mask(g, kind, radius)
        fast = listed_pairs(g, mask, radius)
        slow = listed_pairs(g, mask, radius)
        slow._ends = None
        assert len(fast._runs) == 1
        # head then tail of each bond, in bond order
        assert np.array_equal(fast._ends, np.column_stack([fast.j, fast.i]).ravel())
        assert (kind == "holed_box") == any(o.keep is not None for o in fast._runs[0].offsets)

        rng = np.random.default_rng(90 + d)
        x = g.nodes()
        F = np.eye(d) + 0.3 * rng.uniform(-1.0, 1.0, (d, d))
        vals = x @ F.T + 0.05 * rng.standard_normal(x.shape)
        vals[fast.j[0]] = vals[fast.i[0]]  # one bond with coincident deformed ends
        v = VectorField(g, vals)
        u = VectorField(g, 0.5 * x**2 + 0.02 * rng.standard_normal(x.shape))
        kernel = custom_radial(d, lambda r: 1.0 - 0.8 * r / radius, radius)
        w = catalog_potential("quartic")
        phi = huber_power(2.0, 0.3)

        def sums(pairs):
            out = [stretches(v, pairs), seminorm_W(v, kernel, 1.5, pairs=pairs),
                   energy_E0(u, kernel, pairs=pairs).value,
                   energy_E_eps(u, w, 2.0, 0.05, pairs=pairs).value]
            for m in (1.0, 2.0):
                rep, grad = energy_gradient_Fn(v, mask, kernel, phi, m, pairs=pairs)
                out += [rep.value, grad.values,
                        energy_Fn(v, mask, kernel, phi, m, pairs=pairs).value,
                        gradient_Fn(v, mask, kernel, phi, m, pairs=pairs).values]
            monkeypatch.setattr(peribond.energy, "build_pairs", lambda *args: pairs)
            out.append(repr(linearization_experiment(u, w, 1.0, (0.2, 0.1, 0.05),
                                                     support_radius=radius)))
            return out

        for a, b in zip(sums(fast), sums(slow), strict=True):
            assert np.array_equal(a, b)

        # collapse the bond (i, j) at eps = 1/2: both paths name it
        k = len(fast) // 2
        i, j = fast.i[k], fast.j[k]
        collapse = np.zeros((g.n_nodes, d))
        collapse[j] = -2.0 * fast.xi[k]
        u = VectorField(g, collapse)
        errors = []
        for pairs in (fast, slow):
            with pytest.raises(StrainDomainError) as info:
                energy_E_eps(u, w, 1.0, 0.5, pairs=pairs)
            errors.append(info.value.pair)
        assert errors[0] == errors[1] == (i, j)

    def test_selection_by_run_count(self):
        g = box_grid(2, 0.0, 1.0, 128)
        pairs = build_pairs(g, box_subdomain(g, 0.05, collar_width=0.04), 0.04)
        assert len(pairs._runs) > 1 and pairs._ends is None


class TestWorkspace:
    """A pass given a minimization's workspace returns what the plain pass
    returns, bit for bit, and nothing it returns lives in the workspace."""

    @staticmethod
    def _setup(d, kind, seed):
        n, radius = TestStencilEquivalence.SIZES[d]
        g = box_grid(d, 0.0, 1.0, n)
        mask = TestIncidencePath._mask(g, kind, radius)
        pairs = listed_pairs(g, mask, radius)
        kernel = custom_radial(d, lambda r: 1.0 - 0.8 * r / radius, radius)
        rng = np.random.default_rng(seed)
        x = g.nodes()
        F = np.eye(d) + 0.3 * rng.uniform(-1.0, 1.0, (d, d))
        vals = x @ F.T + 0.05 * rng.standard_normal(x.shape)
        vals[pairs.j[0]] = vals[pairs.i[0]]  # one bond with coincident deformed ends
        return g, mask, pairs, kernel, VectorField(g, vals)

    @pytest.mark.parametrize("runs", ["one", "many"])
    @pytest.mark.parametrize("kind", ["full", "holed_box"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_equals_plain_pass(self, d, kind, runs, monkeypatch):
        import peribond.energy

        if runs == "many":  # runs of one to a few offsets, of unequal sizes
            monkeypatch.setattr(peribond.energy, "_RUN_BONDS", 10)
        g, mask, pairs, kernel, v = self._setup(d, kind, 120 + d)
        assert (len(pairs._runs) > 1) == (runs == "many")
        assert (pairs._ends is None) == (runs == "many")
        assert (kind == "holed_box") == any(o.keep is not None
                                            for run in pairs._runs for o in run.offsets)
        assert len({run.n for run in pairs._runs}) > 1 or runs == "one"
        ws = _Workspace(pairs, kernel)
        for phi in (power_potential(2.5), huber_power(2.0, 0.3)):
            for m in (1.0, 2.0):
                rep, grad = energy_gradient_Fn(v, mask, kernel, phi, m, pairs=pairs)
                got, got_grad = _Fn_pass(v, mask, kernel, phi, m, pairs, ws=ws)
                assert got == rep
                np.testing.assert_array_equal(got_grad.values, grad.values)
                assert _Fn_pass(v, mask, kernel, phi, m, pairs, gradient=False, ws=ws)[0] == rep
                np.testing.assert_array_equal(
                    _Fn_pass(v, mask, kernel, phi, m, pairs, energy=False, ws=ws)[1].values,
                    grad.values)

    @pytest.mark.parametrize("d", [1, 2])
    def test_results_outlive_the_next_pass(self, d):
        g, mask, pairs, kernel, v = self._setup(d, "holed_box", 130 + d)
        w = VectorField(g, 1.1 * v.values + 0.01)
        phi = power_potential(2.0)
        ws = _Workspace(pairs, kernel)
        first, first_grad = _Fn_pass(v, mask, kernel, phi, 2.0, pairs, ws=ws)
        kept, kept_grad = first.value, first_grad.values.copy()
        second, second_grad = _Fn_pass(w, mask, kernel, phi, 2.0, pairs, ws=ws)
        assert second.value != kept
        assert not np.array_equal(second_grad.values, kept_grad)
        assert first.value == kept
        np.testing.assert_array_equal(first_grad.values, kept_grad)
        for buf in (ws.temps, ws.dv):
            assert not np.shares_memory(first_grad.values, buf)
