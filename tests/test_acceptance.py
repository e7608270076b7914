"""Acceptance battery.

One test per contract clause, at the stated tolerances.  Where a clause
first quoted a constant, witness or rate that the mathematics does not
support, the test asserts the true statement instead, checked against a
reference that does not come from the code under test, and a comment gives
the short derivation it rests on.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import (check_assumption_A, check_density_condition, fractional_sequence,
                     set_laminate_grid)
from peribond.constructions import (laminate_energy_decay, rigidity_reconstruct,
                                    sawtooth_energy)
from peribond.density import (density_laminate_upper, density_lower, density_tilde,
                              zero_set_predicate)
from peribond.energy import build_pairs, energy_Fn, gradient_Fn
from peribond.grids import (VectorField, box_grid, field_from_function,
                            full_mask, sphere_quadrature)
from peribond.kernels import box_kernel, box_sequence, make_fractional, make_rescaled
from peribond.materials import catalog_potential, power_potential, quartic_potential
from peribond.solver import linearization_experiment

PHI2 = power_potential(2.0)


def rand_orthogonal(rng, d=2):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_sawtooth_energy_anchor():
    for N, delta in [(1, 1e-2), (10, 1e-3), (16, 0.25 / 16**2)]:
        t0 = time.monotonic()
        res = sawtooth_energy(N, delta, h=delta / 32.0)
        elapsed = time.monotonic() - t0
        assert res.in_closed_form_regime
        assert res.expected == pytest.approx(8.0 / 15.0 * N * delta)
        assert res.rel_error <= 0.01, (N, delta, res.rel_error)
        assert elapsed < 10.0


# -- 2 ----------------------------------------------------------------------

def _circle_average_quad(F):
    """(1/2pi) int ((|F w(theta)|^2 - 1)/2)^2 dtheta by adaptive quadrature."""
    def integrand(theta):
        fw = F @ np.array([np.cos(theta), np.sin(theta)])
        return ((fw @ fw - 1.0) / 2.0) ** 2
    val, _ = quad(integrand, 0.0, 2.0 * np.pi, epsabs=0.0, epsrel=1e-13,
                  limit=200)
    return val / (2.0 * np.pi)


def test_criterion_02_closed_form_average_with_quoted_constant():
    # For Phi(a) = a^2, m = 2 the integrand is ((w^T A w)/2)^2 with
    # A = F^T F - I.  The fourth moments of the unit circle, avg(w_i^4) = 3/8
    # and avg(w_1^2 w_2^2) = 1/8, give avg((w^T A w)^2) = (2 tr(A^2) +
    # tr(A)^2)/8, so the average is (|A|^2 + (tr A)^2/2)/16.  The closed
    # form and the code are both checked against an adaptive quadrature of
    # the circle integral.
    rng = np.random.Generator(np.random.Philox(2025))
    q = sphere_quadrature(2, 512)
    Fs = [rng.uniform(-3.0, 3.0, size=(2, 2)) for _ in range(20)]
    refs = [_circle_average_quad(F) for F in Fs]
    t0 = time.monotonic()
    got = [density_tilde(F, PHI2, 2.0, q) for F in Fs]
    assert time.monotonic() - t0 < 1.0
    for F, ref, g in zip(Fs, refs, got):
        G = F.T @ F
        closed = (np.sum((G - np.eye(2)) ** 2)
                  + 0.5 * (np.trace(G) - 2.0) ** 2) / 16.0
        assert closed == pytest.approx(ref, rel=1e-9)
        assert g == pytest.approx(ref, rel=1e-9)


def test_criterion_02_closed_form_average_corrected_constant():
    rng = np.random.Generator(np.random.Philox(2025))
    q = sphere_quadrature(2, 512)
    t0 = time.monotonic()
    for _ in range(20):
        F = rng.uniform(-3.0, 3.0, size=(2, 2))
        G = F.T @ F
        exact = (np.sum((G - np.eye(2)) ** 2)
                 + 0.5 * (np.trace(G) - 2.0) ** 2) / 16.0
        got = density_tilde(F, PHI2, 2.0, q)
        assert got == pytest.approx(exact, rel=1e-9)
    assert time.monotonic() - t0 < 1.0


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_lower_bound_gap_at_witness():
    q = sphere_quadrature(2, 256)
    F = np.diag([4.0, 0.25])
    lower = density_lower(F, PHI2, 2.0, q)
    tilde = density_tilde(F, PHI2, 2.0, q)
    assert lower < tilde - 0.01


def test_criterion_03_laminate_gap_at_witness():
    # For Phi = a^2, m = 2 the plain average is the quartic
    # W(F) = (|F^T F - I|^2 + (|F|^2 - 2)^2 / 2) / 16.  At diag(4, 1/4) it is
    # rank-one convex, so no one-level laminate undercuts it there; the gap
    # is witnessed at diag(3/2, 1/4), where d^2/dt^2 W(F + t e2 x e2) < 0.
    # Certificate: diag(3/2, 1/4) = 1/3 diag(3/2, -3/4) + 2/3 diag(3/2, 3/4);
    # the two differ by (3/2) e2 x e2 (rank one), and W = 0.130249 at both,
    # well below W(diag(3/2, 1/4)) = 0.155640.
    q = sphere_quadrature(2, 256)
    F = np.diag([1.5, 0.25])
    t0 = time.monotonic()
    lam = density_laminate_upper(F, PHI2, 2.0, q)
    tilde = density_tilde(F, PHI2, 2.0, q)
    assert time.monotonic() - t0 < 30.0
    A, B = np.diag([1.5, -0.75]), np.diag([1.5, 0.75])
    assert np.linalg.matrix_rank(B - A) == 1
    np.testing.assert_allclose(A / 3.0 + 2.0 * B / 3.0, F, atol=1e-15)
    explicit = (density_tilde(A, PHI2, 2.0, q) / 3.0
                + 2.0 * density_tilde(B, PHI2, 2.0, q) / 3.0)
    assert explicit < tilde - 0.01
    assert lam < tilde - 0.01
    assert lam <= explicit + 1e-4


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_zero_set_matches_lower_bound():
    rng = np.random.Generator(np.random.Philox(4))
    q = sphere_quadrature(2, 256)
    for _ in range(200):
        smax = rng.uniform(0.5, 1.5)
        smin = rng.uniform(0.1, smax)
        F = rand_orthogonal(rng) @ np.diag([smax, smin]) @ rand_orthogonal(rng)
        inside = zero_set_predicate(F)
        vanished = density_lower(F, PHI2, 1.0, q) < 1e-10
        assert inside == vanished, (smax, smin)


def test_criterion_04_laminate_decay_below_one_percent():
    # A laminate of frequency k costs energy only within a horizon delta of
    # its k interfaces, so the energy scales like k * delta -- the law of the
    # sawtooth anchor (8/15) N delta of criterion 01.  With delta = 1/n^2 and
    # k = n that is 1/n: the table decays to zero, though not to 1% of its
    # first entry by n = 8.  For n = 1 the horizon spans the whole domain, so
    # monotone decay is asserted from k * delta <= 1/2 on, and the rate as
    # the log-log slope of e against k * delta over n >= 3.
    rows = laminate_energy_decay((0.5, 0.5), list(range(1, 9)))
    e = np.array([r.energy for r in rows])
    kd = np.array([r.k * r.delta for r in rows])
    assert np.all(np.diff(e[kd <= 0.5]) < 0.0), e
    tail = np.array([r.n >= 3 for r in rows])
    slope = np.polyfit(np.log(kd[tail]), np.log(e[tail]), 1)[0]
    assert 0.9 <= slope <= 1.1, slope


# -- 5 ----------------------------------------------------------------------

_RATE_EPS = [0.2, 0.1, 0.05, 0.025]


def _rate_field(d):
    if d == 1:
        g = box_grid(1, 0.0, 1.0, 64)
        return field_from_function(g, lambda x: 0.1 * x**2), 0.2
    g = box_grid(2, 0.0, 1.0, 16)
    return field_from_function(
        g, lambda x: 0.1 * np.stack([x[:, 0] ** 2, x[:, 1] ** 2], axis=-1)), 0.3


def _rate_ok(d, tag, m):
    u, radius = _rate_field(d)
    tab = linearization_experiment(u, catalog_potential(tag), m, _RATE_EPS,
                                   support_radius=radius)
    errs = tab.errors()
    if len(errs) == 0 or np.all(errs <= 1e-12):
        return True  # identically exact: no rate to fit
    return tab.slope is not None and 0.8 <= tab.slope <= 1.3


def test_criterion_05_linearization_rate_window():
    combos = [(d, tag, m)
              for d in (1, 2)
              for tag in ("mbm_smooth", "quartic", "cohesive")
              for m in (1.0, 2.0)
              if not (d == 1 and tag == "cohesive" and m == 1.0)]
    assert len(combos) == 11
    for d, tag, m in combos:
        assert _rate_ok(d, tag, m), (d, tag, m)


def test_criterion_05_linearization_rate_even_collinear_case():
    # In d = 1 with m = 1 the strain of 1 + eps*z is exactly eps*z, and the
    # cohesive Psi = f(r s^2), f(x) = x/(1+x), responds evenly in it:
    # eps^-2 f(r eps^2 z^2) = r z^2 - r^2 eps^2 z^4 + O(eps^4).  The
    # deviation from the quadratic limit is therefore second order, not the
    # generic first order of the [0.8, 1.3] window.
    u, radius = _rate_field(1)
    tab = linearization_experiment(u, catalog_potential("cohesive"), 1.0,
                                   _RATE_EPS, support_radius=radius)
    assert np.all(tab.errors() > 1e-12)
    assert tab.slope is not None and 1.8 <= tab.slope <= 2.2, tab.slope


def test_criterion_05_collinear_rate_holds_to_small_eps():
    # The same case keeps its eps^2 rate down to eps = 1e-7, where the
    # deviation (2.6e-3 eps^2 relative) falls below one rounding of E0:
    # E_eps is formed from the strain, not from a stretch t = 1 + O(eps)
    # whose t - 1 would cancel.
    u, radius = _rate_field(1)
    tab = linearization_experiment(u, catalog_potential("cohesive"), 1.0,
                                   [1e-5, 1e-6, 1e-7], support_radius=radius)
    for row in tab.rows:
        assert not row.flagged
        assert row.abs_err <= (3e-3 * row.eps**2 + 4 * np.finfo(float).eps) * tab.E0, row


def test_criterion_05_collinear_quadratic_case_exact():
    u, radius = _rate_field(1)
    tab = linearization_experiment(u, catalog_potential("mbm_smooth"), 1.0,
                                   _RATE_EPS, support_radius=radius)
    assert np.all(tab.errors() <= 1e-12)


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_analytic_gradient_matches_finite_differences():
    rng = np.random.Generator(np.random.Philox(6))
    for d in (1, 2):
        g = box_grid(1, 0.0, 1.0, 24) if d == 1 else box_grid(2, 0.0, 1.0, 8)
        kernel = make_rescaled(box_kernel(d), 0.3)
        mask = full_mask(g)
        pairs = build_pairs(g, mask, kernel.support_radius)
        for m in (1.0, 2.0):
            for k_phi, phi in enumerate((power_potential(2.0), quartic_potential())):
                for _ in range(10):
                    vals = g.nodes() + 0.1 * rng.standard_normal((g.n_nodes, d))
                    v = VectorField(g, vals)
                    an = gradient_Fn(v, mask, kernel, phi, m, pairs=pairs).values
                    fd = np.zeros_like(vals)
                    step = 1e-6
                    for k in range(g.n_nodes):
                        for c in range(d):
                            vp, vm = vals.copy(), vals.copy()
                            vp[k, c] += step
                            vm[k, c] -= step
                            ep = energy_Fn(VectorField(g, vp), mask, kernel,
                                           phi, m, pairs=pairs).value
                            em = energy_Fn(VectorField(g, vm), mask, kernel,
                                           phi, m, pairs=pairs).value
                            fd[k, c] = (ep - em) / (2 * step)
                    rel = (np.linalg.norm(an - fd)
                           / max(np.linalg.norm(fd), 1e-30))
                    assert rel <= 1e-5, (d, m, k_phi, rel)


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_exact_isometries_reconstructed():
    rng = np.random.Generator(np.random.Philox(7))
    g = box_grid(2, -1.0, 1.0, 48)
    for _ in range(5):
        U = rand_orthogonal(rng)
        if rng.integers(0, 2):
            U = U @ np.diag([1.0, -1.0])
        b = rng.uniform(-2.0, 2.0, 2)
        rec = rigidity_reconstruct(VectorField(g, g.nodes() @ U.T + b), R=0.5)
        assert rec.orthogonality_defect <= 1e-12
        assert rec.residual <= 1e-12
        np.testing.assert_allclose(rec.F, U, atol=1e-12)


# -- 8 ----------------------------------------------------------------------

def test_criterion_08_kernel_battery():
    # unit mass
    kernels = ([box_kernel(d) for d in (1, 2, 3)]
               + [make_rescaled(box_kernel(2), 0.2),
                  make_fractional(1, 0.5, 2.0),
                  make_fractional(2, 0.5, 2.0),
                  make_fractional(2, 0.9, 2.0),
                  make_fractional(3, 0.25, 3.0)])
    for i, k in enumerate(kernels):
        assert abs(k.mass() - 1.0) <= 1e-6, i
    # concentration tails along the sequences (compact support: exact zero
    # past the horizon; fractional: tail matches its slow closed form)
    assert check_assumption_A(box_sequence(2), delta=0.3, n_max=8).passed
    rep = check_assumption_A(fractional_sequence(2, p=2.0), delta=0.3,
                             n_max=12, tol=0.2)
    assert rep.passed
    n = np.arange(1, 13)
    np.testing.assert_allclose(rep.tail, 1.0 - 0.3 ** (2.0 / (n + 1)), rtol=1e-8)
    # 1D box: integral of rho(z)/z^2 outside the horizon is 1/delta - 1
    drep = check_density_condition(box_kernel(1), p=2.0)
    np.testing.assert_allclose(drep.integrals, 1.0 / drep.deltas - 1.0, rtol=1e-9)
    assert drep.passed


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_bounds_invariant_under_orthogonal_sandwich(monkeypatch):
    rng = np.random.Generator(np.random.Philox(9))
    q = sphere_quadrature(2, 512)
    set_laminate_grid(monkeypatch, 5, 4, 2.0, 8, 0)
    for _ in range(50):
        F = rng.uniform(-2.0, 2.0, size=(2, 2))
        G = rand_orthogonal(rng) @ F @ rand_orthogonal(rng)
        assert abs(density_lower(F, PHI2, 2.0, q)
                   - density_lower(G, PHI2, 2.0, q)) <= 1e-10
        assert abs(density_tilde(F, PHI2, 2.0, q)
                   - density_tilde(G, PHI2, 2.0, q)) <= 1e-10
        assert abs(density_laminate_upper(F, PHI2, 2.0, q)
                   - density_laminate_upper(G, PHI2, 2.0, q)) <= 1e-10


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_runner_outputs_deterministic(tmp_path, child_env):
    cfg = {"experiment": "density", "seed": 11, "strain_m": 2,
           "potential": {"profile": "power", "p": 2.0},
           "density": {"matrices": [[1.5, 0.2, -0.1, 0.8],
                                    [0.5, 0.0, 0.0, 0.5]],
                       "order": 64}}
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(cfg))

    def run(out, threads, blas_threads):
        # --threads has no effect; the BLAS thread count is what could vary
        env = {**child_env, **{var: str(blas_threads) for var in
                               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
        proc = subprocess.run(
            [sys.executable, "-m", "peribond.cli", "run", str(cfg_path),
             "--out", str(out), "--threads", str(threads)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return ((out / "density.csv").read_bytes(),
                (out / "summary.json").read_bytes())

    a = run(tmp_path / "a", 1, 1)
    b = run(tmp_path / "b", 1, 1)
    c = run(tmp_path / "c", 8, 1)
    d = run(tmp_path / "d", 1, 2)
    assert a == b
    assert a == c
    assert a == d
