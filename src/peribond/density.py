"""Two-sided bounds on the localized energy density and its zero set.

The limit density of the vanishing-horizon energy is known only through a
sandwich: a spherical-average lower bound with positive-part argument, the
plain spherical average, and a rank-one lamination upper bound standing in
for the quasiconvexification.  Everything here depends on a matrix F only
through its singular values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import SphereQuadrature, sphere_quadrature
from .materials import Potential


def singular_values(F: np.ndarray) -> np.ndarray:
    F = np.atleast_2d(np.asarray(F, dtype=float))
    return np.linalg.svd(F, compute_uv=False)


def _sphere_average(C: np.ndarray, phi: Potential, m: float,
                    q: SphereQuadrature, lower: bool = False) -> np.ndarray:
    """Sphere average of Phi(m^-1 (|F w|^m - 1)) over a stack of Grams C = F^T F.

    |F w|^2 = w^T C w is one (B, k) @ (k, Q) product over the k upper-triangle
    monomials w_i w_j of the quadrature points.  With ``lower`` the argument
    takes its positive part, otherwise its absolute value.  Shape
    (B, d, d) -> (B,).
    """
    i, j = np.triu_indices(C.shape[-1])
    coef = np.where(i == j, 1.0, 2.0) * C[:, i, j]
    # rounding pushes w^T C w slightly below 0 when F is singular, and the
    # fractional power would turn that into a NaN that np.argmin picks
    t2 = np.maximum(coef @ (q.points[:, i] * q.points[:, j]).T, 0.0)
    arg = ((t2 if m == 2 else t2 ** (m / 2)) - 1.0) / m
    arg = np.maximum(arg, 0.0) if lower else np.abs(arg)
    return phi(arg) @ q.weights


def _gram(Fs: np.ndarray) -> np.ndarray:
    """F^T F for a stack of matrices, shape (B, d, d)."""
    return np.swapaxes(Fs, -1, -2) @ Fs


def _canonical_gram(Fs: np.ndarray) -> np.ndarray:
    """diag(sigma(F)^2) for a stack of matrices, shape (B, d, d).

    The spherical averages depend on F only through its singular values, and
    fixing the orientation keeps the quadrature error identical across the
    orbit F -> U' F U'' instead of drifting with the integrand's kink position.
    """
    sig = np.linalg.svd(Fs, compute_uv=False)
    return sig[:, :, None] ** 2 * np.eye(Fs.shape[-1])


def density_lower(F, phi: Potential, m: float, q: SphereQuadrature) -> float:
    """Spherical average of Phi(m^-1 (|F w|^m - 1)_+): the lower bound density."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    return float(_sphere_average(_canonical_gram(F[None]), phi, m, q, lower=True)[0])


def density_tilde(F, phi: Potential, m: float, q: SphereQuadrature) -> float:
    """Spherical average of Phi(m^-1 | |F w|^m - 1 |)."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    return float(_sphere_average(_canonical_gram(F[None]), phi, m, q)[0])


def closed_form_tilde_2d(F) -> float:
    """Closed form of the spherical average for the quartic case in d = 2.

    For Phi(t) = t^2 and strain order m = 2 the circle average of
    ((|F w|^2 - 1)/2)^2 reduces, via the fourth moments of the circle, to
    (1/16) (|F^T F - I|^2 + (|F|^2 - 2)^2 / 2).
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    G = F.T @ F
    dev = G - np.eye(2)
    return float((np.sum(dev**2) + 0.5 * (np.trace(G) - 2.0) ** 2) / 16.0)


def zero_set_predicate(F, tol: float = 1e-12) -> bool:
    """True iff F^T F <= I, i.e. the largest singular value is at most 1."""
    return bool(singular_values(F).max() <= 1.0 + tol)


def one_d_exact_density(t: float, phi: Potential, m: float = 1.0) -> float:
    """The exact limit density in d = 1: Phi(m^-1 (|t|^m - 1)_+)."""
    return float(phi(max((abs(t) ** m - 1.0) / m, 0.0)))


def density_lower_batch(Fs: np.ndarray, phi: Potential, m: float,
                        q: SphereQuadrature) -> np.ndarray:
    """density_lower over a batch of matrices, shape (B, d, d) -> (B,)."""
    return _sphere_average(_gram(np.asarray(Fs, dtype=float)), phi, m, q, lower=True)


def density_tilde_batch(Fs: np.ndarray, phi: Potential, m: float,
                        q: SphereQuadrature) -> np.ndarray:
    """density_tilde over a batch of matrices, shape (B, d, d) -> (B,)."""
    return _sphere_average(_gram(np.asarray(Fs, dtype=float)), phi, m, q)


#: laminate candidates evaluated per batch, bounding the (B, Q) temporaries
_LAMINATE_CHUNK = 16384


@dataclass
class LaminateSearch:
    """Brute-force grid for the first-order laminate upper bound (d = 2)."""

    n_lambda: int = 17
    n_mag: int = 12
    max_mag: float = 2.0
    n_angle: int = 32
    refine_rounds: int = 2


def density_laminate_upper(F, phi: Potential, m: float, q: SphereQuadrature,
                           search: LaminateSearch | None = None) -> float:
    """One-level rank-one lamination upper bound on the relaxed density.

    Minimizes lam * tilde(F + (1-lam) a x n) + (1-lam) * tilde(F - lam a x n)
    over volume fractions and rank-one perturbations a x n, never returning
    more than tilde(F).  Only d = 2 is supported.

    The search runs on the canonical representative diag(sigma(F)): every
    quantity involved depends on a matrix only through its singular values,
    so this loses nothing and makes the result invariant under
    F -> U' F U'' for orthogonal U', U'' up to singular-value rounding.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    if F.shape != (2, 2):
        raise ValueError("laminate search supports d = 2 only")
    F = np.diag(np.linalg.svd(F, compute_uv=False))
    return _laminate_upper(F, phi, m, q, search, density_lower(F, phi, m, q),
                           density_tilde(F, phi, m, q))


def _laminate_upper(F: np.ndarray, phi: Potential, m: float, q: SphereQuadrature,
                    search: LaminateSearch | None, lower_F: float,
                    tilde_F: float) -> float:
    """The laminate search at F = diag(sigma), capped by ``tilde_F`` and
    checked against ``lower_F``, the two averages at the same matrix."""
    if search is None:
        search = LaminateSearch()
    lams = np.linspace(0.0, 1.0, search.n_lambda)[1:-1]
    mags = np.linspace(search.max_mag / search.n_mag, search.max_mag, search.n_mag)
    angs = np.linspace(0.0, np.pi, search.n_angle, endpoint=False)

    def evaluate(lams, mags, angs_a, angs_n):
        lam, mag, aa, an = np.meshgrid(lams, mags, angs_a, angs_n, indexing="ij")
        lam, mag, aa, an = (x.ravel() for x in (lam, mag, aa, an))
        a = mag[:, None] * np.stack([np.cos(aa), np.sin(aa)], axis=-1)
        nvec = np.stack([np.cos(an), np.sin(an)], axis=-1)
        rank1 = a[:, :, None] * nvec[:, None, :]
        best_val, best_idx = np.inf, 0
        for start in range(0, len(lam), _LAMINATE_CHUNK):
            sl = slice(start, start + _LAMINATE_CHUNK)
            lam_c = lam[sl]
            plus = F + (1.0 - lam_c)[:, None, None] * rank1[sl]
            minus = F - lam_c[:, None, None] * rank1[sl]
            vals = (lam_c * _sphere_average(_gram(plus), phi, m, q)
                    + (1.0 - lam_c) * _sphere_average(_gram(minus), phi, m, q))
            k = int(np.argmin(vals))
            if vals[k] < best_val:
                best_val, best_idx = float(vals[k]), start + k
        return best_val, (lam[best_idx], mag[best_idx], aa[best_idx], an[best_idx])

    best, (bl, bm, ba, bn) = evaluate(lams, mags, angs, angs)
    dl = lams[1] - lams[0] if len(lams) > 1 else 0.1
    dm = mags[1] - mags[0] if len(mags) > 1 else 0.1
    da = angs[1] - angs[0]
    for _ in range(search.refine_rounds):
        lams_r = np.clip(bl + np.linspace(-dl, dl, 7), 1e-3, 1 - 1e-3)
        mags_r = np.clip(bm + np.linspace(-dm, dm, 7), 1e-6, None)
        angs_a = ba + np.linspace(-da, da, 7)
        angs_n = bn + np.linspace(-da, da, 7)
        val, (bl, bm, ba, bn) = evaluate(lams_r, mags_r, angs_a, angs_n)
        best = min(best, val)
        dl, dm, da = dl / 3, dm / 3, da / 3

    out = min(tilde_F, best)
    if out < lower_F - 1e-9:
        raise RuntimeError(f"laminate bound {out} fell below the lower bound {lower_F}")
    return out


@dataclass
class DensityBounds:
    """The bound sandwich evaluated at one matrix."""

    F: np.ndarray
    lower: float
    tilde: float
    laminate_upper: float
    p: float
    m: float
    quad_order: int

    @property
    def sigma(self) -> np.ndarray:
        return singular_values(self.F)

    @property
    def in_zero_set(self) -> bool:
        return zero_set_predicate(self.F)


def compute_bounds(F, phi: Potential, m: float, order: int = 256,
                   search: LaminateSearch | None = None,
                   with_laminate: bool = True) -> DensityBounds:
    F = np.atleast_2d(np.asarray(F, dtype=float))
    d = F.shape[0]
    q = sphere_quadrature(d, order)
    lower = density_lower(F, phi, m, q)
    tilde = density_tilde(F, phi, m, q)
    if with_laminate and d == 2:
        # the averages at F equal those at diag(sigma(F)) up to rounding
        lam = _laminate_upper(np.diag(singular_values(F)), phi, m, q, search,
                              lower, tilde)
    else:
        lam = tilde
    return DensityBounds(F, lower, tilde, lam, phi.p, m, order)


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
    lhs = _sphere_average(_canonical_gram(Fs), phi, m, q, lower=True)
    return 0.99 * float(np.min(lhs / (norms**phi.p - 1.0)))


def coercivity_check(F, phi: Potential, m: float = 1.0,
                     q: SphereQuadrature | None = None,
                     C: Optional[float] = None):
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
