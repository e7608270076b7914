"""Two-sided bounds on the localized energy density and its zero set.

The limit density of the vanishing-horizon energy is known only through a
sandwich: a spherical-average lower bound with positive-part argument, the
plain spherical average, and a rank-one lamination upper bound standing in
for the quasiconvexification.  Everything here depends on a matrix F only
through its singular values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import SphereQuadrature, sphere_quadrature
from .materials import Potential


def singular_values(F: np.ndarray) -> np.ndarray:
    F = np.atleast_2d(np.asarray(F, dtype=float))
    return np.linalg.svd(F, compute_uv=False)


def _monomial_rule(q: SphereQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """The monomials w_i w_j, i <= j, at the nodes of ``q`` and their weights.

    Every integrand here is even in w.  Where node k + Q/2 of the rule is the
    antipode of node k (the d = 2 rule at even order), the first half of the
    nodes with doubled weights gives the same averages to rounding; any other
    rule is used whole.  Shapes (k, Q) and (Q,), Q the nodes kept.
    """
    pts, w = q.points, q.weights
    h = len(w) // 2
    if (len(w) % 2 == 0 and np.array_equal(w[:h], w[h:])
            and np.max(np.abs(pts[h:] + pts[:h])) <= 8 * np.finfo(float).eps):
        pts, w = pts[:h], 2.0 * w[:h]
    i, j = np.triu_indices(q.dim)
    return (pts[:, i] * pts[:, j]).T, w


def _sphere_average(coef: np.ndarray, phi: Potential, m: float,
                    rule: tuple[np.ndarray, np.ndarray],
                    lower: bool = False) -> np.ndarray:
    """Sphere average of Phi(m^-1 (|F w|^m - 1)) over a stack of Grams C = F^T F.

    Each matrix enters as one row of ``coef``: the coefficients (C_ii, 2 C_ij),
    i < j, of the monomials w_i w_j, so that |F w|^2 = w^T C w is the row
    times the monomials of a node in the ``_monomial_rule``.  With ``lower``
    the argument takes its positive part, otherwise its absolute value.
    Shape (B, k) -> (B,).
    """
    mono, w = rule
    # rounding pushes w^T C w slightly below 0 when F is singular, and the
    # fractional power would turn that into a NaN that np.argmin picks
    t2 = np.maximum(coef @ mono, 0.0)
    arg = ((t2 if m == 2 else t2 ** (m / 2)) - 1.0) / m
    arg = np.maximum(arg, 0.0) if lower else np.abs(arg)
    return phi(arg) @ w


def _gram_rows(Fs: np.ndarray) -> np.ndarray:
    """Monomial coefficients (C_ii, 2 C_ij) of C = F^T F, (B, d, d) -> (B, k).

    C_ij is the dot product of columns i and j of F, summed elementwise: a
    batched matmul costs far more per 2 x 2 matrix.
    """
    i, j = np.triu_indices(Fs.shape[-1])
    return np.where(i == j, 1.0, 2.0) * np.sum(Fs[..., i] * Fs[..., j], axis=-2)


def _canonical_rows(Fs: np.ndarray) -> np.ndarray:
    """The ``_gram_rows`` of diag(sigma(F)), (B, d, d) -> (B, k).

    The spherical averages depend on F only through its singular values, and
    fixing the orientation keeps the quadrature error identical across the
    orbit F -> U' F U'' instead of drifting with the integrand's kink position.
    """
    sig = np.linalg.svd(Fs, compute_uv=False)
    return _gram_rows(sig[:, :, None] * np.eye(Fs.shape[-1]))


def _rank_one_terms(sig: np.ndarray, a: np.ndarray,
                    n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Gram of G = diag(sig) + s a (x) n in d = 2, as monomial coefficients.

    G^T G = diag(sig^2) + s (b (x) n + n (x) b) + s^2 |a|^2 n (x) n with
    b = diag(sig) a; this returns the rows of the two matrices that s and s^2
    multiply, written out entry by entry.  (B, 2), (B, 2) -> (B, 3), (B, 3).
    """
    b0, b1 = sig[0] * a[:, 0], sig[1] * a[:, 1]
    n0, n1 = n[:, 0], n[:, 1]
    lin = 2.0 * np.stack([b0 * n0, b0 * n1 + b1 * n0, b1 * n1], axis=-1)
    quad = (a[:, 0] ** 2 + a[:, 1] ** 2)[:, None] * np.stack(
        [n0 * n0, 2.0 * n0 * n1, n1 * n1], axis=-1)
    return lin, quad


def _shear_averages(sig: np.ndarray, aa: np.ndarray, an: np.ndarray, mus: np.ndarray,
                    phi: Potential, m: float, rule: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """tilde(diag(sig) + mu a (x) n), shape (U, P), for every shear mu and each
    pair of unit vectors a, n at the angles aa[k], an[k]; a batch holds as many
    whole shears as fit in ``_LAMINATE_CHUNK`` rows times nodes, at least one."""
    lin, quad = _rank_one_terms(sig, *(np.stack([np.cos(t), np.sin(t)], -1) for t in (aa, an)))
    base = np.array([sig[0] ** 2, 0.0, sig[1] ** 2])
    out = np.empty((len(mus), len(aa)))
    step = max(1, _LAMINATE_CHUNK // (len(rule[1]) * len(aa)))
    for start in range(0, len(mus), step):
        mu = mus[start:start + step, None, None]
        out[start:start + step] = _sphere_average(
            (base + mu * lin + mu * mu * quad).reshape(-1, 3), phi, m, rule).reshape(len(mu), -1)
    return out


def density_lower(F, phi: Potential, m: float, q: SphereQuadrature) -> float:
    """Spherical average of Phi(m^-1 (|F w|^m - 1)_+): the lower bound density."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    return float(_sphere_average(_canonical_rows(F[None]), phi, m, _monomial_rule(q),
                                 lower=True)[0])


def density_tilde(F, phi: Potential, m: float, q: SphereQuadrature) -> float:
    """Spherical average of Phi(m^-1 | |F w|^m - 1 |)."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    return float(_sphere_average(_canonical_rows(F[None]), phi, m, _monomial_rule(q))[0])


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


def zero_set_predicate(F) -> bool:
    """True iff F^T F <= I, i.e. the largest singular value is at most 1
    (up to 1e-12)."""
    return bool(singular_values(F).max() <= 1.0 + 1e-12)


def density_lower_batch(Fs: np.ndarray, phi: Potential, m: float,
                        q: SphereQuadrature) -> np.ndarray:
    """density_lower over a batch of matrices, shape (B, d, d) -> (B,)."""
    return _sphere_average(_gram_rows(np.asarray(Fs, dtype=float)), phi, m,
                           _monomial_rule(q), lower=True)


def density_tilde_batch(Fs: np.ndarray, phi: Potential, m: float,
                        q: SphereQuadrature) -> np.ndarray:
    """density_tilde over a batch of matrices, shape (B, d, d) -> (B,)."""
    return _sphere_average(_gram_rows(np.asarray(Fs, dtype=float)), phi, m,
                           _monomial_rule(q))


#: laminate averages times kept quadrature nodes per batch: bounds the
#: (B, Q) temporaries, and a batch that fits in cache beats a larger one
_LAMINATE_CHUNK = 2**14


@dataclass
class LaminateSearch:
    """Brute-force grid for the first-order laminate upper bound (d = 2).

    The coarse grid crosses the volume fractions ``linspace(0, 1,
    n_lambda)[1:-1]``, ``n_mag`` lengths of a and the angle pairs (kpi/n_angle)
    of a and n, one per mirror orbit (see ``_laminate_upper``); each
    refinement round is a whole 7^4 grid around the best candidate.  A default
    search takes at most 94,928 sphere averages, one per distinct shear and pair.
    """

    n_lambda: int = 17
    n_mag: int = 12
    max_mag: float = 2.0
    n_angle: int = 32
    refine_rounds: int = 2

    def __post_init__(self):
        for name, ok, need in (("n_lambda", self.n_lambda >= 3, ">= 3"),
                               ("n_mag", self.n_mag >= 1, ">= 1"),
                               ("max_mag", self.max_mag > 0, "> 0"),
                               ("n_angle", self.n_angle >= 2, ">= 2"),
                               ("refine_rounds", self.refine_rounds >= 0, ">= 0")):
            if not ok:
                raise ValueError(f"LaminateSearch.{name} must be {need}, "
                                 f"got {getattr(self, name)!r}")


def _mirror_orbit_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The angle-index pairs (k_a, k_n) that the coarse laminate grid keeps:
    of each pair and its mirror ((-k_a) mod n, (-k_n) mod n), the one with the
    smaller k_a n + k_n, in that order."""
    ka, kn = np.divmod(np.arange(n * n), n)
    keep = ka * n + kn <= (-ka) % n * n + (-kn) % n
    return ka[keep], kn[keep]


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
    sig = np.linalg.svd(F, compute_uv=False)
    F = np.diag(sig)
    return _laminate_upper(sig, phi, m, q, search, density_lower(F, phi, m, q),
                           density_tilde(F, phi, m, q))


def _laminate_upper(sig: np.ndarray, phi: Potential, m: float,
                    q: SphereQuadrature, search: LaminateSearch | None,
                    lower_F: float, tilde_F: float) -> float:
    """The laminate search at F = diag(sig), capped by ``tilde_F`` and
    checked against ``lower_F``, the two averages at the same matrix.

    The coarse grid is evaluated once per mirror orbit of its angle pairs.
    R = diag(1, -1) fixes diag(sig), so R (F + s a (x) n) R = F + s Ra (x) Rn
    has the singular values of F + s a (x) n and each candidate the value of
    its reflection.  On the angles kpi/n, R takes the candidate of the pair
    (k_a, k_n) to that of ((-k_a) mod n, (-k_n) mod n), or to its negative
    when exactly one index is 0; value(lam, -a (x) n) = value(1 - lam,
    a (x) n) covers that case, but needs the grid of lam symmetric about 1/2,
    as ``linspace(0, 1, n_lambda)[1:-1]`` is.  The refinement rounds are
    evaluated whole.  Both matrices of a candidate are diag(sig) + mu a (x) n
    with |a| = 1, mu = (1-lam) mag or -lam mag, and each distinct mu is averaged
    once per pair: at most 94,928 averages per default search (85,324 coarse,
    at most 9,604 refinement) against 194,644 at two per candidate.
    """
    if search is None:
        search = LaminateSearch()
    lams = np.linspace(0.0, 1.0, search.n_lambda)[1:-1]
    mags = np.linspace(search.max_mag / search.n_mag, search.max_mag, search.n_mag)
    angs = np.linspace(0.0, np.pi, search.n_angle, endpoint=False)
    rule = _monomial_rule(q)

    def evaluate(lams, mags, shears, aa, an):
        # shears[:, i, j] = ((1-lam_i) mag_j, -lam_i mag_j) and aa[k], an[k]
        # are the angles of a/|a| and n of one pair; candidates run in the
        # order of a flat (lam, mag, pair) grid, and the first minimum wins
        mus, inv = np.unique(shears, return_inverse=True)
        f = _shear_averages(sig, aa, an, mus, phi, m, rule)
        inv = inv.reshape(shears.shape)
        best_val, best = np.inf, (lams[0], mags[0], aa[0], an[0])
        for i, lam in enumerate(lams):
            vals = lam * f[inv[0, i]] + (1.0 - lam) * f[inv[1, i]]
            k = int(np.argmin(vals))
            if vals.flat[k] < best_val:
                best_val, (j, k) = float(vals.flat[k]), divmod(k, len(aa))
                best = (lam, mags[j], aa[k], an[k])
        return best_val, best

    # lam = k/(n_lambda-1) and mag = j max_mag/n_mag on the coarse grid: a shear
    # is a unit times an integer product, and equal products give equal floats
    ks, js = np.arange(1, search.n_lambda - 1)[:, None], np.arange(1, search.n_mag + 1)
    shears = (search.max_mag / (search.n_mag * (search.n_lambda - 1))
              * np.stack([(search.n_lambda - 1 - ks) * js, -ks * js]))
    ka, kn = _mirror_orbit_pairs(search.n_angle)
    best, (bl, bm, ba, bn) = evaluate(lams, mags, shears, angs[ka], angs[kn])
    dl = lams[1] - lams[0] if len(lams) > 1 else 0.1
    dm = mags[1] - mags[0] if len(mags) > 1 else 0.1
    da = angs[1] - angs[0]
    for _ in range(search.refine_rounds):
        lams_r = np.clip(bl + np.linspace(-dl, dl, 7), 1e-3, 1 - 1e-3)
        mags_r = np.clip(bm + np.linspace(-dm, dm, 7), 1e-6, None)
        aa, an = np.meshgrid(ba + np.linspace(-da, da, 7),
                             bn + np.linspace(-da, da, 7), indexing="ij")
        shears = np.stack([np.outer(1.0 - lams_r, mags_r), -np.outer(lams_r, mags_r)])
        val, (bl, bm, ba, bn) = evaluate(lams_r, mags_r, shears, aa.ravel(), an.ravel())
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

    @property
    def sigma(self) -> np.ndarray:
        return singular_values(self.F)

    @property
    def in_zero_set(self) -> bool:
        return zero_set_predicate(self.F)


def compute_bounds(F, phi: Potential, m: float, order: int,
                   with_laminate: bool = True) -> DensityBounds:
    F = np.atleast_2d(np.asarray(F, dtype=float))
    d = F.shape[0]
    q = sphere_quadrature(d, order)
    lower = density_lower(F, phi, m, q)
    tilde = density_tilde(F, phi, m, q)
    if with_laminate and d == 2:
        # the averages at F equal those at diag(sigma(F)) up to rounding
        lam = _laminate_upper(singular_values(F), phi, m, q, None, lower, tilde)
    else:
        lam = tilde
    return DensityBounds(F, lower, tilde, lam)
