"""Two-sided bounds on the localized energy density and its zero set.

The limit density of the vanishing-horizon energy is known only through a
sandwich: a spherical-average lower bound with positive-part argument, the
plain spherical average, and a rank-one lamination upper bound standing in
for the quasiconvexification.  Everything here depends on a matrix F only
through its singular values, and every average is taken in the eigenbasis
of C = F^T F: there |F w|^2 = sum_i lambda_i w_i^2, so single, batch and
laminate calls integrate the same function of the same numbers, and the
result is the same for F and U' F U'' with U', U'' orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import SphereQuadrature, sphere_quadrature
from .materials import Potential


def singular_values(F: np.ndarray) -> np.ndarray:
    F = np.atleast_2d(np.asarray(F, dtype=float))
    return np.linalg.svd(F, compute_uv=False)


def _orthant_rule(q: SphereQuadrature) -> tuple[np.ndarray, np.ndarray]:
    """The squared coordinates w_i^2 of the nodes of ``q`` and their weights.

    Every integrand here is a function of the w_i^2, so a rule symmetric
    under each sign flip w_i -> -w_i gives the same averages from its nodes
    in the closed positive orthant, each weighted by 2^(its nonzero
    coordinates).  Coordinates within rounding of 0 count as 0.  Where the
    folded weights do not sum to 1 the rule is not symmetric (the d = 2 rule
    at odd order) and is used whole.  Shapes (d, Q) and (Q,).
    """
    pts = np.where(np.abs(q.points) <= 8 * np.finfo(float).eps, 0.0, q.points)
    keep = np.all(pts >= 0.0, axis=1)
    w = q.weights[keep] * 2.0 ** np.count_nonzero(pts[keep], axis=1)
    if abs(w.sum() - 1.0) > 1e-12:
        keep, w = slice(None), q.weights
    return (pts[keep] ** 2).T, w


def _sphere_average(lam: np.ndarray, phi: Potential, m: float,
                    rule: tuple[np.ndarray, np.ndarray],
                    lower: bool = False) -> np.ndarray:
    """Sphere average of Phi(m^-1 (|F w|^m - 1)) over a stack of matrices F.

    Each matrix enters as one row of ``lam``: the eigenvalues of F^T F in
    descending order, so that |F w|^2 is the row times the squared
    coordinates of a node of the ``_orthant_rule``.  With ``lower`` the
    argument takes its positive part, otherwise its absolute value.
    Shape (B, d) -> (B,).
    """
    sq, w = rule
    t2 = lam @ sq
    arg = ((t2 if m == 2 else t2 ** (m / 2)) - 1.0) / m
    arg = np.maximum(arg, 0.0) if lower else np.abs(arg)
    return phi(arg) @ w


def _eig2(tr, diff, off, det) -> np.ndarray:
    """Eigenvalues (descending) of 2 x 2 Grams C = G^T G, each given by
    tr C, C_00 - C_11, 2 C_01 and det G; shape (..., 2).

    The larger is tr/2 + |(diff, off)|/2, a sum of nonnegative terms; the
    smaller is det(G)^2 over it, which keeps its relative accuracy where G
    is nearly singular and tr/2 - |(diff, off)|/2 would cancel.
    """
    big = 0.5 * (tr + np.sqrt(diff * diff + off * off))
    return np.stack([big, det * det / np.maximum(big, np.finfo(float).tiny)], axis=-1)


def _eigenvalues(Fs: np.ndarray) -> np.ndarray:
    """Eigenvalues of F^T F in descending order, (B, d, d) -> (B, d): in
    closed form for d <= 2, so those make no LAPACK call."""
    if Fs.shape[-1] == 1:
        return Fs[:, 0] ** 2
    if Fs.shape[-1] > 2:
        return np.linalg.svd(Fs, compute_uv=False) ** 2
    (a, b), (c, e) = Fs[:, 0].T, Fs[:, 1].T
    return _eig2(a * a + b * b + c * c + e * e, a * a + c * c - b * b - e * e,
                 2.0 * (a * b + c * e), a * e - b * c)


def _shear_averages(sig: np.ndarray, aa: np.ndarray, an: np.ndarray, mus: np.ndarray,
                    phi: Potential, m: float, rule: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """tilde(diag(sig) + mu a (x) n), shape (U, P), for every shear mu and each
    pair of unit vectors a, n at the angles aa[k], an[k].

    With G = diag(sig) + mu a (x) n and C = G^T G, tr C, C_00 - C_11 and
    2 C_01 are quadratics in mu and det G is linear in mu, with coefficients
    set once per pair.  A batch holds as many whole shears as fit in
    ``_CHUNK`` averages times (nodes + 2), at least one.
    """
    (a0, a1), (n0, n1), (s0, s1) = (np.cos(aa), np.sin(aa)), (np.cos(an), np.sin(an)), sig
    b0, b1 = s0 * a0, s1 * a1
    step = max(1, _CHUNK // ((len(rule[1]) + 2) * len(aa)))
    # the pairs' coefficients repeated for a whole batch: flat arrays beat
    # broadcasting shears against pairs at these sizes
    coef = np.tile([2.0 * (b0 * n0 + b1 * n1), 2.0 * (b0 * n0 - b1 * n1), n0 * n0 - n1 * n1,
                    2.0 * (b0 * n1 + b1 * n0), 2.0 * n0 * n1, s1 * a0 * n0 + s0 * a1 * n1],
                   min(step, len(mus)))
    out = np.empty((len(mus), len(aa)))
    for start in range(0, len(mus), step):
        mu = np.repeat(mus[start:start + step], len(aa))
        tr1, diff1, diff2, off1, off2, det1 = coef[:, :len(mu)]
        lam = _eig2(s0 * s0 + s1 * s1 + mu * (tr1 + mu),
                    s0 * s0 - s1 * s1 + mu * (diff1 + mu * diff2),
                    mu * (off1 + mu * off2), s0 * s1 + mu * det1)
        out[start:start + step] = _sphere_average(lam, phi, m, rule).reshape(-1, len(aa))
    return out


def density_lower(F, phi: Potential, m: float, q: SphereQuadrature) -> float:
    """Spherical average of Phi(m^-1 (|F w|^m - 1)_+): the lower bound density."""
    return float(density_lower_batch(np.atleast_2d(F)[None], phi, m, q)[0])


def density_tilde(F, phi: Potential, m: float, q: SphereQuadrature) -> float:
    """Spherical average of Phi(m^-1 | |F w|^m - 1 |)."""
    return float(density_tilde_batch(np.atleast_2d(F)[None], phi, m, q)[0])


def closed_form_tilde_2d(F) -> float:
    """Closed form of the spherical average for the quartic case in d = 2.

    For Phi(t) = t^2 and strain order m = 2 the circle average of
    ((|F w|^2 - 1)/2)^2 reduces, via the fourth moments of the circle, to
    (1/16) (|F^T F - I|^2 + (|F|^2 - 2)^2 / 2).
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    if F.shape != (2, 2):
        raise ValueError("closed form supports d = 2 only")
    G = F.T @ F
    dev = G - np.eye(2)
    return float((np.sum(dev**2) + 0.5 * (np.trace(G) - 2.0) ** 2) / 16.0)


def zero_set_predicate(F) -> bool:
    """True iff F^T F <= I, i.e. the largest singular value is at most 1
    (up to 1e-12)."""
    return bool(singular_values(F).max() <= 1.0 + 1e-12)


def _batch_average(Fs, phi: Potential, m: float, q: SphereQuadrature, lower: bool):
    """``_sphere_average`` over matrices, (B, d, d) -> (B,), in chunks of
    ``_CHUNK`` // (nodes + 2) matrices, at least one."""
    lam, rule = _eigenvalues(np.asarray(Fs, dtype=float)), _orthant_rule(q)
    step = max(1, _CHUNK // (len(rule[1]) + 2))
    return np.concatenate([np.empty(0), *(_sphere_average(lam[i:i + step], phi, m, rule, lower)
                                          for i in range(0, len(lam), step))])


def density_lower_batch(Fs: np.ndarray, phi: Potential, m: float,
                        q: SphereQuadrature) -> np.ndarray:
    """density_lower over a batch of matrices, shape (B, d, d) -> (B,)."""
    return _batch_average(Fs, phi, m, q, lower=True)


def density_tilde_batch(Fs: np.ndarray, phi: Potential, m: float,
                        q: SphereQuadrature) -> np.ndarray:
    """density_tilde over a batch of matrices, shape (B, d, d) -> (B,)."""
    return _batch_average(Fs, phi, m, q, lower=False)


#: averages times (kept quadrature nodes + 2) per batch: bounds the (B, Q)
#: temporaries and the per-average ones, and a batch that fits in cache
#: beats a larger one
_CHUNK = 2**14


#: the grid of the first-order laminate upper bound (d = 2): the coarse grid
#: crosses the volume fractions ``linspace(0, 1, _N_LAMBDA)[1:-1]``, ``_N_MAG``
#: lengths of a up to ``_MAX_MAG`` and the angle pairs (k pi/_N_ANGLE) of a and n,
#: one per orbit of the mirror and the transpose (``_laminate_upper``); each of
#: the ``_REFINE_ROUNDS`` refinement rounds is a 7^4 grid around the best candidate
_N_LAMBDA = 17
_N_MAG = 12
_MAX_MAG = 2.0
_N_ANGLE = 32
_REFINE_ROUNDS = 2


def _mirror_orbit_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The angle-index pairs (k_a, k_n) that the coarse laminate grid keeps:
    of each pair, its mirror ((-k_a) mod n, (-k_n) mod n), its transpose
    (k_n, k_a) and the transpose's mirror, the one with the smallest
    k_a n + k_n, in that order."""
    ka, kn = np.divmod(np.arange(n * n), n)
    ra, rn = (-ka) % n, (-kn) % n
    keep = ka * n + kn <= np.minimum.reduce([ra * n + rn, kn * n + ka, rn * n + ra])
    return ka[keep], kn[keep]


def _laminate_upper(sig: np.ndarray, phi: Potential, m: float,
                    q: SphereQuadrature, lower_F: float, tilde_F: float) -> float:
    """The laminate search at F = diag(sig), capped by ``tilde_F`` and
    checked against ``lower_F``, the two averages at the same matrix.

    The coarse grid is evaluated once per orbit of its angle pairs under the
    group of the mirror and the transpose.  R = diag(1, -1) fixes diag(sig),
    so R (F + s a (x) n) R = F + s Ra (x) Rn has the singular values of
    F + s a (x) n and each candidate the value of its reflection.  On the
    angles kpi/n, R takes the candidate of the pair (k_a, k_n) to that of
    ((-k_a) mod n, (-k_n) mod n), or to its negative when exactly one index
    is 0; value(lam, -a (x) n) = value(1 - lam, a (x) n) covers that case,
    but needs the grid of lam symmetric about 1/2, as
    ``linspace(0, 1, _N_LAMBDA)[1:-1]`` is.  (F + s a (x) n)^T = F + s n (x) a
    has the same singular values too, so the pair (k_n, k_a) has the value
    of (k_a, k_n).  The refinement rounds are evaluated whole.  Both
    matrices of a candidate are diag(sig) + mu a (x) n with |a| = 1,
    mu = (1-lam) mag or -lam mag, and each distinct mu is averaged once per
    pair: at most 54,922 averages per search (45,318 coarse, at most 9,604
    refinement).
    """
    lams = np.linspace(0.0, 1.0, _N_LAMBDA)[1:-1]
    mags = np.linspace(_MAX_MAG / _N_MAG, _MAX_MAG, _N_MAG)
    angs = np.linspace(0.0, np.pi, _N_ANGLE, endpoint=False)
    rule = _orthant_rule(q)

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

    # lam = k/(_N_LAMBDA-1) and mag = j _MAX_MAG/_N_MAG on the coarse grid: a shear
    # is a unit times an integer product, and equal products give equal floats
    ks, js = np.arange(1, _N_LAMBDA - 1)[:, None], np.arange(1, _N_MAG + 1)
    shears = (_MAX_MAG / (_N_MAG * (_N_LAMBDA - 1))
              * np.stack([(_N_LAMBDA - 1 - ks) * js, -ks * js]))
    ka, kn = _mirror_orbit_pairs(_N_ANGLE)
    best, (bl, bm, ba, bn) = evaluate(lams, mags, shears, angs[ka], angs[kn])
    dl, dm, da = 1.0 / (_N_LAMBDA - 1), _MAX_MAG / _N_MAG, angs[1] - angs[0]
    for _ in range(_REFINE_ROUNDS):
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
    """The bound sandwich at F on the order-``order`` sphere rule.

    ``laminate_upper`` is the one-level rank-one lamination bound: the least
    lam * tilde(F + (1-lam) a x n) + (1-lam) * tilde(F - lam a x n) over
    volume fractions and rank-one perturbations a x n, never more than
    tilde(F).  Only d = 2 runs that search; other d, and ``with_laminate``
    False, report ``laminate_upper = tilde``.  The search runs on the
    canonical representative diag(sigma(F)): every quantity involved depends
    on a matrix only through its singular values, so this loses nothing and
    makes the result invariant under F -> U' F U'' for orthogonal U', U''
    up to singular-value rounding.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    d = F.shape[0]
    q = sphere_quadrature(d, order)
    lower = density_lower(F, phi, m, q)
    tilde = density_tilde(F, phi, m, q)
    if with_laminate and d == 2:
        # the averages at F equal those at diag(sigma(F)) up to rounding
        lam = _laminate_upper(singular_values(F), phi, m, q, lower, tilde)
    else:
        lam = tilde
    return DensityBounds(F, lower, tilde, lam)
