"""Gaussian state-deviation model over (x, y, v, theta).

Confidence regions of the 4-dimensional Gaussian are hyper-ellipsoids whose
size follows the chi-square quantile with 4 degrees of freedom.  Deviations on
a contour are generated deterministically from three angles in the eigenbasis
of the covariance and rotated back to state coordinates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

STATE_DIM = 4  # deviation axes, in order: x, y, v, theta
# Bound on the angle grid, n_phi^3 x contour levels; admits n_phi = 24 with
# six levels, the dense reference sampling.
MAX_GRID_SAMPLES = 100_000


def chi2_cdf_4(x: float) -> float:
    """CDF of the chi-square distribution with 4 degrees of freedom.

    Closed form: 1 - exp(-x/2) * (1 + x/2).
    """
    if x < 0.0:
        raise ValueError(f"chi-square CDF argument must be >= 0, got {x}")
    return 1.0 - math.exp(-0.5 * x) * (1.0 + 0.5 * x)


def chi2_quantile_4(p: float) -> float:
    """Inverse of chi2_cdf_4 on [0, 1), via bracketed bisection."""
    if not (0.0 <= p < 1.0):
        raise ValueError(f"quantile level must lie in [0, 1), got {p}")
    if p == 0.0:
        return 0.0
    hi = 1.0
    while chi2_cdf_4(hi) < p:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf_4(mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class UncertaintySpec:
    """Covariance of the perception noise plus the contour discretization."""

    sigma: np.ndarray                      # 4x4 symmetric PSD covariance
    contour_levels: tuple[float, ...]      # strictly increasing, each in (0, 1)
    n_phi: int                             # angular samples per dimension, >= 2

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        if sigma.shape != (STATE_DIM, STATE_DIM):
            raise ValueError(f"sigma must be 4x4, got shape {sigma.shape}")
        if not np.isfinite(sigma).all():
            raise ValueError("sigma entries must be finite")
        if not np.allclose(sigma, sigma.T, atol=1e-9):
            raise ValueError("sigma must be symmetric")
        object.__setattr__(self, "sigma", sigma)
        levels = tuple(float(p) for p in self.contour_levels)
        if not levels:
            raise ValueError("at least one contour level is required")
        prev = 0.0
        for p in levels:
            if not (prev < p < 1.0):
                raise ValueError("contour levels must be strictly increasing within (0, 1)")
            prev = p
        object.__setattr__(self, "contour_levels", levels)
        n_phi = integral("n_phi", self.n_phi)
        if n_phi < 2:
            raise ValueError("n_phi must be >= 2")
        if n_phi ** 3 * len(levels) > MAX_GRID_SAMPLES:
            raise ValueError(
                f"n_phi = {self.n_phi} is too large for {len(levels)} contour "
                f"levels: n_phi^3 x levels must be <= {MAX_GRID_SAMPLES}")
        object.__setattr__(self, "n_phi", n_phi)

    @staticmethod
    def from_diagonal(variances, contour_levels, n_phi) -> "UncertaintySpec":
        return UncertaintySpec(np.diag(np.asarray(variances, dtype=float)),
                               tuple(contour_levels), n_phi)


def integral(name: str, value) -> int:
    """``value`` as an int; a bool, a string, a fraction or a non-finite
    number raises ValueError naming ``name``."""
    if isinstance(value, (float, np.floating)) and math.isfinite(value) \
            and float(value).is_integer():
        return int(value)
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class EigenBasis:
    """Eigendecomposition of a covariance: descending eigenvalues and an
    orthonormal column basis."""

    eigenvalues: np.ndarray   # shape (4,), descending, >= 0
    eigenvectors: np.ndarray  # shape (4, 4), columns are eigenvectors

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])


def _jacobi_rotate(a: np.ndarray, v: np.ndarray, p: int, q: int) -> None:
    apq = a[p, q]
    if apq == 0.0:
        return
    tau = (a[q, q] - a[p, p]) / (2.0 * apq)
    if tau >= 0.0:
        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    else:
        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    app, aqq = a[p, p], a[q, q]
    a[p, p] = app - t * apq
    a[q, q] = aqq + t * apq
    a[p, q] = 0.0
    a[q, p] = 0.0
    n = a.shape[0]
    for i in range(n):
        if i != p and i != q:
            aip, aiq = a[i, p], a[i, q]
            a[i, p] = aip * c - aiq * s
            a[p, i] = a[i, p]
            a[i, q] = aiq * c + aip * s
            a[q, i] = a[i, q]
    for i in range(n):
        vip, viq = v[i, p], v[i, q]
        v[i, p] = vip * c - viq * s
        v[i, q] = viq * c + vip * s


def eigendecompose(sigma) -> EigenBasis:
    """Eigendecomposition of a symmetric PSD matrix by cyclic Jacobi sweeps.

    Deterministic: eigenvalues sorted descending (stable), eigenvector signs
    canonicalized so the largest-magnitude component is positive.
    """
    a = np.array(sigma, dtype=float)
    if a.shape != (STATE_DIM, STATE_DIM):
        raise ValueError(f"expected a 4x4 matrix, got shape {a.shape}")
    if np.abs(a - a.T).max() > 1e-9:
        raise ValueError("matrix must be symmetric")
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    v = np.eye(n)
    for _ in range(100):
        off = math.sqrt(float(np.sum(np.tril(a, -1) ** 2) * 2.0))
        if off <= 1e-12:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                _jacobi_rotate(a, v, p, q)
    lam = np.diag(a).copy()
    scale = max(1.0, float(np.abs(lam).max()))
    if lam.min() < -1e-9 * scale:
        raise ValueError("matrix is not positive semi-definite")
    lam = np.maximum(lam, 0.0)
    order = np.argsort(-lam, kind="stable")
    lam = lam[order]
    v = v[:, order]
    for j in range(n):
        k = int(np.argmax(np.abs(v[:, j])))
        if v[k, j] < 0.0:
            v[:, j] = -v[:, j]
    return EigenBasis(eigenvalues=lam, eigenvectors=v)


def _distinct_grid(n_phi: int):
    """Grid indices (z1, z2, z3) of the distinct points of the angle grid
    z * 2*pi / n_phi, each point under the index that comes first in
    lexicographic order, returned in that order.

    sin(phi) = 0 at z = 0 (and z = n_phi / 2 for even n_phi) collapses every
    later angle, so a pole of z1 keeps only (z1, 0, 0) and a pole of z2 keeps
    only (z1, z2, 0).  For even n_phi, (z1, z2, z3) and
    (n_phi - z1, z2 + n_phi / 2, z3) name the same point, as do (z1, z2, z3)
    and (z1, n_phi - z2, z3 + n_phi / 2), so z1 and z2 stop at n_phi / 2."""
    z = np.arange(n_phi)
    first = z == 0
    if n_phi % 2 == 0:
        half = z <= n_phi // 2
        pole = first | (z == n_phi // 2)
    else:
        half = np.ones(n_phi, dtype=bool)
        pole = first
    keep = (half[:, None, None] & half[None, :, None]
            & (~pole[:, None, None] | (first[None, :, None] & first[None, None, :]))
            & (~pole[None, :, None] | first[None, None, :]))
    return np.nonzero(keep)


def sample_contour(basis: EigenBasis, p_k: float, n_phi: int) -> np.ndarray:
    """Contour deviations at the distinct points of the angle grid
    z * 2*pi / n_phi, z in 0..n_phi-1, as an (n, 4) array in lexicographic
    (z1, z2, z3) order of the first grid index naming each point.

    For even n_phi = 2h that is 2 + (h-1)(2 + (h-1) n_phi) rows, for odd
    n_phi 1 + (n_phi-1)(1 + (n_phi-1) n_phi): 80 of the 512 grid points at
    n_phi = 8.  Each row is bit-identical to the full grid's row at that
    index; the dropped grid rows equal a kept row up to rounding.  The p_k
    contour is the ellipsoid with radii sqrt(Q4(p_k) * lambda_i) along the
    eigenvectors, so every contour is a scaled copy of the same set of unit
    directions; points are rotated back to state coordinates."""
    if n_phi < 2:
        raise ValueError("n_phi must be >= 2")
    if not (0.0 < p_k < 1.0):
        raise ValueError(f"contour level must lie in (0, 1), got {p_k}")
    r = np.sqrt(chi2_quantile_4(p_k) * basis.eigenvalues)
    phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    s = np.sin(phis)
    c = np.cos(phis)
    g1, g2, g3 = _distinct_grid(n_phi)
    d_eigen = np.stack([
        r[0] * c[g1],
        r[1] * s[g1] * c[g2],
        r[2] * s[g1] * s[g2] * c[g3],
        r[3] * s[g1] * s[g2] * s[g3],
    ], axis=-1)
    return d_eigen @ basis.eigenvectors.T


def draw_noise(sigma, rng: np.random.Generator) -> np.ndarray:
    """One Gaussian deviation (x, y, v, theta) as a length-4 array.

    ``sigma`` may be a covariance matrix or a precomputed EigenBasis; the draw
    transforms 4 independent standard normals by V diag(sqrt(lambda)).
    """
    basis = sigma if isinstance(sigma, EigenBasis) else eigendecompose(sigma)
    z = rng.standard_normal(STATE_DIM)
    return basis.eigenvectors @ (np.sqrt(basis.eigenvalues) * z)

