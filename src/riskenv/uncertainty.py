"""Gaussian state-deviation model over (x, y, v, theta).

Confidence regions of the 4-dimensional Gaussian are hyper-ellipsoids whose
size follows the chi-square quantile with 4 degrees of freedom.  Deviations on
a contour are generated deterministically from three angles in the eigenbasis
of the covariance and rotated back to state coordinates.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import MISSING, dataclass

import numpy as np

from .rss import MAX_POSITION, bounded, check_bounds, real, sequence

STATE_DIM = 4  # deviation axes, in order: x, y, v, theta
# Bound on the angle grid, n_phi^3 x contour levels; admits n_phi = 24 with
# six levels, the dense reference sampling.
MAX_GRID_SAMPLES = 100_000
# Bound on the deviations one ProbabilisticSimplex step draws, simplex
# samples x agents; they are evaluated as one array.
MAX_SIMPLEX_ROWS = 100_000
# Bound on |sigma| entries: a standard deviation of at most MAX_POSITION keeps
# the contour rows, and the kernel's arithmetic on them, finite.
MAX_SIGMA = MAX_POSITION ** 2


def chi2_cdf_4(x: float) -> float:
    """CDF of the chi-square distribution with 4 degrees of freedom.

    Closed form: 1 - exp(-x/2) * (1 + x/2).
    """
    if x < 0.0:
        raise ValueError(f"chi-square CDF argument must be >= 0, got {x}")
    return 1.0 - math.exp(-0.5 * x) * (1.0 + 0.5 * x)


# The planner asks for a few fixed contour levels per process (six by
# default), so the memo holds every level in use; a repeated level costs a
# lookup, and more levels than this evict the least recent.
@functools.lru_cache(maxsize=64)
def chi2_quantile_4(p: float) -> float:
    """Inverse of chi2_cdf_4 on [0, 1), via bracketed bisection from
    [0, 2**j], memoized per level."""
    if not (0.0 <= p < 1.0):
        raise ValueError(f"quantile level must lie in [0, 1), got {p}")
    if p == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while chi2_cdf_4(hi) < p:
        hi *= 2.0
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
    n_phi: int = bounded(MISSING, 2, MAX_GRID_SAMPLES)  # angular samples per dimension

    def __post_init__(self):
        sigma = _checked_covariance(self.sigma, "sigma")  # a private, read-only copy
        sigma.flags.writeable = False
        object.__setattr__(self, "sigma", sigma)
        levels = tuple(real(f"contour_levels[{i}]", p)
                       for i, p in enumerate(sequence("contour_levels", self.contour_levels)))
        if not levels:
            raise ValueError("at least one contour level is required")
        prev = 0.0
        for p in levels:
            if not (prev < p < 1.0):
                raise ValueError("contour levels must be strictly increasing within (0, 1)")
            prev = p
        object.__setattr__(self, "contour_levels", levels)
        check_bounds(self)
        if self.n_phi ** 3 * len(levels) > MAX_GRID_SAMPLES:
            raise ValueError(
                f"n_phi = {self.n_phi} is too large for {len(levels)} contour "
                f"levels: n_phi^3 x levels must be <= {MAX_GRID_SAMPLES}")

    @functools.cached_property
    def basis(self) -> "EigenBasis":
        """Eigendecomposition of sigma, computed on first use; raises
        ValueError if sigma is not positive semi-definite."""
        return eigendecompose(self.sigma)

    @functools.cached_property
    def samples(self):
        """``contour_samples(self.basis, self)`` on first use, deviations read-only."""
        samples = contour_samples(self.basis, self)
        samples[1].flags.writeable = False
        return samples

    @staticmethod
    def from_diagonal(variances, contour_levels, n_phi) -> "UncertaintySpec":
        return UncertaintySpec(np.diag(np.asarray(variances, dtype=float)), contour_levels, n_phi)


@dataclass(frozen=True)
class EigenBasis:
    """Eigendecomposition of a covariance: descending eigenvalues and an
    orthonormal column basis."""

    eigenvalues: np.ndarray   # shape (4,), descending, >= 0
    eigenvectors: np.ndarray  # shape (4, 4), columns are eigenvectors

    @functools.cached_property
    def scale(self) -> np.ndarray:
        """sqrt(lambda) of each eigenvalue, computed on first use."""
        return np.sqrt(self.eigenvalues)

    @property
    def is_zero(self) -> bool:
        """Whether the covariance is zero: its largest eigenvalue is."""
        return self.eigenvalues[0] <= 0.0


def eigendecompose(sigma) -> EigenBasis:
    """Eigendecomposition of a symmetric PSD matrix by LAPACK (``np.linalg.eigh``).

    Deterministic: eigenvalues descending, with negative round-off clamped to
    0; equal eigenvalues ordered by the axis on which their eigenvector's
    largest-magnitude component lies, so a diagonal matrix gives unit vectors
    in axis order; each eigenvector signed so that this component is
    positive.  A matrix that ``_checked_covariance`` rejects, or an
    indefinite one, raises ValueError.
    """
    a = _checked_covariance(sigma, "matrix")
    lam, v = np.linalg.eigh(0.5 * (a + a.T))
    lam, vectors = lam.tolist(), v.T.tolist()
    if min(lam) < -1e-9 * max(1.0, *map(abs, lam)):
        raise ValueError("matrix is not positive semi-definite")
    lam = [x if x > 0.0 else 0.0 for x in lam]
    axis = [m.index(max(m)) for m in ([abs(x) for x in u] for u in vectors)]
    order = sorted(range(STATE_DIM), key=lambda j: (-lam[j], axis[j]))
    vectors = [[-x for x in u] if u[k] < 0.0 else u for u, k in zip(vectors, axis)]
    # The eigenvectors are laid out by column, as eigh gives them.
    return EigenBasis(eigenvalues=np.array([lam[j] for j in order]),
                      eigenvectors=np.array([vectors[j] for j in order]).T)


def _checked_covariance(sigma, name: str) -> np.ndarray:
    """``sigma`` as a new float array if it is 4x4, its entries are finite
    and at most MAX_SIGMA in magnitude, and it is symmetric to within 1e-9;
    else ValueError naming ``name``."""
    a = np.array(sigma, dtype=float)
    if a.shape != (STATE_DIM, STATE_DIM):
        raise ValueError(f"{name} must be 4x4, got shape {a.shape}")
    rows = a.tolist()  # the checks run on floats
    if not all(abs(v) <= MAX_SIGMA for row in rows for v in row):  # NaN fails too
        raise ValueError(f"{name} entries must be finite and at most {MAX_SIGMA:g} in magnitude")
    if max(abs(rows[i][j] - rows[j][i]) for i in range(STATE_DIM) for j in range(i)) > 1e-9:
        raise ValueError(f"{name} must be symmetric")
    return a


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


class SampleSet(tuple):
    """``(levels, deviations, counts)``, as ``contour_samples`` returns them,
    with the per-column (min, max) of the deviations of contours 0..k, as
    two lists of floats, for each k (``boxes``) and for all (``box``), and
    each contour's mass p_k - p_{k-1} (``masses``), computed on first use."""

    @functools.cached_property
    def masses(self) -> tuple[float, ...]:
        levels = self[0]
        return tuple(p_k - prev for p_k, prev in zip(levels, (0.0, *levels)))

    @functools.cached_property
    def box(self):
        return self.boxes[-1]

    @functools.cached_property
    def boxes(self):
        _, deviations, counts = self
        starts = [0, *itertools.accumulate(counts[:-1])]  # reduceat is the fast column reduction
        return list(zip(
            np.minimum.accumulate(np.minimum.reduceat(deviations, starts), axis=0).tolist(),
            np.maximum.accumulate(np.maximum.reduceat(deviations, starts), axis=0).tolist()))


# Samples of a zero covariance: one zero deviation (a read-only row) carrying
# all the mass, so the sentinel is bypassed and the expectation is the plain
# violation indicator.
EXACT_SAMPLES = SampleSet(((1.0,), np.broadcast_to(0.0, (1, 4)), (1,)))


def contour_samples(basis: EigenBasis, spec: UncertaintySpec):
    """Deviation samples of every contour of ``spec``, built once per covariance.

    Returns a ``SampleSet`` (levels, deviations, counts): the contour levels, the stacked
    (n, 4) deviations of all contours in level order, and the number of rows
    of each contour.  The p_k contour is the ellipsoid with radii
    sqrt(Q4(p_k) * lambda_i) along the eigenvectors, so every contour scales
    the same directions: the distinct points of the angle grid
    z * 2*pi / n_phi, z in 0..n_phi-1, in lexicographic (z1, z2, z3) order of
    the first grid index naming each point, rotated back to state
    coordinates.  For even n_phi = 2h that is 2 + (h-1)(2 + (h-1) n_phi) rows
    per contour, for odd n_phi 1 + (n_phi-1)(1 + (n_phi-1) n_phi): 80 of the
    512 grid points at n_phi = 8.  Each row is bit-identical to the full
    grid's row at that index; the dropped grid rows equal a kept row up to
    rounding.  Zero covariance collapses every contour onto the observation
    itself (``EXACT_SAMPLES``).
    """
    if basis.is_zero:
        return EXACT_SAMPLES
    levels = spec.contour_levels
    q = np.array([chi2_quantile_4(p) for p in levels])
    r = np.sqrt(q[:, None, None] * basis.eigenvalues)  # (levels, 1, 4)
    c1, s1, c2, s2, c3, s3 = _grid_factors(spec.n_phi)
    # The radius is the first factor of each product, so every level rounds
    # as it would on its own.
    d_eigen = np.stack([
        r[..., 0] * c1,
        r[..., 1] * s1 * c2,
        r[..., 2] * s1 * s2 * c3,
        r[..., 3] * s1 * s2 * s3,
    ], axis=-1)
    return SampleSet((levels, d_eigen.reshape(-1, STATE_DIM) @ basis.eigenvectors.T,
                      (c1.size,) * len(levels)))


# A process uses few n_phi values (one by default).  Within MAX_GRID_SAMPLES
# the memo holds at most 13.7 MB: 6 floats a row at n_phi = 45, 43, 41 and 39.
@functools.lru_cache(maxsize=4)
def _grid_factors(n_phi: int) -> np.ndarray:
    """cos and sin of the angle grid z * 2*pi / n_phi at each index of
    ``_distinct_grid(n_phi)``, as the read-only rows c1, s1, c2, s2, c3, s3."""
    phis = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    cos, sin = np.cos(phis), np.sin(phis)
    factors = np.array([f[g] for g in _distinct_grid(n_phi) for f in (cos, sin)])
    factors.flags.writeable = False
    return factors


def draw_noise(basis: EigenBasis, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` Gaussian deviations (x, y, v, theta) as an (n, 4) array: rows of
    4 independent standard normals scaled by sqrt(lambda) and rotated by V.
    One call takes the same normals in the same order as n one-row calls.
    ``basis`` comes from ``eigendecompose(sigma)`` (or ``spec.basis``)."""
    z = rng.standard_normal((n, STATE_DIM))
    return (z * basis.scale) @ basis.eigenvectors.T
