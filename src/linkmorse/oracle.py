"""Independent numerical verification via the constrained Hessian.

The signed area restricted to the constraint manifold (all configurations of
the linkage, with the first two vertices pinned) has its critical points at
the cyclic configurations.  This module confirms criticality through
Lagrange multipliers and computes the true Morse data: the Lagrangian
Hessian projected onto the constraint tangent space, its eigenvalue inertia,
and the determinant sign.  Constraints are kept quadratic,
``g_i = |p_i - p_{i+1}|^2 - l_i^2``, so their second derivatives are exact
constant matrices and the Lagrangian Hessian is assembled in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError, NonRegularPointError
from .geometry import Configuration, Linkage, _as_points, _readonly

# Singular values below this multiple of the largest one count as zero when
# deciding constraint rank and the tangent space.
RANK_TOL = 1e-9

# Eigenvalues below this multiple of the spectral norm count as zero; any
# zero eigenvalue makes the verdict non-Morse.
EIGEN_ZERO_TOL = 1e-7


@dataclass(frozen=True)
class OracleVerdict:
    """Numerical Morse data of one configuration."""

    multipliers: np.ndarray
    residual: float
    inertia: tuple
    det_sign: int
    index: int

    def __post_init__(self):
        object.__setattr__(self, "multipliers", _readonly(np.asarray(self.multipliers, dtype=float)))
        object.__setattr__(self, "inertia", tuple(int(v) for v in self.inertia))

    @property
    def is_morse(self) -> bool:
        return self.inertia[1] == 0

    def to_json_dict(self) -> dict:
        return {
            "residual": float(self.residual),
            "inertia": list(self.inertia),
            "det_sign": int(self.det_sign),
            "index": int(self.index),
        }


def _free_count(n: int) -> int:
    return 2 * (n - 2)


def area_gradient(points) -> np.ndarray:
    """Gradient of the shoelace area over the free coordinates (p_3..p_n).

    The area is quadratic, so each component is half a coordinate difference
    of the two cyclic neighbors.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n < 3:
        raise InvalidConfigurationError("gradient needs at least 3 vertices")
    grad = np.empty(_free_count(n))
    for i in range(2, n):
        nxt, prv = pts[(i + 1) % n], pts[i - 1]
        grad[2 * (i - 2)] = 0.5 * (nxt[1] - prv[1])
        grad[2 * (i - 2) + 1] = 0.5 * (prv[0] - nxt[0])
    return grad


def constraint_values(points, linkage: Linkage) -> np.ndarray:
    """Quadratic edge constraints g_i = |p_i - p_{i+1}|^2 - l_i^2, i = 2..n.

    The pinned first edge is satisfied identically and contributes no row.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n != linkage.n:
        raise InvalidConfigurationError("configuration and linkage sizes differ")
    vals = np.empty(n - 1)
    for row, i in enumerate(range(1, n)):
        diff = pts[i] - pts[(i + 1) % n]
        vals[row] = float(diff @ diff) - float(linkage.lengths[i]) ** 2
    return vals


def _regular_jacobian(points, linkage: Linkage):
    """Constraint Jacobian and an orthonormal tangent basis from one SVD.

    Raises :class:`NonRegularPointError` when the rank drops below n-1;
    otherwise the rows of V^T past the n-1 singular values span the kernel.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n != linkage.n:
        raise InvalidConfigurationError("configuration and linkage sizes differ")
    jac = np.zeros((n - 1, _free_count(n)))
    for row, i in enumerate(range(1, n)):
        j = (i + 1) % n
        d = 2.0 * (pts[i] - pts[j])
        if i >= 2:
            jac[row, 2 * (i - 2): 2 * (i - 2) + 2] += d
        if j >= 2:
            jac[row, 2 * (j - 2): 2 * (j - 2) + 2] -= d
    _, svals, vt = np.linalg.svd(jac, full_matrices=True)
    if svals[-1] <= RANK_TOL * svals[0]:
        raise NonRegularPointError(
            f"constraint Jacobian rank deficient (sigma_min/sigma_max = "
            f"{svals[-1] / svals[0]:.3e})"
        )
    return jac, vt[svals.size:].T


def constraint_jacobian(points, linkage: Linkage) -> np.ndarray:
    """Jacobian of the edge constraints over the free coordinates.

    Shape (n-1, 2(n-2)); row i carries ``2(p_i - p_{i+1})`` in the columns of
    its free endpoints.  Raises :class:`NonRegularPointError` when the rank
    drops below n-1 (a singular point of the moduli space).
    """
    return _regular_jacobian(points, linkage)[0]


def _stationarity(points, jac: np.ndarray):
    grad = area_gradient(points)
    lam, *_ = np.linalg.lstsq(jac.T, grad, rcond=None)
    residual = float(np.linalg.norm(grad - jac.T @ lam)) / max(1.0, float(np.linalg.norm(grad)))
    return lam, residual


def criticality_residual(config: Configuration, linkage: Linkage):
    """Least-squares Lagrange multipliers and the normalized stationarity gap.

    Solves ``J^T lambda = grad A`` in the least-squares sense and returns
    ``(lambda, ||grad A - J^T lambda|| / max(1, ||grad A||))``.  At a cyclic
    configuration the residual vanishes to solver precision; for a triangle
    the moduli space is zero-dimensional and the system is square.
    """
    return _stationarity(config.points, constraint_jacobian(config.points, linkage))


def tangent_basis(points, linkage: Linkage) -> np.ndarray:
    """Orthonormal basis of the constraint tangent space (columns), via SVD."""
    return _regular_jacobian(points, linkage)[1]


def projected_hessian(config: Configuration, linkage: Linkage, lam,
                      basis: np.ndarray | None = None) -> np.ndarray:
    """Lagrangian Hessian projected onto the constraint tangent space.

    ``Z^T (hess A - sum_i lambda_i hess g_i) Z`` with Z an orthonormal
    tangent basis; the result is the (n-3) x (n-3) second derivative of the
    area along the moduli space at a critical point.  The Lagrangian Hessian
    is block tridiagonal over the free vertices p_3..p_n: vertex p_v carries
    ``-2 (lambda_{v-1} + lambda_v) I`` (multipliers indexed by edge) and
    each edge p_v p_{v+1} between free vertices couples them by
    ``2 lambda_v I`` plus the area's ``+/-1/2`` cross terms.
    """
    n = config.n
    lam = np.asarray(lam, dtype=float)
    lagrangian = np.zeros((_free_count(n), _free_count(n)))
    x = 2 * np.arange(n - 2)  # x column of each free vertex; y is x + 1
    diag = -2.0 * lam[:-1] - 2.0 * lam[1:]
    lagrangian[x, x] = lagrangian[x + 1, x + 1] = diag
    a, b = x[:-1], x[1:]  # consecutive free vertices
    couple = 2.0 * lam[1:-1]
    lagrangian[a, b] = lagrangian[b, a] = couple
    lagrangian[a + 1, b + 1] = lagrangian[b + 1, a + 1] = couple
    lagrangian[a, b + 1] = lagrangian[b + 1, a] = 0.5
    lagrangian[a + 1, b] = lagrangian[b, a + 1] = -0.5
    z = tangent_basis(config.points, linkage) if basis is None else np.asarray(basis, dtype=float)
    proj = z.T @ lagrangian @ z
    return 0.5 * (proj + proj.T)


def inertia(matrix) -> tuple:
    """Eigenvalue inertia (negatives, zeros, positives) of a symmetric matrix."""
    mat = np.asarray(matrix, dtype=float)
    if mat.size == 0:
        return (0, 0, 0)
    evals = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    scale = float(np.max(np.abs(evals)))
    cutoff = EIGEN_ZERO_TOL * scale if scale > 0.0 else EIGEN_ZERO_TOL
    neg = int(np.sum(evals < -cutoff))
    zer = int(np.sum(np.abs(evals) <= cutoff))
    return (neg, zer, mat.shape[0] - neg - zer)


def oracle_index(config: Configuration, linkage: Linkage) -> OracleVerdict:
    """Full numerical verdict: multipliers, residual, inertia, determinant sign.

    ``det_sign`` is 0 when any projected eigenvalue is numerically zero, in
    which case the verdict is non-Morse and excluded from sign comparisons.
    """
    jac, basis = _regular_jacobian(config.points, linkage)
    lam, residual = _stationarity(config.points, jac)
    proj = projected_hessian(config, linkage, lam, basis=basis)
    neg, zer, pos = inertia(proj)
    det_sign = 0 if zer else (1 if neg % 2 == 0 else -1)
    return OracleVerdict(multipliers=lam, residual=residual,
                         inertia=(neg, zer, pos), det_sign=det_sign, index=neg)
