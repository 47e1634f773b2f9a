"""Independent numerical verification via the constrained Hessian.

The signed area restricted to the constraint manifold (all configurations of
the linkage, with the first edge pinned) has its critical points at the
cyclic configurations.  This module confirms criticality through Lagrange
multipliers and computes the true Morse data: the Lagrangian Hessian
projected onto the constraint tangent space, its eigenvalue inertia, and the
determinant sign.  The chart is the edge directions: with the lengths fixed,
a configuration is its angles phi_2..phi_n about the pinned phi_1, under the
closure ``sum_k l_k (cos phi_k, sin phi_k) = 0``, two equations whatever n
is.  Area and closure are trigonometric sums, so every derivative is a
closed form in the edge vectors.
"""

from __future__ import annotations

import numpy as np

from .geometry import _dot_rows, _refusals

# Singular values of the 2 x (n-1) constraint matrix below this multiple of
# the largest one count as zero when deciding its rank and the tangent space.
RANK_TOL = 1e-9

# Eigenvalues below this multiple of the spectral norm count as zero; any
# zero eigenvalue makes the verdict non-Morse.
EIGEN_ZERO_TOL = 1e-7


# ---------------------------------------------------------------------------
# Stacked kernels over configurations of shape (rows, n, 2).  The chart:
# edge k = 1..n of a configuration is ``e_k = p_{k+1} - p_k =
# l_k (cos phi_k, sin phi_k)``, with the lengths fixed, phi_1 pinned and
# phi_2..phi_n free.


def _normals(pts: np.ndarray):
    """Edges and their quarter turns ``d e_k / d phi_k = l_k (-sin phi_k,
    cos phi_k)``, each of shape (rows, n, 2)."""
    edges = np.roll(pts, -1, axis=1) - pts
    return edges, np.stack([-edges[..., 1], edges[..., 0]], axis=-1)


def _gradient_rows(pts: np.ndarray) -> np.ndarray:
    """Gradients of the area ``A = 1/2 sum_{i<j} l_i l_j sin(phi_j - phi_i)``
    over the free angles, one row per configuration: ``dA/dphi_k =
    1/2 [sum_{i<k} e_i . e_k - sum_{j>k} e_k . e_j]``, which, as the edges
    before e_k sum to ``p_k - p_1`` and those after it to ``p_1 - p_{k+1}``,
    is ``1/2 e_k . (p_k + p_{k+1} - 2 p_1)``."""
    nxt = np.roll(pts, -1, axis=1)
    return 0.5 * _dot_rows(nxt - pts, pts + nxt - 2.0 * pts[:, :1])[:, 1:]


def _regular_rows(pts: np.ndarray):
    """Constraint matrices, the factors ``(U, s, V^T)`` of one batched SVD
    of them, and the refusal column of a rank below 2 (None where the rank
    is 2).

    The closure ``g = sum_k e_k = 0`` has the 2 x (n-1) Jacobian whose
    column k is ``l_k (-sin phi_k, cos phi_k)``, k = 2..n; its rank is 2
    unless every free edge is parallel.
    """
    jac = _normals(pts)[1][:, 1:].transpose(0, 2, 1)
    u, svals, vt = np.linalg.svd(jac, full_matrices=True)
    errors = _refusals((svals[:, -1] <= RANK_TOL * svals[:, 0])[:, None],
                       lambda row, _: f"constraint Jacobian rank deficient (sigma_min/sigma_max "
                                      f"= {svals[row, -1] / svals[row, 0]:.3e})")
    return jac, (u, svals, vt), errors


def _stationarity_rows(pts: np.ndarray, jac: np.ndarray, u: np.ndarray, svals: np.ndarray,
                       vt: np.ndarray):
    """Least-squares Lagrange multipliers and normalized stationarity gaps
    per row of full rank, from the SVD ``J = U diag(s) V^T`` of its
    constraint matrix: ``J^T lambda = grad A`` solved in the least-squares
    sense, ``lambda = U diag(1/s) V_1^T grad A`` with ``V_1^T`` the first 2
    rows of ``V^T``, and ``||grad A - J^T lambda|| / max(1, ||grad A||)``
    against the explicit matrix.  At a cyclic configuration the gap
    vanishes to solver precision and ``lambda = (-c_y, c_x)`` for the
    circle's center c relative to p_1; for a triangle the moduli space is
    zero-dimensional and the system is square."""
    grad = _gradient_rows(pts)
    jac_t = jac.transpose(0, 2, 1)
    lam = (u @ ((vt[:, :jac.shape[1]] @ grad[:, :, None]) / svals[:, :, None]))[:, :, 0]
    gap = grad - (jac_t @ lam[:, :, None])[:, :, 0]
    return lam, np.sqrt(_dot_rows(gap, gap)) / np.maximum(1.0, np.sqrt(_dot_rows(grad, grad)))


def _lagrangian_rows(pts: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Lagrangian Hessians ``hess A - lambda . hess g`` over the free
    angles, one per row of multipliers.

    Over all n angles the area's Hessian is ``H_jk = 1/2 e_j x e_k =
    1/2 l_j l_k sin(phi_k - phi_j)`` for j < k, symmetric, with
    ``H_kk = -sum_{j != k} H_jk``, the pinned edge included; as
    ``d^2 e_k / d phi_k^2 = -e_k``, the closure adds ``lambda . e_k`` on the
    diagonal.
    """
    edges, normals = _normals(pts)
    order = np.arange(pts.shape[1])
    hess = 0.5 * (normals @ edges.transpose(0, 2, 1)) * np.sign(order - order[:, None])
    diag = (edges @ lam[:, :, None])[..., 0] - hess.sum(axis=1)
    lagrangian = hess[:, 1:, 1:]
    lagrangian[:, order[:-1], order[:-1]] = diag[:, 1:]
    return lagrangian


def _projected_rows(lagrangian: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """``Z^T L Z`` per row, symmetrized: with Z an orthonormal tangent
    basis, the (n-3) x (n-3) second derivative of the area along the moduli
    space at a critical point."""
    proj = basis.transpose(0, 2, 1) @ lagrangian @ basis
    return 0.5 * (proj + proj.transpose(0, 2, 1))


def _inertia_rows(mats: np.ndarray) -> np.ndarray:
    """Eigenvalue inertia (negatives, zeros, positives) of stacked matrices,
    shape (rows, 3).  The matrices must be exactly symmetric, as
    :func:`_projected_rows` makes them."""
    rows, k = mats.shape[:2]
    if k == 0:
        return np.zeros((rows, 3), dtype=int)
    evals = np.linalg.eigvalsh(mats)
    scale = np.abs(evals).max(axis=1)
    cutoff = np.where(scale > 0.0, EIGEN_ZERO_TOL * scale, EIGEN_ZERO_TOL)[:, None]
    neg = (evals < -cutoff).sum(axis=1)
    zer = (np.abs(evals) <= cutoff).sum(axis=1)
    return np.stack([neg, zer, k - neg - zer], axis=1)


def _verdict_rows(pts: np.ndarray):
    """The numerical verdict of each stacked configuration, as columns:
    ``(multipliers, residuals, inertias, det_signs, errors)``, the inertias
    of shape (rows, 3) and ``errors`` the refusal column of
    :func:`_regular_rows`, the text of a singular point or None.  A refused
    row has NaN multipliers and residual, inertia (0, 0, 0) and
    ``det_sign`` 0; the index of a row is its count of negatives.
    ``det_sign`` is 0 too when a projected eigenvalue is numerically zero:
    the point is not Morse and is left out of sign comparisons."""
    rows = pts.shape[0]
    jac, svd, errors = _regular_rows(pts)
    regular = np.equal(errors, None)
    u, svals, vt = (factor[regular] for factor in svd)
    multipliers, residual = np.full((rows, 2), np.nan), np.full(rows, np.nan)
    inertia = np.zeros((rows, 3), dtype=int)
    multipliers[regular], residual[regular] = _stationarity_rows(pts[regular], jac[regular],
                                                                 u, svals, vt)
    basis = vt[:, 2:].transpose(0, 2, 1)
    inertia[regular] = _inertia_rows(_projected_rows(
        _lagrangian_rows(pts[regular], multipliers[regular]), basis))
    det_sign = np.where(~regular | (inertia[:, 1] > 0), 0, 1 - 2 * (inertia[:, 0] % 2))
    return multipliers, residual, inertia, det_sign, errors
