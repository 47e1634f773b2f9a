"""Independent numerical verification via the constrained Hessian.

The signed area restricted to the constraint manifold (all configurations of
the linkage, with the first edge pinned) has its critical points at the
cyclic configurations.  This module confirms criticality through Lagrange
multipliers and computes the true Morse data: the Lagrangian Hessian
projected onto the constraint tangent space, its inertia, and the
determinant sign.  The chart is the edge directions: with the lengths fixed,
a configuration is its angles phi_2..phi_n about the pinned phi_1, under the
closure ``sum_k l_k (cos phi_k, sin phi_k) = 0``, two equations whatever n
is.  Area and closure are trigonometric sums, so every derivative is a
closed form in the edge vectors, and the rank test, the multipliers, the
tangent basis and the Lagrangian all read one cross matrix
``C_jk = e_j x e_k``.

The inertia needs no eigenvalues: by Sylvester's law of inertia it is the
same in every basis of the tangent space, so it is counted as the signs of
the pivots of an LDL^T factorization in a basis read off two pinned free
angles.  Only a row whose factorization cannot certify that no eigenvalue is
numerically zero takes the reference path: an orthonormal basis from the
SVD of its constraint matrix and the eigenvalues at :data:`EIGEN_ZERO_TOL`.
"""

from __future__ import annotations

import numpy as np

from .geometry import _dot_rows, _refusals

# The 2 x (n-1) constraint matrix counts as rank deficient, and the row is
# refused, when its smallest singular value is at most this multiple of the
# largest; both come from the 2 x 2 Gram matrix, without cancellation.
RANK_TOL = 1e-9

# Eigenvalues of the projected Hessian in an orthonormal tangent basis below
# this multiple of its spectral norm count as zero; any zero eigenvalue
# makes the verdict non-Morse.
EIGEN_ZERO_TOL = 1e-7


# ---------------------------------------------------------------------------
# Stacked kernels over configurations of shape (rows, n, 2).  The chart:
# edge k = 1..n of a configuration is ``e_k = p_{k+1} - p_k =
# l_k (cos phi_k, sin phi_k)``, with the lengths fixed, phi_1 pinned and
# phi_2..phi_n free.


def _cross_rows(pts: np.ndarray):
    """Edges, shape (rows, n, 2), and their cross matrices ``C_jk = e_j x
    e_k``, shape (rows, n, n), exactly antisymmetric.  As the quarter turn
    ``d e_j / d phi_j = l_j (-sin phi_j, cos phi_j)`` dotted with e_k is
    ``e_j x e_k``, C holds every product of the derivatives below."""
    edges = np.roll(pts, -1, axis=1) - pts
    x, y = edges[..., 0], edges[..., 1]
    return edges, x[:, :, None] * y[:, None, :] - y[:, :, None] * x[:, None, :]


def _jacobian_rows(edges: np.ndarray) -> np.ndarray:
    """Constraint matrices, shape (rows, 2, n-1): the closure ``g = sum_k
    e_k = 0`` has the Jacobian whose column k is ``l_k (-sin phi_k, cos
    phi_k)``, k = 2..n; its rank is 2 unless every free edge is parallel."""
    return np.stack([-edges[:, 1:, 1], edges[:, 1:, 0]], axis=1)


def _gradient_rows(pts: np.ndarray) -> np.ndarray:
    """Gradients of the area ``A = 1/2 sum_{i<j} l_i l_j sin(phi_j - phi_i)``
    over the free angles, one row per configuration: ``dA/dphi_k =
    1/2 [sum_{i<k} e_i . e_k - sum_{j>k} e_k . e_j]``, which, as the edges
    before e_k sum to ``p_k - p_1`` and those after it to ``p_1 - p_{k+1}``,
    is ``1/2 e_k . (p_k + p_{k+1} - 2 p_1)``."""
    nxt = np.roll(pts, -1, axis=1)
    return 0.5 * _dot_rows(nxt - pts, pts + nxt - 2.0 * pts[:, :1])[:, 1:]


def _regular_rows(edges: np.ndarray, cross: np.ndarray):
    """The Gram determinants ``det(J J^T) = sum_{j<k} C_jk^2`` over the free
    edges, and the refusal column of a rank below 2 (None where the rank is
    2).  The squared singular values of J are the eigenvalues of the 2 x 2
    Gram matrix, of trace ``T = sum l_k^2``, so ``s_max^2 = T/2 +
    sqrt(T^2/4 - det)`` and ``s_min / s_max = sqrt(det) / s_max^2``."""
    det = 0.5 * (cross[:, 1:, 1:] ** 2).sum(axis=(1, 2))
    trace = (edges[:, 1:] ** 2).sum(axis=(1, 2))
    largest = 0.5 * trace + np.sqrt(np.maximum(0.25 * trace ** 2 - det, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(det) / largest
    errors = _refusals(~(ratio > RANK_TOL)[:, None],
                       lambda row, _: f"constraint Jacobian rank deficient (sigma_min/sigma_max "
                                      f"= {ratio[row]:.3e})")
    return det, errors


def _stationarity_rows(pts: np.ndarray, jac: np.ndarray, det: np.ndarray):
    """Least-squares Lagrange multipliers and normalized stationarity gaps
    per row of full rank: ``J^T lambda = grad A`` solved by the 2 x 2 normal
    equations ``J J^T lambda = J grad A``, whose determinant is the
    cancellation-free ``det`` of :func:`_regular_rows`, and
    ``||grad A - J^T lambda|| / max(1, ||grad A||)``.  At a cyclic
    configuration the gap vanishes to solver precision and ``lambda =
    (-c_y, c_x)`` for the circle's center c relative to p_1; for a triangle
    the moduli space is zero-dimensional and the system is square."""
    grad = _gradient_rows(pts)
    (xx, xy), (_, yy) = (jac @ jac.transpose(0, 2, 1)).transpose(1, 2, 0)
    bx, by = (jac @ grad[:, :, None])[..., 0].T
    lam = np.stack([yy * bx - xy * by, xx * by - xy * bx], axis=1) / det[:, None]
    gap = grad - (lam[:, None, :] @ jac)[:, 0]
    return lam, np.sqrt(_dot_rows(gap, gap)) / np.maximum(1.0, np.sqrt(_dot_rows(grad, grad)))


def _lagrangian_rows(edges: np.ndarray, cross: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Lagrangian Hessians ``hess A - lambda . hess g`` over the free
    angles, one per row of multipliers.

    Over all n angles the area's Hessian is ``H_jk = 1/2 e_j x e_k =
    1/2 l_j l_k sin(phi_k - phi_j)`` for j < k, symmetric, with
    ``H_kk = -sum_{j != k} H_jk``, the pinned edge included; as
    ``d^2 e_k / d phi_k^2 = -e_k``, the closure adds ``lambda . e_k`` on the
    diagonal.
    """
    order = np.arange(edges.shape[1])
    hess = 0.5 * cross * np.sign(order - order[:, None])
    diag = (edges @ lam[:, :, None])[..., 0] - hess.sum(axis=1)
    lagrangian = hess[:, 1:, 1:]
    lagrangian[:, order[:-1], order[:-1]] = diag[:, 1:]
    return lagrangian


def _tangent_rows(cross: np.ndarray, lagrangian: np.ndarray):
    """``Z^T L Z`` per row in a tangent basis pinned on two free angles, and
    ``1 + ||W||_F^2`` for the Cramer coefficients W of that basis.

    The pinned pair ``(a, c)`` is the free pair with the largest ``|C_ac|``,
    picked by conditioning alone, never by the closed form's
    subconfigurations.  Column k of J is ``alpha_k J_a + beta_k J_c`` with
    ``alpha_k = C_kc / C_ac`` and ``beta_k = C_ak / C_ac``, each at most 1
    in magnitude, so for each other free angle k, ``z_k = u_k - alpha_k u_a
    - beta_k u_c`` (u the unit vectors) is a tangent vector, and the n - 3
    of them are a basis.  With o the others, ``Z^T L Z = L_oo - (S +
    S^T)``, ``S = s_a alpha^T + s_c beta^T``, ``s_a = L_oa - alpha L_aa / 2
    - beta L_ac`` and ``s_c = L_oc - beta L_cc / 2``: no matrix product, and
    exactly symmetric.
    """
    free = cross[:, 1:, 1:]
    rows, m = free.shape[:2]
    a, c = np.divmod(np.abs(free).reshape(rows, m * m).argmax(axis=1), m)
    others = (np.arange(m) != a[:, None]) & (np.arange(m) != c[:, None])
    row = np.arange(rows)

    def at_others(column):
        return column[others].reshape(rows, m - 2)

    pivot = free[row, a, c][:, None]
    alpha, beta = at_others(free[row, :, c]) / pivot, at_others(free[row, a]) / pivot
    s_a = (at_others(lagrangian[row, :, a]) - 0.5 * alpha * lagrangian[row, a, a][:, None]
           - beta * lagrangian[row, a, c][:, None])
    s_c = at_others(lagrangian[row, :, c]) - 0.5 * beta * lagrangian[row, c, c][:, None]
    outer = s_a[:, :, None] * alpha[:, None, :] + s_c[:, :, None] * beta[:, None, :]
    block = lagrangian[others[:, :, None] & others[:, None, :]].reshape(rows, m - 2, m - 2)
    return (block - (outer + outer.transpose(0, 2, 1)),
            1.0 + (alpha ** 2).sum(axis=1) + (beta ** 2).sum(axis=1))


def _ldl_rows(mats: np.ndarray, widen: np.ndarray):
    """The count of negative pivots of an unpivoted LDL^T of each stacked
    symmetric matrix M, and whether that count is certified to be the
    inertia of the projected Hessian ``M_o`` in an orthonormal basis, with no
    eigenvalue at or below :data:`EIGEN_ZERO_TOL` of its spectral norm.

    The elimination carries an identity, so it ends with the rows ``x_k`` of
    ``L^{-1}`` next to the pivots ``d_k``.  The certificate bounds the
    eigenvalue ratio of ``M_o`` from below:

    - ``(L D L^T)^{-1} = sum_k x_k^T x_k / d_k``, so no eigenvalue of
      ``L D L^T`` is smaller in magnitude than ``1 / sum_k |x_k|^2 / |d_k|``;
    - the computed factors are exact for ``M + E`` with ``|E| <=
      gamma_m |L| |D| |L^T|`` (Higham, *Accuracy and Stability of Numerical
      Algorithms*, 2nd ed., Thm 9.3 with ``U = D L^T``; gamma_{3m} is used
      for margin), so ``||E|| <= gamma_{3m} sum_k |d_k| (1 + |l_k|^2)``
      with l_k the multipliers of step k, and by Weyl's inequality M keeps
      every sign as long as that lower bound exceeds ||E||;
    - no eigenvalue of M exceeds ``||M||_F``;
    - ``M = R^T M_o R`` with ``R^T R = Z^T Z = I + W^T W``, W the Cramer
      coefficients of :func:`_tangent_rows`, whose eigenvalues lie in
      ``[1, widen]``, ``widen = 1 + ||W||_F^2``; by Ostrowski's theorem every
      eigenvalue ratio of M_o is then at least that of M over ``widen``.

    A row whose bound does not exceed :data:`EIGEN_ZERO_TOL`, a zero pivot
    among them, is not certified.  A bare threshold on each pivot would not
    do: a small eigenvalue can hide behind element growth (pivots 1e-3,
    1e-3, 0.1 fit a 3 x 3 matrix of eigenvalues 1, 1 and 1e-7).  The bound
    stays within a factor of about ``m widen`` of the true ratio where the
    factorization is well conditioned, so a row comes through certified
    unless its smallest eigenvalue ratio is within a few hundred times the
    tolerance or its pivots grow.
    """
    rows, m = mats.shape[:2]
    work = np.concatenate([mats, np.broadcast_to(np.eye(m), mats.shape)], axis=2)
    pivots, growth = np.empty((rows, m)), np.zeros(rows)
    gamma = 3 * m * 2.0 ** -53 / (1.0 - 3 * m * 2.0 ** -53)
    # a zero pivot leaves NaN or inf in its row, whose ratio is then not > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(m):
            pivots[:, k] = work[:, k, k]
            col = work[:, k + 1:, k] / pivots[:, k, None]
            # row k's live entries: the Schur complement right of k, L^{-1} up to k
            work[:, k + 1:, k + 1:m + k + 1] -= col[:, :, None] * work[:, k, None, k + 1:m + k + 1]
            growth += np.abs(pivots[:, k]) * (1.0 + (col * col).sum(axis=1))
        lower = 1.0 / ((work[:, :, m:] ** 2).sum(axis=2) / np.abs(pivots)).sum(axis=1)
        ratio = (lower - gamma * growth) / (np.sqrt((mats ** 2).sum(axis=(1, 2))) * widen)
    return (pivots < 0.0).sum(axis=1), ratio > EIGEN_ZERO_TOL


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


def _morse_rows(jac: np.ndarray, cross: np.ndarray, lagrangian: np.ndarray) -> np.ndarray:
    """The inertia of each row's projected Hessian, shape (rows, 3): the
    certified count of :func:`_ldl_rows` in the pinned basis, else the
    reference: the eigenvalues of ``Z^T L Z`` in the orthonormal basis of
    the rows of ``V^T`` past the 2 singular values of a batched SVD."""
    rows, m = lagrangian.shape[:2]
    inertia = np.zeros((rows, 3), dtype=int)
    if m <= 2:
        return inertia
    negatives, certified = _ldl_rows(*_tangent_rows(cross, lagrangian))
    inertia[:, 0], inertia[:, 2] = negatives, m - 2 - negatives
    if not certified.all():
        vt = np.linalg.svd(jac[~certified], full_matrices=True)[2]
        inertia[~certified] = _inertia_rows(_projected_rows(lagrangian[~certified],
                                                            vt[:, 2:].transpose(0, 2, 1)))
    return inertia


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
    edges, cross = _cross_rows(pts)
    det, errors = _regular_rows(edges, cross)
    regular = np.equal(errors, None)
    pts, edges, cross, det = pts[regular], edges[regular], cross[regular], det[regular]
    jac = _jacobian_rows(edges)
    multipliers, residual = np.full((rows, 2), np.nan), np.full(rows, np.nan)
    inertia = np.zeros((rows, 3), dtype=int)
    multipliers[regular], residual[regular] = _stationarity_rows(pts, jac, det)
    inertia[regular] = _morse_rows(jac, cross, _lagrangian_rows(edges, cross,
                                                                multipliers[regular]))
    det_sign = np.where(~regular | (inertia[:, 1] > 0), 0, 1 - 2 * (inertia[:, 0] % 2))
    return multipliers, residual, inertia, det_sign, errors


def _mirror_rows(n: int, multipliers, residual, inertia, det_sign, errors):
    """The verdict columns of the mirrors of rows of n edges, from theirs.
    The mirror ``(-E, -k)`` is the configuration reflected across the pinned
    edge, with area ``-A``: its projected Hessian is the negated one, so its
    inertia ``(neg, zero, pos)`` is ``(pos, zero, neg)`` and its
    ``det_sign`` gains ``(-1)^(n-3)``; its center ``(-c_x, c_y)`` gives the
    multipliers ``(lambda_1, -lambda_2)``; the residual and the refusal
    are the root's."""
    return (multipliers * np.array([1.0, -1.0]), residual, inertia[:, ::-1],
            det_sign * (-1) ** (n - 3), errors)
