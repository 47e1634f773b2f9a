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
from .geometry import Configuration, Linkage, _dot_rows, _readonly, _refusals

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


def _free_count(n: int) -> int:
    return 2 * (n - 2)


# ---------------------------------------------------------------------------
# Stacked kernels over configurations of shape (rows, n, 2).  oracle_index
# is their one-row case.


def _gradient_rows(pts: np.ndarray) -> np.ndarray:
    """Gradients of the shoelace area over the free coordinates (p_3..p_n),
    one row per configuration.  The area is quadratic, so each component is
    half a coordinate difference of the two cyclic neighbors."""
    nxt, prv = np.roll(pts, -1, axis=1)[:, 2:], pts[:, 1:-1]
    grad = np.empty((pts.shape[0], _free_count(pts.shape[1])))
    grad[:, 0::2] = 0.5 * (nxt[..., 1] - prv[..., 1])
    grad[:, 1::2] = 0.5 * (prv[..., 0] - nxt[..., 0])
    return grad


def _regular_rows(pts: np.ndarray):
    """Constraint Jacobians, the factors ``(U, s, V^T)`` of one batched SVD
    of them, and per row the :class:`NonRegularPointError` of a rank below
    n-1 (or None).

    Jacobian row i - 1 (edge i = 1..n-1) carries ``2(p_i - p_{i+1})`` in the
    columns of p_i and its negative in those of p_{i+1}, where free.
    """
    n = pts.shape[1]
    d = 2.0 * (pts - np.roll(pts, -1, axis=1))
    jac = np.zeros((pts.shape[0], n - 1, _free_count(n)))
    pair = np.arange(2)
    tail = np.arange(2, n)  # edges whose first endpoint is free
    jac[:, tail[:, None] - 1, 2 * (tail[:, None] - 2) + pair] += d[:, tail]
    head = np.arange(1, n - 1)  # edges whose second endpoint is free
    jac[:, head[:, None] - 1, 2 * (head[:, None] - 1) + pair] -= d[:, head]
    u, svals, vt = np.linalg.svd(jac, full_matrices=True)
    errors = _refusals((svals[:, -1] <= RANK_TOL * svals[:, 0])[:, None],
                       lambda row, _: NonRegularPointError(
                           f"constraint Jacobian rank deficient (sigma_min/sigma_max = "
                           f"{svals[row, -1] / svals[row, 0]:.3e})"))
    return jac, (u, svals, vt), errors


def _stationarity_rows(pts: np.ndarray, jac: np.ndarray, u: np.ndarray, svals: np.ndarray,
                       vt: np.ndarray):
    """Least-squares Lagrange multipliers and normalized stationarity gaps
    per row of full rank, from the SVD ``J = U diag(s) V^T`` of its
    Jacobian: ``J^T lambda = grad A`` solved in the least-squares sense,
    ``lambda = U diag(1/s) V_1^T grad A`` with ``V_1^T`` the first n-1 rows
    of ``V^T``, and ``||grad A - J^T lambda|| / max(1, ||grad A||)``
    against the explicit Jacobian.  At a cyclic configuration the gap
    vanishes to solver precision; for a triangle the moduli space is
    zero-dimensional and the system is square."""
    grad = _gradient_rows(pts)
    jac_t = jac.transpose(0, 2, 1)
    lam = (u @ ((vt[:, :jac.shape[1]] @ grad[:, :, None]) / svals[:, :, None]))[:, :, 0]
    gap = grad - (jac_t @ lam[:, :, None])[:, :, 0]
    return lam, np.sqrt(_dot_rows(gap, gap)) / np.maximum(1.0, np.sqrt(_dot_rows(grad, grad)))


def _lagrangian_rows(lam: np.ndarray) -> np.ndarray:
    """Lagrangian Hessians ``hess A - sum_i lambda_i hess g_i`` over the
    free coordinates, one per row of multipliers.

    They are block tridiagonal over the free vertices p_3..p_n: vertex p_v
    carries ``-2 (lambda_{v-1} + lambda_v) I`` (multipliers indexed by edge)
    and each edge p_v p_{v+1} between free vertices couples them by
    ``2 lambda_v I`` plus the area's ``+/-1/2`` cross terms.
    """
    n = lam.shape[1] + 1
    lagrangian = np.zeros((lam.shape[0], _free_count(n), _free_count(n)))
    x = 2 * np.arange(n - 2)  # x column of each free vertex; y is x + 1
    diag = -2.0 * lam[:, :-1] - 2.0 * lam[:, 1:]
    lagrangian[:, x, x] = lagrangian[:, x + 1, x + 1] = diag
    a, b = x[:-1], x[1:]  # consecutive free vertices
    couple = 2.0 * lam[:, 1:-1]
    lagrangian[:, a, b] = lagrangian[:, b, a] = couple
    lagrangian[:, a + 1, b + 1] = lagrangian[:, b + 1, a + 1] = couple
    lagrangian[:, a, b + 1] = lagrangian[:, b + 1, a] = 0.5
    lagrangian[:, a + 1, b] = lagrangian[:, b, a + 1] = -0.5
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
    """:func:`oracle_index` of each stacked configuration, as columns:
    ``(multipliers, residuals, inertias, det_signs, errors)``, the inertias
    of shape (rows, 3) and ``errors`` a list holding per row the
    :class:`NonRegularPointError` of a singular point, or None.  A refused
    row has NaN multipliers and residual, inertia (0, 0, 0) and
    ``det_sign`` 0; the index of a row is its count of negatives."""
    rows, n = pts.shape[:2]
    jac, svd, errors = _regular_rows(pts)
    regular = np.array([error is None for error in errors], dtype=bool)
    u, svals, vt = (factor[regular] for factor in svd)
    multipliers, residual = np.full((rows, n - 1), np.nan), np.full(rows, np.nan)
    inertia = np.zeros((rows, 3), dtype=int)
    multipliers[regular], residual[regular] = _stationarity_rows(pts[regular], jac[regular],
                                                                 u, svals, vt)
    basis = vt[:, n - 1:].transpose(0, 2, 1)
    inertia[regular] = _inertia_rows(_projected_rows(_lagrangian_rows(multipliers[regular]),
                                                     basis))
    det_sign = np.where(~regular | (inertia[:, 1] > 0), 0, 1 - 2 * (inertia[:, 0] % 2))
    return multipliers, residual, inertia, det_sign, errors


def _verdict(multipliers: np.ndarray, residual: float, inertia: np.ndarray,
             det_sign: int) -> OracleVerdict:
    """The :class:`OracleVerdict` of one unrefused row of
    :func:`_verdict_rows` columns."""
    inertia = tuple(inertia.tolist())
    return OracleVerdict(multipliers=multipliers, residual=float(residual), inertia=inertia,
                         det_sign=int(det_sign), index=inertia[0])


def oracle_index(config: Configuration, linkage: Linkage) -> OracleVerdict:
    """Full numerical verdict: multipliers, residual, inertia, determinant sign.

    ``det_sign`` is 0 when any projected eigenvalue is numerically zero, in
    which case the verdict is non-Morse and excluded from sign comparisons.
    """
    if config.n != linkage.n:
        raise InvalidConfigurationError("configuration and linkage sizes differ")
    multipliers, residual, inertia, det_sign, errors = _verdict_rows(config.points[None])
    if errors[0] is not None:
        raise errors[0]
    return _verdict(multipliers[0], residual[0], inertia[0], det_sign[0])
