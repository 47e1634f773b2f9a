"""Numerical constrained-Hessian oracle: gradients, criticality, inertia."""

import numpy as np
import pytest

from conftest import (
    constraint_values,
    random_linkage,
    random_valid_configuration,
    regular_polygon_points,
)
from linkmorse import Configuration, Linkage, enumerate_cyclic, oracle_index, signed_area
from linkmorse import oracle
from linkmorse.errors import NonRegularPointError


def _free_vector(points):
    return np.asarray(points, dtype=float)[2:].ravel()


def _with_free(points, vec):
    pts = np.asarray(points, dtype=float).copy()
    pts[2:] = np.asarray(vec, dtype=float).reshape(-1, 2)
    return pts


# One configuration through the stacked kernels of the oracle.


def _gradient(points):
    return oracle._gradient_rows(np.asarray(points, dtype=float)[None])[0]


def _jacobian(points):
    jac, _, _ = oracle._regular_rows(np.asarray(points, dtype=float)[None])
    return jac[0]


def _tangent_basis(points):
    """Orthonormal basis of the constraint tangent space (columns): the rows
    of V^T past the n - 1 singular values."""
    pts = np.asarray(points, dtype=float)
    _, (_, _, vt), _ = oracle._regular_rows(pts[None])
    return vt[0, pts.shape[0] - 1:].T


def _projected_hessian(lam, basis):
    lagrangian = oracle._lagrangian_rows(np.asarray(lam, dtype=float)[None])
    return oracle._projected_rows(lagrangian, basis[None])[0]


def _inertia(matrix):
    return tuple(oracle._inertia_rows(np.asarray(matrix, dtype=float)[None])[0].tolist())


def test_area_gradient_square_entry():
    pts, _, _ = regular_polygon_points(4)
    grad = _gradient(pts)
    # d A / d x_3 = (y_4 - y_2) / 2 = (0 - 1) / 2
    assert grad[0] == pytest.approx(0.5 * (pts[3, 1] - pts[1, 1]), abs=1e-15)
    assert grad[0] == pytest.approx(-0.5, abs=1e-12)


def test_area_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(10):
        _, config = random_valid_configuration(rng, int(rng.integers(4, 8)))
        pts = config.points
        grad = _gradient(pts)
        x0 = _free_vector(pts)
        fd = np.empty_like(grad)
        h = 1e-6
        for j in range(x0.size):
            step = np.zeros_like(x0)
            step[j] = h
            fd[j] = (signed_area(_with_free(pts, x0 + step))
                     - signed_area(_with_free(pts, x0 - step))) / (2 * h)
        assert np.max(np.abs(fd - grad)) <= 1e-8 * max(1.0, float(np.linalg.norm(grad)))


def test_area_gradient_translation_identities_quadrilateral():
    # uniform translation of the free vertices changes the area only through
    # the boundary terms involving the pinned edge
    rng = np.random.default_rng(4)
    for _ in range(10):
        _, config = random_valid_configuration(rng, 4)
        p = config.points
        grad = _gradient(p)
        dx = grad[0] + grad[2]
        dy = grad[1] + grad[3]
        assert dx == pytest.approx(0.5 * (p[3, 1] - p[1, 1] + p[0, 1] - p[2, 1]), abs=1e-12)
        assert dy == pytest.approx(0.5 * (p[1, 0] - p[3, 0] + p[2, 0] - p[0, 0]), abs=1e-12)


def test_constraint_jacobian_shape_and_fd():
    rng = np.random.default_rng(6)
    linkage, config = random_valid_configuration(rng, 5)
    jac = _jacobian(config.points)
    assert jac.shape == (4, 6)
    x0 = _free_vector(config.points)
    h = 1e-6
    for j in range(x0.size):
        step = np.zeros_like(x0)
        step[j] = h
        col = (constraint_values(_with_free(config.points, x0 + step), linkage)
               - constraint_values(_with_free(config.points, x0 - step), linkage)) / (2 * h)
        assert col == pytest.approx(jac[:, j], abs=1e-7)


def test_constraint_jacobian_square_rank():
    pts, _, _ = regular_polygon_points(4)
    jac = _jacobian(pts)
    assert jac.shape == (3, 4)
    assert np.linalg.matrix_rank(jac) == 3


def test_collinear_configuration_is_singular():
    # flat folded square: all vertices on the pinned axis
    pts = np.array([(0.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.0, 1.0)])
    with pytest.raises(NonRegularPointError):
        oracle_index(Configuration(pts), Linkage([1, 1, 1, 1]))


def test_enumerated_configurations_are_critical():
    items = enumerate_cyclic(Linkage([1, 1, 1, 1, 1]))
    for item in items:
        assert oracle_index(item.configuration, Linkage([1, 1, 1, 1, 1])).residual < 1e-8


def test_random_configurations_are_not_critical():
    rng = np.random.default_rng(8)
    for _ in range(10):
        linkage, config = random_valid_configuration(rng, 5)
        assert oracle_index(config, linkage).residual > 1e-2


def test_triangle_residual_zero_dimensional():
    pts, _, _ = regular_polygon_points(3)
    assert oracle_index(Configuration(pts), Linkage([1, 1, 1])).residual < 1e-12


def test_projected_hessian_shapes():
    rng = np.random.default_rng(10)
    for n, dim in ((4, 1), (5, 2), (6, 3)):
        linkage = random_linkage(rng, n)
        item = enumerate_cyclic(linkage)[0]
        lam = oracle_index(item.configuration, linkage).multipliers
        proj = _projected_hessian(lam, _tangent_basis(item.configuration.points))
        assert proj.shape == (dim, dim)
        assert proj == pytest.approx(proj.T, abs=1e-12)


def _retract(points, linkage, max_iter=40):
    """Gauss-Newton projection of the free vertices back onto the constraints."""
    pts = np.asarray(points, dtype=float).copy()
    for _ in range(max_iter):
        vals = constraint_values(pts, linkage)
        if np.max(np.abs(vals)) < 1e-13:
            break
        jac = _jacobian(pts)
        step, *_ = np.linalg.lstsq(jac, vals, rcond=None)
        pts = _with_free(pts, _free_vector(pts) - step)
    return pts


def test_projected_hessian_matches_second_differences():
    rng = np.random.default_rng(12)
    linkage = random_linkage(rng, 5)
    item = enumerate_cyclic(linkage)[0]
    config = item.configuration
    lam = oracle_index(config, linkage).multipliers
    basis = _tangent_basis(config.points)
    proj = _projected_hessian(lam, basis)
    h = 1e-4
    a0 = signed_area(config.points)
    for col in range(basis.shape[1]):
        v = basis[:, col]
        plus = _retract(_with_free(config.points, _free_vector(config.points) + h * v), linkage)
        minus = _retract(_with_free(config.points, _free_vector(config.points) - h * v), linkage)
        second = (signed_area(plus) - 2.0 * a0 + signed_area(minus)) / (h * h)
        expected = float(proj[col, col])  # v is basis column col in free coords
        assert abs(second - expected) < 5e-2 * max(1.0, abs(expected))


def test_inertia_small_matrices():
    assert _inertia(np.diag([-1.0, 2.0])) == (1, 0, 1)
    assert _inertia(np.zeros((2, 2))) == (0, 2, 0)
    assert _inertia(np.array([[-3.0]])) == (1, 0, 0)


def test_oracle_index_regular_pentagon_family():
    linkage = Linkage([1, 1, 1, 1, 1])
    pts, center, radius = regular_polygon_points(5)
    verdict = oracle_index(Configuration(pts), linkage)
    assert verdict.index == 2
    assert verdict.det_sign == 1
    assert verdict.inertia == (2, 0, 0)
    assert verdict.residual < 1e-10

    anti, center_a, radius_a = regular_polygon_points(5, ccw=False)
    verdict_anti = oracle_index(Configuration(anti), linkage)
    assert verdict_anti.index == 0
    assert verdict_anti.det_sign == 1


def test_oracle_index_convex_quadrilateral():
    rng = np.random.default_rng(14)
    linkage = random_linkage(rng, 4)
    items = enumerate_cyclic(linkage)
    best = max(items, key=lambda it: signed_area(it.configuration.points))
    verdict = oracle_index(best.configuration, linkage)
    assert verdict.index == 1
    assert verdict.det_sign == -1


def test_oracle_verdict_invariants():
    rng = np.random.default_rng(16)
    for n in (4, 5, 6):
        linkage = random_linkage(rng, n)
        for item in enumerate_cyclic(linkage):
            verdict = oracle_index(item.configuration, linkage)
            assert sum(verdict.inertia) == n - 3
            assert 0 <= verdict.index <= n - 3
            if verdict.is_morse:
                assert verdict.det_sign == (-1) ** verdict.index


def test_inertia_invariant_under_basis_rotation():
    rng = np.random.default_rng(18)
    linkage = random_linkage(rng, 6)
    item = enumerate_cyclic(linkage)[0]
    lam = oracle_index(item.configuration, linkage).multipliers
    basis = _tangent_basis(item.configuration.points)
    q, _ = np.linalg.qr(rng.normal(size=(basis.shape[1], basis.shape[1])))
    shuffled = _projected_hessian(lam, basis @ q)
    reference = _projected_hessian(lam, basis)
    assert _inertia(shuffled) == _inertia(reference)


def _dense_lagrangian(n, lam):
    """The Lagrangian Hessian as a sum of dense m x m matrices: the area's
    constant Hessian minus lambda_i times each constraint's."""
    m = 2 * (n - 2)
    hess = np.zeros((m, m))
    for i in range(n):
        j = (i + 1) % n
        if i >= 2 and j >= 2:
            xi, yi, xj, yj = 2 * (i - 2), 2 * (i - 2) + 1, 2 * (j - 2), 2 * (j - 2) + 1
            hess[xi, yj] += 0.5
            hess[yj, xi] += 0.5
            hess[yi, xj] -= 0.5
            hess[xj, yi] -= 0.5
    for row in range(n - 1):
        i = row + 1
        j = (i + 1) % n
        g = np.zeros((m, m))
        for a, sa in ((i, 1.0), (j, -1.0)):
            for b, sb in ((i, 1.0), (j, -1.0)):
                if a >= 2 and b >= 2:
                    g[2 * (a - 2): 2 * (a - 2) + 2, 2 * (b - 2): 2 * (b - 2) + 2] += \
                        2.0 * sa * sb * np.eye(2)
        if lam[row] != 0.0:
            hess -= lam[row] * g
    return hess


def test_direct_lagrangian_matches_dense_sum():
    rng = np.random.default_rng(20)
    for n in range(4, 9):
        linkage = random_linkage(rng, n)
        for item in enumerate_cyclic(linkage)[:6]:
            lam = oracle_index(item.configuration, linkage).multipliers
            direct = _projected_hessian(lam, np.eye(2 * (n - 2)))
            assert np.array_equal(direct, _dense_lagrangian(n, lam))


def test_one_svd_per_verdict(monkeypatch):
    rng = np.random.default_rng(22)
    linkage = random_linkage(rng, 6)
    item = enumerate_cyclic(linkage)[0]
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    def no_lstsq(*args, **kwargs):
        raise AssertionError("the multipliers come from the SVD, not lstsq")

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    verdict = oracle_index(item.configuration, linkage)
    assert len(calls) == 1
    pts = item.configuration.points[None]
    jac, factors, _ = oracle._regular_rows(pts)
    lam, residual = oracle._stationarity_rows(pts, jac, *factors)
    lam, residual = lam[0], float(residual[0])
    assert residual == verdict.residual
    assert np.array_equal(lam, verdict.multipliers)
