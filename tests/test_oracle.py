"""Numerical constrained-Hessian oracle: gradients, criticality, inertia."""

import math

import numpy as np
import pytest

from conftest import (
    chain_points,
    chart_area,
    closure_values,
    edge_angles,
    pin_points,
    random_linkage,
    random_valid_configuration,
    regular_polygon_points,
)
from linkmorse import Linkage, enumerate_cyclic, signed_area
from linkmorse import oracle


def _with_free(phi, vec):
    """The edge angles with phi_2..phi_n replaced."""
    out = np.asarray(phi, dtype=float).copy()
    out[1:] = vec
    return out


# One configuration through the stacked kernels of the oracle.


def _gradient(points):
    return oracle._gradient_rows(np.asarray(points, dtype=float)[None])[0]


def _edges(points):
    """Edges and cross matrix of one configuration, as a stack of one."""
    return oracle._cross_rows(np.asarray(points, dtype=float)[None])


def _jacobian(points):
    return oracle._jacobian_rows(_edges(points)[0])[0]


def _tangent_basis(points):
    """Orthonormal basis of the constraint tangent space (columns): the rows
    of V^T past the 2 singular values."""
    return np.linalg.svd(_jacobian(points), full_matrices=True)[2][2:].T


def _projected_hessian(points, lam, basis):
    lagrangian = oracle._lagrangian_rows(*_edges(points), np.asarray(lam, dtype=float)[None])
    return oracle._projected_rows(lagrangian, basis[None])[0]


def _inertia(matrix):
    return tuple(oracle._inertia_rows(np.asarray(matrix, dtype=float)[None])[0].tolist())


def _verdict(points):
    """The verdict of one regular configuration: ``(multipliers, residual,
    inertia, det_sign)``, the inertia a tuple."""
    multipliers, residual, inertia, det_sign, errors = oracle._verdict_rows(
        np.asarray(points, dtype=float)[None])
    assert errors.tolist() == [None]
    return multipliers[0], float(residual[0]), tuple(inertia[0].tolist()), int(det_sign[0])


def _multipliers(points):
    return _verdict(points)[0]


def test_area_gradient_square_entry():
    pts, _, _ = regular_polygon_points(4)
    grad = _gradient(pts)
    phi = edge_angles(pts)
    # dA/dphi_2 = 1/2 [l_1 l_2 cos(phi_2 - phi_1) - sum_{j>2} l_2 l_j cos(phi_j - phi_2)]
    expected = 0.5 * (math.cos(phi[1] - phi[0]) - math.cos(phi[2] - phi[1])
                      - math.cos(phi[3] - phi[1]))
    assert grad[0] == pytest.approx(expected, abs=1e-15)
    assert grad[0] == pytest.approx(0.5, abs=1e-12)


def test_area_gradient_matches_finite_differences():
    rng = np.random.default_rng(2)
    for _ in range(10):
        linkage, config = random_valid_configuration(rng, int(rng.integers(4, 8)))
        pts = config.points
        grad = _gradient(pts)
        phi = edge_angles(pts)
        assert chart_area(linkage.lengths, phi) == pytest.approx(signed_area(pts), abs=1e-12)
        fd = np.empty_like(grad)
        h = 1e-6
        for j in range(grad.size):
            step = np.zeros_like(grad)
            step[j] = h
            fd[j] = (chart_area(linkage.lengths, _with_free(phi, phi[1:] + step))
                     - chart_area(linkage.lengths, _with_free(phi, phi[1:] - step))) / (2 * h)
        assert np.max(np.abs(fd - grad)) <= 1e-8 * max(1.0, float(np.linalg.norm(grad)))


def test_area_gradient_rotation_identity():
    # turning every edge by one angle leaves the area as it is, so the free
    # components sum to minus the pinned one, dA/dphi_1 = l_1^2 / 2
    rng = np.random.default_rng(4)
    for n in (4, 5, 7):
        for _ in range(5):
            linkage, config = random_valid_configuration(rng, n)
            grad = _gradient(config.points)
            assert grad.sum() == pytest.approx(-0.5 * linkage.lengths[0] ** 2, abs=1e-12)


def test_constraint_jacobian_shape_and_fd():
    rng = np.random.default_rng(6)
    linkage, config = random_valid_configuration(rng, 5)
    jac = _jacobian(config.points)
    assert jac.shape == (2, 4)
    phi = edge_angles(config.points)
    h = 1e-6
    for j in range(jac.shape[1]):
        step = np.zeros(phi.size - 1)
        step[j] = h
        col = (closure_values(linkage.lengths, _with_free(phi, phi[1:] + step))
               - closure_values(linkage.lengths, _with_free(phi, phi[1:] - step))) / (2 * h)
        assert col == pytest.approx(jac[:, j], abs=1e-7)


def test_constraint_jacobian_square_rank():
    pts, _, _ = regular_polygon_points(4)
    jac = _jacobian(pts)
    assert jac.shape == (2, 3)
    assert np.linalg.matrix_rank(jac) == 2


def test_collinear_configuration_is_singular():
    # flat folded square: all vertices on the pinned axis
    pts = np.array([(0.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.0, 1.0)])
    multipliers, residual, inertia, det_sign, errors = oracle._verdict_rows(pts[None])
    assert errors.dtype == object
    assert errors.tolist() == ["constraint Jacobian rank deficient (sigma_min/sigma_max = "
                               "0.000e+00)"]
    # a refused row holds no verdict
    assert np.isnan(multipliers).all() and np.isnan(residual).all()
    assert inertia.tolist() == [[0, 0, 0]] and det_sign.tolist() == [0]


def test_enumerated_configurations_are_critical():
    _, residual, _, _, errors = oracle._verdict_rows(enumerate_cyclic(Linkage([1] * 5)).points)
    assert errors.dtype == object and errors.tolist() == [None] * 14
    assert np.all(residual < 1e-8)


def test_multipliers_are_the_center_turned_a_quarter(random_tables):
    # on a circle about c, e_k . (p_k + p_{k+1}) / 2 = e_k . c, so
    # dA/dphi_k = e_k . (c - p_1) = lambda . (-e_k,y, e_k,x) with
    # lambda = (-c_y, c_x), as p_1 = 0
    for linkage, table in random_tables:
        live = ~table.flagged
        assert all(error is None for error in table.oracle_error[live])
        c = table.center[live]
        gap = np.abs(table.multipliers[live] - np.stack([-c[:, 1], c[:, 0]], axis=1)).max(axis=1)
        assert np.all(gap <= 1e-12 * np.maximum(1.0, np.hypot(c[:, 0], c[:, 1]))), linkage.n


def _hexagon_family_point():
    """E = (+,+,+,-,-,-) on the equilateral hexagon closes with k = 0 on
    every circle, since sum eps_i alpha_i = 0 whatever r is: the critical
    points form a curve, along which the projected Hessian has a zero
    eigenvalue.  Its point on the circle of radius 1.5."""
    eps, radius = np.array([1, 1, 1, -1, -1, -1]), 1.5
    theta = np.concatenate([[0.0], np.cumsum(2.0 * eps * math.asin(0.5 / radius))[:-1]])
    return pin_points(radius * np.stack([np.cos(theta), np.sin(theta)], axis=1))


def test_critical_family_point_has_a_zero_eigenvalue():
    _, residual, inertia, det_sign = _verdict(_hexagon_family_point())
    assert residual < 1e-12
    assert inertia == (1, 1, 1)
    assert det_sign == 0


def test_random_configurations_are_not_critical():
    rng = np.random.default_rng(8)
    for _ in range(10):
        linkage, config = random_valid_configuration(rng, 5)
        assert _verdict(config.points)[1] > 1e-2


def test_triangle_residual_zero_dimensional():
    pts, _, _ = regular_polygon_points(3)
    assert _verdict(pts)[1] < 1e-12


def test_projected_hessian_shapes():
    rng = np.random.default_rng(10)
    for n, dim in ((4, 1), (5, 2), (6, 3)):
        linkage = random_linkage(rng, n)
        item = enumerate_cyclic(linkage)[0]
        pts = item.configuration.points
        lam = _multipliers(pts)
        proj = _projected_hessian(pts, lam, _tangent_basis(pts))
        assert proj.shape == (dim, dim)
        assert proj == pytest.approx(proj.T, abs=1e-12)


def _retract(lengths, phi, max_iter=40):
    """Gauss-Newton projection of the free angles back onto the closure, by
    least-norm steps, which are normal to the constraint tangent space."""
    phi = np.asarray(phi, dtype=float).copy()
    for _ in range(max_iter):
        vals = closure_values(lengths, phi)
        if np.max(np.abs(vals)) < 1e-13:
            break
        jac = lengths[1:] * np.stack([-np.sin(phi[1:]), np.cos(phi[1:])])
        step, *_ = np.linalg.lstsq(jac, vals, rcond=None)
        phi[1:] -= step
    return phi


def test_projected_hessian_matches_second_differences():
    rng = np.random.default_rng(12)
    linkage = random_linkage(rng, 5)
    item = enumerate_cyclic(linkage)[0]
    config = item.configuration
    lam = _multipliers(config.points)
    basis = _tangent_basis(config.points)
    proj = _projected_hessian(config.points, lam, basis)
    phi = edge_angles(config.points)
    h = 1e-4
    a0 = signed_area(config.points)
    for col in range(basis.shape[1]):
        v = basis[:, col]
        plus = _retract(linkage.lengths, _with_free(phi, phi[1:] + h * v))
        minus = _retract(linkage.lengths, _with_free(phi, phi[1:] - h * v))
        second = (signed_area(chain_points(linkage.lengths, plus)) - 2.0 * a0
                  + signed_area(chain_points(linkage.lengths, minus))) / (h * h)
        expected = float(proj[col, col])  # v is basis column col in the free angles
        assert abs(second - expected) < 5e-2 * max(1.0, abs(expected))


def test_inertia_small_matrices():
    assert _inertia(np.diag([-1.0, 2.0])) == (1, 0, 1)
    assert _inertia(np.zeros((2, 2))) == (0, 2, 0)
    assert _inertia(np.array([[-3.0]])) == (1, 0, 0)


def test_oracle_index_regular_pentagon_family():
    pts, center, radius = regular_polygon_points(5)
    _, residual, inertia, det_sign = _verdict(pts)
    assert inertia == (2, 0, 0)  # index 2
    assert det_sign == 1
    assert residual < 1e-10

    anti, center_a, radius_a = regular_polygon_points(5, ccw=False)
    _, _, inertia_anti, det_sign_anti = _verdict(anti)
    assert inertia_anti[0] == 0
    assert det_sign_anti == 1


def test_oracle_index_convex_quadrilateral():
    rng = np.random.default_rng(14)
    linkage = random_linkage(rng, 4)
    items = enumerate_cyclic(linkage)
    best = max(items, key=lambda it: signed_area(it.configuration.points))
    _, _, inertia, det_sign = _verdict(best.configuration.points)
    assert inertia[0] == 1
    assert det_sign == -1


def test_oracle_verdict_invariants():
    rng = np.random.default_rng(16)
    for n in (4, 5, 6):
        linkage = random_linkage(rng, n)
        _, _, inertia, det_sign, errors = oracle._verdict_rows(enumerate_cyclic(linkage).points)
        assert errors.dtype == object and errors.tolist() == [None] * len(errors)
        assert np.all(inertia.sum(axis=1) == n - 3)
        morse = inertia[:, 1] == 0
        assert np.array_equal(det_sign[morse], (-1) ** inertia[morse, 0])


def test_inertia_invariant_under_basis_rotation():
    rng = np.random.default_rng(18)
    linkage = random_linkage(rng, 6)
    item = enumerate_cyclic(linkage)[0]
    pts = item.configuration.points
    lam = _multipliers(pts)
    basis = _tangent_basis(pts)
    q, _ = np.linalg.qr(rng.normal(size=(basis.shape[1], basis.shape[1])))
    shuffled = _projected_hessian(pts, lam, basis @ q)
    reference = _projected_hessian(pts, lam, basis)
    assert _inertia(shuffled) == _inertia(reference)


def _dense_lagrangian(lengths, phi, lam):
    """The Lagrangian Hessian over the free angles as a sum of dense n x n
    matrices, from the angles: each term ``1/2 l_i l_j sin(phi_j - phi_i)``
    of the area, minus lambda times the closure's, whose k-th diagonal entry
    is ``-l_k (cos phi_k, sin phi_k)``; then the pinned angle's row and
    column dropped."""
    n = len(phi)
    hess = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            s = 0.5 * lengths[i] * lengths[j] * math.sin(phi[j] - phi[i])
            term = np.zeros((n, n))
            term[i, i] = term[j, j] = -s
            term[i, j] = term[j, i] = s
            hess += term
    for k in range(n):
        hess[k, k] += lengths[k] * (lam[0] * math.cos(phi[k]) + lam[1] * math.sin(phi[k]))
    return hess[1:, 1:]


def test_direct_lagrangian_matches_dense_sum():
    rng = np.random.default_rng(20)
    for n in range(4, 9):
        linkage = random_linkage(rng, n)
        for item in enumerate_cyclic(linkage)[:6]:
            pts = item.configuration.points
            lam = _multipliers(pts)
            direct = _projected_hessian(pts, lam, np.eye(n - 1))
            dense = _dense_lagrangian(linkage.lengths, edge_angles(pts), lam)
            assert np.abs(direct - dense).max() <= 1e-12 * np.abs(dense).max()


def _forbid(monkeypatch, *names):
    """Make each named ``np.linalg`` function raise when called."""
    for name in names:
        def refuse(*args, name=name, **kwargs):
            raise AssertionError(f"np.linalg.{name} called")
        monkeypatch.setattr(np.linalg, name, refuse)


def test_generic_stack_calls_no_svd_or_eigvalsh(monkeypatch):
    rng = np.random.default_rng(22)
    pts = np.concatenate([enumerate_cyclic(random_linkage(rng, n)).points for n in (6, 6, 6)])
    expected = oracle._verdict_rows(pts)
    # the multipliers come from the 2 x 2 normal equations, the inertia from
    # the pivots: no SVD, no eigenvalues, no least-squares solver
    _forbid(monkeypatch, "svd", "eigvalsh", "eigh", "lstsq")
    verdict = oracle._verdict_rows(pts)
    for column, reference in zip(verdict, expected):
        assert column.tolist() == reference.tolist()
    edges, cross = oracle._cross_rows(pts)
    det, _ = oracle._regular_rows(edges, cross)
    lam, residual = oracle._stationarity_rows(pts, oracle._jacobian_rows(edges), det)
    assert np.array_equal(residual, verdict[1])
    assert np.array_equal(lam, verdict[0])


def test_zero_eigenvalue_row_alone_takes_the_reference_path(monkeypatch):
    rng = np.random.default_rng(24)
    generic = enumerate_cyclic(random_linkage(rng, 6)).points
    middle = len(generic) // 2
    pts = np.concatenate([generic[:middle], _hexagon_family_point()[None], generic[middle:]])
    seen = []
    svd, eigvalsh = np.linalg.svd, np.linalg.eigvalsh

    def counting_svd(a, *args, **kwargs):
        seen.append(("svd", a.shape[0]))
        return svd(a, *args, **kwargs)

    def counting_eigvalsh(a, *args, **kwargs):
        seen.append(("eigvalsh", a.shape[0]))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    _, _, inertia, det_sign, errors = oracle._verdict_rows(pts)
    # only the family point is not certified by the pivots
    assert seen == [("svd", 1), ("eigvalsh", 1)]
    assert errors.tolist() == [None] * len(pts)
    assert inertia[middle].tolist() == [1, 1, 1] and det_sign[middle] == 0
    _, _, alone, alone_sign, _ = oracle._verdict_rows(generic)
    assert np.array_equal(np.delete(inertia, middle, axis=0), alone)
    assert np.array_equal(np.delete(det_sign, middle), alone_sign)


@pytest.mark.parametrize("n", [5, 6])
def test_equilateral_rows_on_the_reference_path(n):
    # the equilateral polygons' symmetric configurations give exactly zero
    # pivots, so some of their rows need the reference path; the verdict is
    # that of the reference on every row
    pts = enumerate_cyclic(Linkage([1] * n)).points
    edges, cross = oracle._cross_rows(pts)
    det, _ = oracle._regular_rows(edges, cross)
    jac = oracle._jacobian_rows(edges)
    lam, _ = oracle._stationarity_rows(pts, jac, det)
    lagrangian = oracle._lagrangian_rows(edges, cross, lam)
    _, certified = oracle._ldl_rows(*oracle._tangent_rows(cross, lagrangian))
    assert 0 < (~certified).sum() < len(pts)
    basis = np.linalg.svd(jac, full_matrices=True)[2][:, 2:].transpose(0, 2, 1)
    reference = oracle._inertia_rows(oracle._projected_rows(lagrangian, basis))
    assert np.array_equal(oracle._verdict_rows(pts)[2], reference)


@pytest.mark.parametrize("n", [3, 4, 7])
def test_empty_and_all_refused_stacks(n):
    multipliers, residual, inertia, det_sign, errors = oracle._verdict_rows(np.zeros((0, n, 2)))
    assert multipliers.shape == (0, 2) and residual.shape == (0,) and inertia.shape == (0, 3)
    assert det_sign.shape == (0,) and errors.tolist() == []
    flat = np.zeros((3, n, 2))
    flat[:, 1::2, 1] = 1.0
    multipliers, residual, inertia, det_sign, errors = oracle._verdict_rows(flat)
    assert all(error.startswith("constraint Jacobian rank deficient") for error in errors)
    assert np.isnan(multipliers).all() and np.isnan(residual).all()
    assert not inertia.any() and not det_sign.any()
