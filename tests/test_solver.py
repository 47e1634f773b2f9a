"""Radius root finding, reconstruction, and enumeration."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import random_linkage
from linkmorse import (
    CyclicConfiguration,
    CyclicDescriptor,
    Linkage,
    edge_lengths,
    edge_orientations,
    enumerate_cyclic,
    f_derivative,
    f_value,
    fit_circle,
    measure_half_angles,
    reconstruct,
    signed_area,
    solve_radii,
    validate_configuration,
)
from linkmorse.solver import (
    RESIDUAL_TOL,
    ROOT_RTOL,
    _angle_tables,
    _feasible_windings,
    _merge_radii,
    _radius_grid,
    degeneracy_flags,
    delta_at_radius,
)
from linkmorse.errors import (
    CentralConfigurationError,
    InconsistentDescriptorError,
    SolverDomainError,
)

SQUARE_L = Linkage([1, 1, 1, 1])
PENTA_L = Linkage([1, 1, 1, 1, 1])
ALL_PLUS4 = (1, 1, 1, 1)
ALL_PLUS5 = (1, 1, 1, 1, 1)

R_SQUARE = math.sqrt(2) / 2
R_PENTAGON = 1.0 / (2.0 * math.sin(math.pi / 5))
R_PENTAGRAM = 1.0 / (2.0 * math.sin(2 * math.pi / 5))


def test_f_value_square_root():
    assert f_value(SQUARE_L, ALL_PLUS4, 1, R_SQUARE) == pytest.approx(0.0, abs=1e-12)


def test_f_value_regular_pentagon_root():
    assert f_value(PENTA_L, ALL_PLUS5, 1, R_PENTAGON) == pytest.approx(0.0, abs=1e-12)


def test_f_value_asymptotic_limit():
    value = f_value(SQUARE_L, ALL_PLUS4, 2, 1e6)
    assert value == pytest.approx(-2 * math.pi, abs=1e-5)


def test_f_value_domain_error():
    with pytest.raises(SolverDomainError):
        f_value(SQUARE_L, ALL_PLUS4, 1, 0.49)


def test_f_derivative_square_value():
    # closed form -delta/r = -4 / (sqrt(2)/2) = -4 sqrt(2), frozen from the
    # finite-difference check below
    assert f_derivative(SQUARE_L, ALL_PLUS4, R_SQUARE) == pytest.approx(-4 * math.sqrt(2), abs=1e-12)


def test_f_derivative_matches_finite_difference():
    h = 1e-6
    fd = (f_value(SQUARE_L, ALL_PLUS4, 1, R_SQUARE + h)
          - f_value(SQUARE_L, ALL_PLUS4, 1, R_SQUARE - h)) / (2 * h)
    assert f_derivative(SQUARE_L, ALL_PLUS4, R_SQUARE) == pytest.approx(fd, abs=1e-6)


def test_f_derivative_vanishes_at_infinity():
    value = f_derivative(SQUARE_L, ALL_PLUS4, 1e9)
    assert -1e-8 < value < 0.0


def test_f_derivative_zero_for_balanced_signs():
    # eps = (+,-,+,-) on equal lengths cancels delta identically
    assert f_derivative(SQUARE_L, (1, -1, 1, -1), 1.0) == 0.0


def test_solve_radii_square():
    roots = solve_radii(SQUARE_L, ALL_PLUS4, 1)
    assert len(roots) == 1
    r, flags = roots[0]
    assert r == pytest.approx(R_SQUARE, rel=1e-12)
    assert not flags.any


def test_solve_radii_pentagram():
    roots = solve_radii(PENTA_L, ALL_PLUS5, 2)
    assert len(roots) == 1
    assert roots[0][0] == pytest.approx(R_PENTAGRAM, rel=1e-12)
    assert roots[0][0] == pytest.approx(0.5257311121191336, rel=1e-9)


def test_solve_radii_square_winding_two_empty():
    assert solve_radii(SQUARE_L, ALL_PLUS4, 2) == []


def test_solve_radii_identically_zero_family():
    # equal lengths with balanced signs and k = 0: F vanishes identically,
    # there is no isolated root to report
    assert solve_radii(SQUARE_L, (1, 1, -1, -1), 0) == []


def test_solve_radii_obtuse_triangle_circumradius():
    # center lies right of the long edge, winding 0; cross-check r = abc/(4K)
    lengths = np.array([1.9, 1.0, 1.0])
    linkage = Linkage(lengths)
    a, b, c = lengths
    s = 0.5 * (a + b + c)
    area = math.sqrt(s * (s - a) * (s - b) * (s - c))
    expected = a * b * c / (4.0 * area)
    roots = solve_radii(linkage, (-1, 1, 1), 0)
    assert len(roots) == 1
    assert roots[0][0] == pytest.approx(expected, rel=1e-12)


def test_degeneracy_flags_detect_each_kind():
    from linkmorse import degeneracy_flags

    # balanced signs on equal lengths: delta vanishes at every radius
    flags = degeneracy_flags(SQUARE_L, (1, -1, 1, -1), 1.0)
    assert flags.delta_zero and flags.any
    # radius a hair above the minimum: the longest edge is nearly a diameter
    flags = degeneracy_flags(SQUARE_L, ALL_PLUS4, 0.5 * (1 + 1e-9))
    assert flags.central == (True, True, True, True)
    # enormous radius: every half-angle collapses toward a flip
    flags = degeneracy_flags(SQUARE_L, ALL_PLUS4, 1e8)
    assert all(flags.near_flip)
    # a generic root carries no flags
    flags = degeneracy_flags(SQUARE_L, ALL_PLUS4, R_SQUARE)
    assert not flags.any


def test_reconstruct_unit_square():
    desc = CyclicDescriptor.from_radius(SQUARE_L, ALL_PLUS4, 1, R_SQUARE)
    config = reconstruct(SQUARE_L, desc)
    expected = [(0, 0), (0, 1), (-1, 1), (-1, 0)]
    assert config.points == pytest.approx(np.asarray(expected, dtype=float), abs=1e-12)
    assert desc.center == pytest.approx([-0.5, 0.5], abs=1e-12)
    assert config.points[0] @ config.points[0] == 0.0  # pinning is exact
    assert config.points[1, 0] == 0.0 and config.points[1, 1] == 1.0


def test_reconstruct_regular_pentagon_area():
    desc = CyclicDescriptor.from_radius(PENTA_L, ALL_PLUS5, 1, R_PENTAGON)
    config = reconstruct(PENTA_L, desc)
    expected = 1.25 * math.tan(math.radians(54.0))  # regular unit pentagon
    assert signed_area(config.points) == pytest.approx(expected, abs=1e-9)


def test_reconstruct_mirror_negates_area():
    desc = CyclicDescriptor.from_radius(PENTA_L, ALL_PLUS5, 1, R_PENTAGON)
    mirror = desc.mirrored()
    config = reconstruct(PENTA_L, desc)
    mirrored = reconstruct(PENTA_L, mirror)
    assert mirrored.points == pytest.approx(config.points * np.array([-1.0, 1.0]), abs=1e-12)
    assert signed_area(mirrored.points) == pytest.approx(-signed_area(config.points), abs=1e-12)


def test_reconstruct_rejects_broken_closure():
    desc = CyclicDescriptor.from_radius(SQUARE_L, ALL_PLUS4, 1, R_SQUARE)
    bad = CyclicDescriptor(radius=desc.radius, winding=2, eps=desc.eps,
                           alphas=desc.alphas, center=desc.center)
    with pytest.raises(InconsistentDescriptorError):
        reconstruct(SQUARE_L, bad)


def test_enumerate_equilateral_pentagon_count():
    items = enumerate_cyclic(PENTA_L)
    assert len(items) == 14


def test_enumerate_equilateral_triangle():
    items = enumerate_cyclic(Linkage([1, 1, 1]))
    assert len(items) == 2
    areas = sorted(signed_area(item.configuration.points) for item in items)
    assert areas[0] == pytest.approx(-math.sqrt(3) / 4, abs=1e-12)
    assert areas[1] == pytest.approx(math.sqrt(3) / 4, abs=1e-12)


def test_enumerate_obtuse_triangle():
    items = enumerate_cyclic(Linkage([1.9, 1.0, 1.0]))
    assert len(items) == 2
    assert sorted(item.descriptor.winding for item in items) == [0, 0]


def test_enumerate_3112_quadrilateral():
    # connected moduli space: exactly two cyclic configurations (the convex
    # pair), both with winding 0 since the center falls outside
    items = enumerate_cyclic(Linkage([3, 1, 1, 2]))
    assert len(items) == 2
    assert sorted(item.descriptor.winding for item in items) == [0, 0]


def test_enumerate_quadrilateral_dichotomy_smoke():
    rng = np.random.default_rng(5)
    for _ in range(5):
        linkage = random_linkage(rng, 4)
        items = enumerate_cyclic(linkage)
        assert len(items) in (2, 4)


def test_enumeration_round_trip_properties():
    rng = np.random.default_rng(9)
    for n in (4, 5, 6):
        linkage = random_linkage(rng, n)
        items = enumerate_cyclic(linkage)
        assert items
        for item in items:
            desc, config = item.descriptor, item.configuration
            # validation accepts every reconstruction
            assert validate_configuration(linkage, config.points, tol=1e-9) == []
            # circle fit recovers the descriptor circle
            fit = fit_circle(config.points, tol=1e-7)
            assert fit is not None
            assert fit.radius == pytest.approx(desc.radius, rel=1e-9)
            assert fit.center == pytest.approx(desc.center, abs=1e-9 * desc.radius)
            # half-angles and orientations reproduce the descriptor
            alphas = measure_half_angles(config.points, fit)
            assert alphas == pytest.approx(desc.alphas, abs=1e-9)
            assert edge_orientations(config.points, desc.center).eps == desc.eps.eps
            # every edge length is realized, including the closing edge
            assert edge_lengths(config.points) == pytest.approx(
                linkage.lengths, rel=1e-9)


def test_enumeration_mirror_pairing():
    rng = np.random.default_rng(21)
    for n in (4, 5):
        linkage = random_linkage(rng, n)
        items = enumerate_cyclic(linkage)
        table = {(item.descriptor.eps.eps, item.descriptor.winding): item for item in items}
        for (eps, k), item in table.items():
            mirror_key = (tuple(-v for v in eps), -k)
            assert mirror_key in table
            partner = table[mirror_key]
            assert signed_area(partner.configuration.points) == pytest.approx(
                -signed_area(item.configuration.points), rel=1e-9)


def test_enumeration_closure_defects_small():
    rng = np.random.default_rng(33)
    linkage = random_linkage(rng, 6)
    for item in enumerate_cyclic(linkage):
        defect = item.descriptor.closure_defect()
        assert defect * item.descriptor.radius < 1e-9 * linkage.perimeter


def _orientation_consistent(config, desc, flags):
    """The orientation filter the enumeration used to apply: the rebuilt
    vertices must reproduce the descriptor's string, central edges exempt."""
    try:
        geo = edge_orientations(config.points, desc.center)
    except CentralConfigurationError as err:
        return flags.central[err.index - 1] if err.index else False
    return all(g == d or c for g, d, c in zip(geo.eps, desc.eps.eps, flags.central))


def _reference_enumerate(linkage):
    """The full 2^n scan, one (E, k) pair at a time, with the orientation
    filter and pairwise dedup: the reference the half scan with mirror reuse,
    no filter and no dedup must reproduce bit for bit."""
    grid = _radius_grid(linkage)
    alphas_tab, tangents_tab = _angle_tables(linkage, grid)
    xtol, rtol = linkage.min_radius * 1e-15, max(ROOT_RTOL, 4.0 * np.finfo(float).eps)

    def roots(values, func):
        signs = np.sign(values)
        found = [float(grid[i]) for i in np.nonzero(signs == 0.0)[0]
                 if (i == 0 or signs[i - 1] != 0.0) and (i == len(signs) - 1 or signs[i + 1] != 0.0)]
        found.extend(float(brentq(func, grid[i], grid[i + 1], xtol=xtol, rtol=rtol))
                     for i in np.nonzero(signs[:-1] * signs[1:] < 0.0)[0])
        return found

    items = []
    for eps in itertools.product((1, -1), repeat=linkage.n):
        e_arr = np.array(eps, dtype=float)
        d_vals = tangents_tab @ e_arr
        d_vals = np.where(np.isfinite(d_vals), d_vals, e_arr[int(np.argmax(linkage.lengths))] * 1e300)
        extrema = roots(d_vals, lambda r: delta_at_radius(linkage, eps, r))
        for k in _feasible_windings(linkage.n, sum(v > 0 for v in eps)):
            radii = roots(alphas_tab @ e_arr - math.pi * k, lambda r: f_value(linkage, eps, k, r))
            radii.extend(r for r in extrema if abs(f_value(linkage, eps, k, r)) <= RESIDUAL_TOL)
            for r in _merge_radii(radii):
                flags = degeneracy_flags(linkage, eps, r)
                desc = CyclicDescriptor.from_radius(linkage, eps, k, r)
                config = reconstruct(linkage, desc)
                if _orientation_consistent(config, desc, flags):
                    items.append(CyclicConfiguration(desc, config, flags))
    items.sort(key=lambda it: (it.descriptor.winding, it.descriptor.eps.eps, it.descriptor.radius))
    unique = []
    for item in items:
        if not any(np.max(np.abs(other.configuration.points - item.configuration.points))
                   < 1e-8 * linkage.perimeter for other in unique):
            unique.append(item)
    return unique


def _exact_key(item):
    desc = item.descriptor
    return (desc.radius, desc.winding, desc.eps.eps, item.configuration.points.tobytes(), item.flags)


def _exact_fixtures():
    yield from (pytest.param(Linkage([1] * n), id=f"equilateral_{n}") for n in (4, 5, 6))
    yield pytest.param(Linkage([3, 1, 1, 2]), id="quad_3112")
    yield pytest.param(Linkage([1, 2, 1.5, 2.5 - 1e-8]), id="quad_wall_1e-8")
    yield pytest.param(Linkage([1, 2, 1.5, 2.5 - 1e-6]), id="quad_wall_1e-6")
    rng = np.random.default_rng(41)
    yield from (pytest.param(random_linkage(rng, n), id=f"random_{n}") for n in (6, 7, 8, 9))


@pytest.mark.parametrize("linkage", list(_exact_fixtures()))
def test_enumeration_matches_full_scan_exactly(linkage):
    expected = [_exact_key(item) for item in _reference_enumerate(linkage)]
    assert expected
    assert [_exact_key(item) for item in enumerate_cyclic(linkage)] == expected


def test_solve_radii_mirror_is_exact():
    rng = np.random.default_rng(17)
    found = 0
    for n in (4, 5, 6):
        linkage = random_linkage(rng, n)
        for tail in itertools.product((1, -1), repeat=n - 1):
            eps = (1,) + tail
            mirror = tuple(-v for v in eps)
            for k in _feasible_windings(n, sum(v > 0 for v in eps)):
                radii = [r for r, _ in solve_radii(linkage, eps, k)]
                assert radii == [r for r, _ in solve_radii(linkage, mirror, -k)]
                found += len(radii)
    assert found > 0
