"""Root finding in the largest half-angle, reconstruction, and enumeration."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from conftest import constraint_violations, edge_lengths, random_linkage, root_row
from linkmorse import (
    CyclicDescriptor,
    DegeneracyFlags,
    Linkage,
    analyze_linkage,
    enumerate_cyclic,
    fit_circle,
    signed_area,
)
from linkmorse import solver
from linkmorse.geometry import _half_angle_rows, _orientation_rows
from linkmorse.solver import MAX_EDGES, _closure_defects, _flag_rows
from linkmorse.errors import InconsistentDescriptorError, InvalidLinkageError

SQUARE_L = Linkage([1, 1, 1, 1])
PENTA_L = Linkage([1, 1, 1, 1, 1])
ALL_PLUS4 = (1, 1, 1, 1)
ALL_PLUS5 = (1, 1, 1, 1, 1)

R_SQUARE = math.sqrt(2) / 2
R_PENTAGRAM = 1.0 / (2.0 * math.sin(2 * math.pi / 5))

# theta = arcsin(r_min / r), the half-angle of the longest edge
THETA_SQUARE = math.pi / 4
THETA_PENTAGON = math.pi / 5

QUAD_WALL_8 = [1, 2, 1.5, 2.5 - 1e-8]
QUAD_WALL_6 = [1, 2, 1.5, 2.5 - 1e-6]
# generic (b = (1, 4, 1)); two of its roots lie within 1.3e-12 relative of r_min
PENTAGON_NEAR_RMIN = [0.7573611128687527, 1.2164402726063217, 0.6733244298490622,
                      1.6753095409833882, 1.082692365727465]


def _windings(n, eps):
    """``range`` arguments over the windings a string admits: with e entries
    +1 and every half-angle in (0, pi/2), its closure sum lies strictly
    inside (-(n - e) pi/2, e pi/2), so -(n - e) < 2k < e."""
    e = sum(v > 0 for v in eps)
    return -(n - e) // 2 + 1, (e + 1) // 2


def _radii(linkage, eps, k):
    """All radii solving F = 0 for one (E, k) pair, ascending, from the scan
    of that string alone."""
    _, ks, thetas = solver._scan(linkage, np.array([eps], dtype=float))
    return (linkage.min_radius / np.sin(thetas[ks == k][::-1])).tolist()


def _items(linkage, eps, k):
    """The enumerated configurations with orientation string eps and winding k."""
    return [it for it in enumerate_cyclic(linkage)
            if it.descriptor.eps.eps == eps and it.descriptor.winding == k]


def _scan_row(linkage, eps, k, theta, delta):
    """The scan's ``solver._scan_rows`` on one row."""
    return float(solver._scan_rows(np.array([theta]), solver._ratios(linkage),
                                   np.array([eps], dtype=float), np.array([k]),
                                   np.array([delta]))[0])


def _closure(linkage, eps, k, theta):
    """``F = sum_i eps_i alpha_i(theta) - pi k`` of one string, winding and
    angle, by the scan's row kernel."""
    return _scan_row(linkage, eps, k, theta, False)


def _delta(linkage, eps, theta):
    """``delta = sum_i eps_i tan(alpha_i(theta))`` of one string and angle,
    by the scan's row kernel."""
    return _scan_row(linkage, eps, 0, theta, True)


def test_f_value_square_root():
    assert _closure(SQUARE_L, ALL_PLUS4, 1, THETA_SQUARE) == pytest.approx(0.0, abs=1e-12)


def test_f_value_regular_pentagon_root():
    assert _closure(PENTA_L, ALL_PLUS5, 1, THETA_PENTAGON) == pytest.approx(0.0, abs=1e-12)


def test_f_value_asymptotic_limit():
    # theta -> 0 is r -> inf, where every half-angle vanishes
    assert _closure(SQUARE_L, ALL_PLUS4, 2, 1e-6) == pytest.approx(-2 * math.pi, abs=1e-5)
    assert _closure(SQUARE_L, ALL_PLUS4, 2, 1e-200) == -2 * math.pi
    assert _closure(Linkage([3, 1, 1, 2]), (1, -1, 1, -1), 0, 1e-200) > 0.0


def test_f_derivative_matches_finite_difference():
    # dF/dtheta = cot(theta) * delta, with delta = sum eps_i tan(alpha_i)
    rng = np.random.default_rng(3)
    cases = [(SQUARE_L, ALL_PLUS4), (SQUARE_L, (1, -1, 1, -1)),
             (random_linkage(rng, 6), (1, -1, 1, 1, -1, 1)),
             (Linkage(PENTAGON_NEAR_RMIN), (1, 1, -1, 1, -1))]
    h = 1e-6
    for linkage, eps in cases:
        for theta in (0.01, 0.4, 1.0, 1.5):
            fd = (_closure(linkage, eps, 0, theta + h) - _closure(linkage, eps, 0, theta - h)) / (2 * h)
            assert fd == pytest.approx(_delta(linkage, eps, theta) / math.tan(theta),
                                       rel=1e-7, abs=1e-8)


def test_f_derivative_square_value():
    # every half-angle is pi/4, so delta = 4 and dF/dtheta = cot(pi/4) * 4 = 4;
    # with dtheta/dr = -tan(theta)/r this is the radius derivative -delta/r = -4 sqrt(2)
    delta = _delta(SQUARE_L, ALL_PLUS4, THETA_SQUARE)
    assert delta == pytest.approx(4.0, abs=1e-12)
    assert delta / math.tan(THETA_SQUARE) == pytest.approx(4.0, abs=1e-12)
    assert -delta / R_SQUARE == pytest.approx(-4 * math.sqrt(2), abs=1e-12)
    h = 1e-6
    fd = (_closure(SQUARE_L, ALL_PLUS4, 1, THETA_SQUARE + h)
          - _closure(SQUARE_L, ALL_PLUS4, 1, THETA_SQUARE - h)) / (2 * h)
    assert fd == pytest.approx(4.0, abs=1e-6)


def test_f_derivative_vanishes_at_infinity():
    # as theta -> 0 (r -> inf) dF/dtheta tends to sum(eps_i l_i) / l_max = 4,
    # so the radius derivative -delta/r vanishes from below
    for theta in (math.asin(0.5 / 1e9), 1e-200):
        delta = _delta(SQUARE_L, ALL_PLUS4, theta)
        assert delta / math.tan(theta) == pytest.approx(4.0, rel=1e-12)
    theta = math.asin(0.5 / 1e9)
    value = -_delta(SQUARE_L, ALL_PLUS4, theta) / (0.5 / math.sin(theta))
    assert -1e-8 < value < 0.0


def test_f_derivative_zero_for_balanced_signs():
    # eps = (+,-,+,-) on equal lengths cancels delta identically, and F is flat
    for theta in (1e-200, 0.01, 0.7, math.pi / 2):
        assert _delta(SQUARE_L, (1, -1, 1, -1), theta) == 0.0
    assert _closure(SQUARE_L, (1, -1, 1, -1), 0, 0.3) == _closure(SQUARE_L, (1, -1, 1, -1), 0, 1.2)


def test_solve_radii_square():
    (item,) = _items(SQUARE_L, ALL_PLUS4, 1)
    assert item.descriptor.radius == pytest.approx(R_SQUARE, rel=1e-12)
    assert not item.flags.any


def test_solve_radii_pentagram():
    (item,) = _items(PENTA_L, ALL_PLUS5, 2)
    assert item.descriptor.radius == pytest.approx(R_PENTAGRAM, rel=1e-12)
    assert item.descriptor.radius == pytest.approx(0.5257311121191336, rel=1e-9)


def test_solve_radii_square_winding_two_empty():
    assert _radii(SQUARE_L, ALL_PLUS4, 2) == []


def test_solve_radii_identically_zero_family():
    # equal lengths with balanced signs and k = 0: F vanishes identically,
    # which yields no root, and the scan leaves the string out
    assert _radii(SQUARE_L, (1, 1, -1, -1), 0) == []


def test_solve_radii_obtuse_triangle_circumradius():
    # center lies right of the long edge, winding 0; cross-check r = abc/(4K)
    lengths = np.array([1.9, 1.0, 1.0])
    linkage = Linkage(lengths)
    a, b, c = lengths
    s = 0.5 * (a + b + c)
    area = math.sqrt(s * (s - a) * (s - b) * (s - c))
    expected = a * b * c / (4.0 * area)
    (item,) = _items(linkage, (-1, 1, 1), 0)
    assert item.descriptor.radius == pytest.approx(expected, rel=1e-12)


def _flags(eps, alphas) -> DegeneracyFlags:
    """The flags of one string and its half-angles, by ``solver._flag_rows``."""
    central, near_flip, delta_zero = _flag_rows(np.array([eps], dtype=float),
                                                np.asarray(alphas, dtype=float)[None])
    return DegeneracyFlags(central=tuple(central[0].tolist()),
                           near_flip=tuple(near_flip[0].tolist()), delta_zero=bool(delta_zero[0]))


def test_degeneracy_flags_detect_each_kind():
    # balanced signs on equal half-angles: delta vanishes
    flags = _flags((1, -1, 1, -1), np.full(4, 0.3))
    assert flags.delta_zero and flags.any
    # an edge is central when its distance from the center, r cos(alpha), is
    # within DEGENERACY_TOL of r: cos(alpha) = 1e-8 is, 1e-6 is not
    flags = _flags(ALL_PLUS4, np.array([math.acos(1e-8), math.acos(1e-6), 0.3, 0.3]))
    assert flags.central == (True, False, False, False)
    # enormous radius: every half-angle collapses toward a flip
    flags = _flags(ALL_PLUS4, np.full(4, 5e-9))
    assert all(flags.near_flip)
    # delta_zero is relative to sum tan(alpha): two edges one ulp apart near a
    # diameter leave |delta| ~ 2e-4, tiny next to tangents ~ 1e6; the same
    # |delta| among tangents of order 1 is no zero
    a = 0.5 * math.pi - 1e-6
    near_diameter = np.array([a, np.nextafter(a, 0.0), 0.3, 0.3])
    assert abs(np.tan(near_diameter) @ [1, -1, 1, -1]) > 1e-4
    assert _flags((1, -1, 1, -1), near_diameter).delta_zero
    assert not _flags((1, -1, 1, -1), np.array([0.3, 0.3 + 1e-4, 0.5, 0.5])).delta_zero
    # a generic root carries no flags
    flags = _flags(ALL_PLUS4, np.full(4, THETA_SQUARE))
    assert not flags.any


def test_reconstruct_unit_square():
    _, _, center, points = root_row(SQUARE_L, ALL_PLUS4, THETA_SQUARE)
    expected = [(0, 0), (0, 1), (-1, 1), (-1, 0)]
    assert points == pytest.approx(np.asarray(expected, dtype=float), abs=1e-12)
    assert center == pytest.approx([-0.5, 0.5], abs=1e-12)
    assert points[0] @ points[0] == 0.0  # pinning is exact
    assert points[1, 0] == 0.0 and points[1, 1] == 1.0


def test_reconstruct_regular_pentagon_area():
    points = root_row(PENTA_L, ALL_PLUS5, THETA_PENTAGON)[3]
    expected = 1.25 * math.tan(math.radians(54.0))  # regular unit pentagon
    assert signed_area(points) == pytest.approx(expected, abs=1e-9)


def test_reconstruct_mirror_negates_area():
    # the enumeration rebuilds the mirror row (-E, -k) from the reflected
    # center: its vertices are the reflection across the pinned edge
    (item,) = _items(PENTA_L, ALL_PLUS5, 1)
    (mirror,) = _items(PENTA_L, tuple(-v for v in ALL_PLUS5), -1)
    points, mirrored = item.configuration.points, mirror.configuration.points
    assert mirrored == pytest.approx(points * np.array([-1.0, 1.0]), abs=1e-12)
    assert signed_area(mirrored) == pytest.approx(-signed_area(points), abs=1e-12)


def test_reconstruct_rejects_broken_closure(monkeypatch):
    # a root reported with a winding off by one fails the closure check
    # before any vertex is rebuilt
    scan = solver._scan

    def off_by_one(*args):
        rows, ks, thetas = scan(*args)
        return rows, ks + 1, thetas

    monkeypatch.setattr(solver, "_scan", off_by_one)
    with pytest.raises(InconsistentDescriptorError, match="angular closure defect"):
        enumerate_cyclic(SQUARE_L)


def test_descriptor_refuses_non_integral_winding():
    (item,) = _items(SQUARE_L, ALL_PLUS4, 1)
    desc = item.descriptor
    # int() would truncate -1.5 to -1
    with pytest.raises(InconsistentDescriptorError):
        CyclicDescriptor(radius=desc.radius, winding=-1.5, eps=desc.eps,
                         alphas=desc.alphas, center=desc.center)
    assert CyclicDescriptor(radius=desc.radius, winding=1.0, eps=desc.eps,
                            alphas=desc.alphas, center=desc.center).winding == 1


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
            assert constraint_violations(linkage, config.points) == []
            # circle fit recovers the descriptor circle
            fit = fit_circle(config.points)
            assert fit is not None
            assert fit.radius == pytest.approx(desc.radius, rel=1e-9)
            assert fit.center == pytest.approx(desc.center, abs=1e-9 * desc.radius)
            # half-angles and orientations reproduce the descriptor
            alphas, over = _half_angle_rows(config.points[None], fit.center[None],
                                            np.array([fit.radius]))
            assert over == [None]
            assert alphas[0] == pytest.approx(desc.alphas, abs=1e-9)
            sides, central = _orientation_rows(config.points[None], desc.center[None])
            assert central == [None]
            assert tuple(sides[0].tolist()) == desc.eps.eps
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
    table = enumerate_cyclic(linkage)
    defects = _closure_defects(table.eps, table.alphas, table.k)
    assert np.all(defects * table.radius < 1e-9 * linkage.lengths.sum())


def _orientation_consistent(points, center, eps, flags):
    """The orientation filter the enumeration used to apply: the rebuilt
    vertices must reproduce the string, central edges exempt."""
    sides, central = _orientation_rows(points[None], center[None])
    if central[0] is not None:
        # the refusal reads "edge i passes through the circle center"
        return flags.central[int(central[0].split()[1]) - 1]
    return all(g == d or c for g, d, c in zip(sides[0].tolist(), eps, flags.central))


def _radius_scan(linkage):
    """The radius scan the solver ran before it scanned in theta: the full
    2^n strings, one (E, k) pair at a time, refined in r, with the
    orientation filter and the pairwise dedup it used to apply.  Its grid
    merges 4096 radii spaced geometrically with 4096 uniform in the largest
    half-angle and stops at 1e3 r_min; a double root needs |F| <= 1e-9 and
    delta_zero means |delta| < 1e-7, both absolute.  Returns sorted
    ``(k, eps, r, flags)``.  It is right where no root lies beyond the cap
    and no absolute tolerance misjudges a root, which excludes the near-wall
    quadrilaterals."""
    lengths, r_min, tol = linkage.lengths, linkage.min_radius, 1e-7
    lo, hi = r_min * (1.0 + 1e-12), r_min * 1e3
    u = np.linspace(math.asin(r_min / hi), 0.5 * math.pi * (1.0 - 1e-12), 4096)
    grid = np.unique(np.clip(np.concatenate([np.geomspace(lo, hi, 4096), r_min / np.sin(u[::-1])]), lo, hi))

    def ratios(r):
        return np.clip(lengths / (2.0 * np.asarray(r)[..., None]), 0.0, 1.0)

    def closure(e, r):
        return np.arcsin(ratios(r)) @ e

    def delta(e, r):
        x = ratios(r)
        return (x / np.sqrt(1.0 - x * x)) @ e

    def roots(values, func):
        signs = np.sign(values)
        found = [float(grid[i]) for i in np.nonzero(signs == 0.0)[0]
                 if (i == 0 or signs[i - 1] != 0.0) and (i == len(signs) - 1 or signs[i + 1] != 0.0)]
        found.extend(float(brentq(func, grid[i], grid[i + 1], xtol=r_min * 1e-15, rtol=1e-14))
                     for i in np.nonzero(signs[:-1] * signs[1:] < 0.0)[0])
        return found

    items = []
    for eps in itertools.product((1, -1), repeat=linkage.n):
        e = np.array(eps, dtype=float)
        extrema = roots(delta(e, grid), lambda r: delta(e, r))
        for k in range(*_windings(linkage.n, eps)):
            radii = roots(closure(e, grid) - math.pi * k, lambda r: closure(e, r) - math.pi * k)
            radii.extend(r for r in extrema if abs(closure(e, r) - math.pi * k) <= 1e-9)
            merged = []
            for r in sorted(radii):
                if not merged or abs(r - merged[-1]) > 1e-10 * r:
                    merged.append(r)
            for r in merged:
                flags = DegeneracyFlags(central=tuple(bool(2.0 * r - l <= tol * r) for l in lengths),
                                        near_flip=tuple(bool(a < tol) for a in np.arcsin(ratios(r))),
                                        delta_zero=bool(abs(delta(e, r)) < tol))
                _, alphas, center, points = root_row(linkage, eps, math.asin(r_min / r))
                # the closure check the vertices used to be rebuilt under
                assert _closure_defects(e[None], alphas[None], k)[0] <= solver.CLOSURE_TOL
                if _orientation_consistent(points, center, eps, flags):
                    items.append((k, eps, r, flags, points))
    items.sort(key=lambda it: it[:3])
    unique = []
    for item in items:
        if not any(np.max(np.abs(other[4] - item[4])) < 1e-8 * linkage.lengths.sum() for other in unique):
            unique.append(item)
    return [item[:4] for item in unique]


def _exact_fixtures():
    yield from (pytest.param(Linkage([1] * n), id=f"equilateral_{n}") for n in (4, 5, 6))
    yield pytest.param(Linkage([3, 1, 1, 2]), id="quad_3112")
    yield pytest.param(Linkage([1, 1, 2, 2]), id="quad_1122")
    yield pytest.param(Linkage([1, 1, 1.5, 1.5]), id="quad_1_1_15_15")
    yield pytest.param(Linkage([1, 2, 1, 2, 1, 2]), id="hex_121212")
    # exact walls, where F and delta vanish at r = inf: that limit is no root
    yield pytest.param(Linkage([1, 2, 3, 2.5, 1.5]), id="wall_5")
    yield pytest.param(Linkage([1, 1, 1, 1, 2, 2]), id="wall_6")
    rng = np.random.default_rng(41)
    yield from (pytest.param(random_linkage(rng, n), id=f"random_{n}") for n in (6, 7, 8, 9))


@pytest.mark.parametrize("linkage", list(_exact_fixtures()))
def test_enumeration_matches_full_scan_exactly(linkage):
    """Half scan in theta with mirror reuse, no filter and no dedup, against
    the full radius scan: the same (E, k, flags) exactly, radii within 1e-12."""
    expected = _radius_scan(linkage)
    assert expected
    items = enumerate_cyclic(linkage)
    assert [(it.descriptor.winding, it.descriptor.eps.eps, it.flags) for it in items] == \
        [(k, eps, flags) for k, eps, _, flags in expected]
    assert [it.descriptor.radius for it in items] == pytest.approx([r for _, _, r, _ in expected],
                                                                   rel=1e-12)


def test_quad_wall_1e8_finds_the_pair_beyond_the_old_cap():
    # the quadrilateral dichotomy gives 4 here; the radius scan stopped at
    # 1e3 r_min and lost the pair near r = 3742 r_min, which sits next to
    # the extremum of F at r = 6481 r_min, where |F| = 4.1e-13 is no root
    linkage = Linkage(QUAD_WALL_8)
    items = enumerate_cyclic(linkage)
    assert len(items) == 4
    far = [it for it in items if it.descriptor.radius > 1e3 * linkage.min_radius]
    assert len(far) == 2
    assert all(it.flags.delta_zero for it in far)
    assert all(3.7e3 < it.descriptor.radius / linkage.min_radius < 3.8e3 for it in far)


def test_quad_wall_1e6_roots_are_generic_and_agree():
    # absolute tolerances flagged these 4 roots delta_zero and admitted a
    # spurious double root besides
    analyses = analyze_linkage(Linkage(QUAD_WALL_6))
    assert len(analyses) == 4
    assert not any(a.flags.any for a in analyses)
    assert all(a.agree and a.index_source == "formula" for a in analyses)


def test_pentagon_near_minimum_radius_closes():
    # refined in r, a root near r_min left a closure defect of 3.3e-9 and
    # the closure check raised InconsistentDescriptorError
    linkage = Linkage(PENTAGON_NEAR_RMIN)
    items = enumerate_cyclic(linkage)
    assert len(items) == 6
    assert _closure_defects(items.eps, items.alphas, items.k).max() < 1e-10
    # the near pair's longest edge is no diameter: its cos(alpha) is above
    # DEGENERACY_TOL, so it is analysed, and the formula agrees with the oracle
    near = [a for a in analyze_linkage(linkage)
            if a.descriptor.radius < linkage.min_radius * (1 + 1e-11)]
    assert len(near) == 2
    assert all(not a.flags.any and a.agree and a.index_source == "formula" for a in near)


def test_solve_radii_mirror_is_exact():
    rng = np.random.default_rng(17)
    found = 0
    for n in (4, 5, 6):
        linkage = random_linkage(rng, n)
        for tail in itertools.product((1, -1), repeat=n - 1):
            eps = (1,) + tail
            mirror = tuple(-v for v in eps)
            for k in range(*_windings(n, eps)):
                radii = _radii(linkage, eps, k)
                assert radii == _radii(linkage, mirror, -k)
                found += len(radii)
    assert found > 0


def _string_roots(linkage, eps, ks):
    """The per-string scan the solver ran before it scanned blocks of
    strings: one windings x grid table for one string, exact zeros and sign
    changes per winding, brackets refined with scipy's brentq on one row of
    the scan's kernel, double roots tested at the zeros of delta, one merged
    root list per winding."""
    rho = linkage.lengths / linkage.lengths.max()

    def half_angles(theta):
        theta = np.asarray(theta, dtype=float)[..., None]
        return np.where(rho == 1.0, theta, np.arcsin(rho * np.sin(theta)))

    def masks(values):
        pos, neg, zero = values > 0.0, values < 0.0, values == 0.0
        isolated = zero.copy()
        isolated[..., 1:] &= ~zero[..., :-1]
        isolated[..., :-1] &= ~zero[..., 1:]
        return isolated, (pos[..., :-1] & neg[..., 1:]) | (neg[..., :-1] & pos[..., 1:])

    grid = np.linspace(0.0, math.asin(1.0 / (1.0 + 1e-12)), 4097)
    grid[0] = 1e-200
    alphas_tab = half_angles(grid)
    e = np.array(eps, dtype=float)
    closures = alphas_tab @ e
    start = int(abs(closures[0]) <= 1e-12 * alphas_tab[0].sum())
    grid, closures, deltas = grid[start:], closures[start:], np.tan(alphas_tab[start:]) @ e
    zeros, changes = masks(closures[None, :] - math.pi * ks[:, None])
    thetas = [[] for _ in ks]
    for j, i in zip(*np.nonzero(zeros)):
        thetas[j].append(float(grid[i]))
    for j, i in zip(*np.nonzero(changes)):
        k = int(ks[j])
        thetas[j].append(float(brentq(lambda t: _closure(linkage, eps, k, t), grid[i], grid[i + 1],
                                      xtol=1e-200, rtol=1e-14)))
    zeros, changes = masks(deltas)
    extrema = [float(t) for t in grid[zeros]]
    extrema.extend(float(brentq(lambda t: _delta(linkage, eps, t), grid[i], grid[i + 1],
                                xtol=1e-200, rtol=1e-14))
                   for i in np.flatnonzero(changes))
    for t in extrema:
        alphas = half_angles(t)
        scale = alphas.sum() + math.pi * np.abs(ks)
        for j in np.nonzero(np.abs(float(e @ alphas) - math.pi * ks) <= 1e-12 * scale)[0]:
            thetas[j].append(t)
    merged = []
    for ts in thetas:
        kept = []
        for t in sorted(ts):
            if not kept or abs(t - kept[-1]) > 1e-10 * t:
                kept.append(t)
        merged.append(kept)
    return merged


def _per_string_enumeration(linkage):
    """enumerate_cyclic as it was before the block scan: the strings with
    eps_1 = +1 one at a time, each root and its mirror described and flagged
    on their own.  Returns sorted ``(k, eps, flags, r)``."""
    n, r_min = linkage.n, linkage.min_radius
    rho = linkage.lengths / linkage.lengths.max()
    items = []
    for tail in itertools.product((1, -1), repeat=n - 1):
        eps = (1,) + tail
        ks = np.arange(*_windings(n, eps))
        for k, thetas in zip(ks.tolist(), _string_roots(linkage, eps, ks)):
            for t in thetas:
                alphas = np.where(rho == 1.0, t, np.arcsin(rho * np.sin(t)))
                tangents = np.tan(alphas)
                flags = DegeneracyFlags(
                    central=tuple((np.cos(alphas) <= 1e-7).tolist()),
                    near_flip=tuple((alphas < 1e-7).tolist()),
                    delta_zero=bool(abs(float(np.array(eps, dtype=float) @ tangents))
                                    < 1e-7 * float(tangents.sum())))
                r = r_min / math.sin(t)
                items.append((k, eps, flags, r))
                items.append((-k, tuple(-v for v in eps), flags, r))
    items.sort(key=lambda it: (it[0], it[1], it[3]))
    return items


def _block_scan_fixtures():
    yield from _exact_fixtures()
    yield pytest.param(Linkage(QUAD_WALL_8), id="quad_wall_1e-8")
    yield pytest.param(Linkage(QUAD_WALL_6), id="quad_wall_1e-6")
    yield pytest.param(Linkage(PENTAGON_NEAR_RMIN), id="pentagon_near_rmin")
    rng = np.random.default_rng(43)
    yield from (pytest.param(random_linkage(rng, n), id=f"seeded_{n}") for n in range(6, 12))


@pytest.mark.parametrize("linkage", list(_block_scan_fixtures()))
def test_block_scan_matches_per_string_scan(linkage):
    """The same grid, brackets, brentq and merge as the per-string scan, so
    (E, k, flags) are identical and the radii equal bit for bit."""
    expected = _per_string_enumeration(linkage)
    items = enumerate_cyclic(linkage)
    assert [(it.descriptor.winding, it.descriptor.eps.eps, it.flags) for it in items] == \
        [(k, eps, flags) for k, eps, flags, _ in expected]
    assert [it.descriptor.radius for it in items] == [r for *_, r in expected]


def _paired_tail(linkage):
    """enumerate_cyclic's per-root tail as it was before one sort took root
    and mirror rows together: each root's columns next to its mirror's,
    then a lexsort on the winding, the n entries of the string and the
    radius.  Returns the :class:`CyclicTable` columns by name."""
    n = linkage.n
    bits = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 2, -1, -1)) & 1
    strings = np.concatenate([np.ones((bits.shape[0], 1)), 1.0 - 2.0 * bits], axis=1)
    rows, ks, thetas = solver._scan(linkage, strings)
    eps = strings[rows]
    radius, alphas, center = solver._root_geometry(linkage, eps, thetas)

    def pairs(roots, mirrors):
        return np.stack([roots, mirrors], axis=1).reshape(-1, *roots.shape[1:])

    flags = [pairs(mask, mask) for mask in _flag_rows(eps, alphas)]
    eps, ks = pairs(eps, -eps).astype(int), pairs(ks, -ks)
    radius, alphas = pairs(radius, radius), pairs(alphas, alphas)
    center = pairs(center, center * np.array([-1.0, 1.0]))
    order = np.lexsort((radius, *eps.T[::-1], ks))
    eps, ks, radius, alphas, center = (col[order] for col in (eps, ks, radius, alphas, center))
    central, near_flip, delta_zero = (mask[order] for mask in flags)
    return dict(eps=eps, k=ks, radius=radius, alphas=alphas, center=center,
                points=solver._vertices(linkage, radius, center, eps, alphas),
                central=central, near_flip=near_flip, delta_zero=delta_zero,
                flagged=delta_zero | central.any(axis=1) | near_flip.any(axis=1))


def _matched_mirrors(table):
    """The mirror of every row, found as analysis matched the pairs before
    the enumeration handed them over: one lexsort on the root's string code,
    the root's winding, the radius and the side, after which each pair is
    adjacent with its root first, the radii equal bit for bit."""
    eps, first = table.eps, table.eps[:, :1]
    side = (first < 0).ravel()
    code = ((eps * first > 0) << np.arange(eps.shape[1])).sum(axis=1)
    winding, radius = table.k * first.ravel(), table.radius
    order = np.lexsort((side, radius, winding, code))
    code, winding, radius, side = code[order], winding[order], radius[order], side[order]
    pair = np.flatnonzero((code[1:] == code[:-1]) & (winding[1:] == winding[:-1])
                          & (radius[1:] == radius[:-1]) & side[1:] & ~side[:-1])
    mirror = np.full(len(table), -1)
    mirror[order[pair]], mirror[order[pair + 1]] = order[pair + 1], order[pair]
    return mirror


def _tail_fixtures():
    yield from _block_scan_fixtures()
    rng = np.random.default_rng(59)
    yield from (pytest.param(random_linkage(rng, n), id=f"seeded_{n}") for n in range(3, 13))


@pytest.mark.parametrize("linkage", list(_tail_fixtures()))
def test_one_sort_pairs_every_row_with_its_mirror(linkage):
    """The tail sorts root and mirror rows in one lexsort on (winding,
    string code, radius): every column equals the paired tail's, byte for
    byte, and the mirror index is the pairing analysis used to recover."""
    table, mirror = solver._enumerate(linkage)
    expected = _paired_tail(linkage)
    for field in fields(table):
        column = getattr(table, field.name)
        assert column.dtype == expected[field.name].dtype, field.name
        assert column.tobytes() == expected[field.name].tobytes(), field.name
    rows = np.arange(len(table))
    assert np.array_equal(mirror[mirror], rows) and not (mirror == rows).any()
    assert np.array_equal(mirror, _matched_mirrors(table))
    assert np.array_equal(table.eps[mirror], -table.eps)
    assert np.array_equal(table.k[mirror], -table.k)
    for name in ("radius", "alphas", "central", "near_flip", "delta_zero", "flagged"):
        assert getattr(table, name)[mirror].tobytes() == getattr(table, name).tobytes(), name
    assert table.center[mirror].tobytes() == (table.center * [-1.0, 1.0]).tobytes()


def _winding_fixtures():
    yield from _exact_fixtures()
    yield from (pytest.param(Linkage([1, 2, 1.5, 2.5 - d]), id=f"quad_wall_{d:.0e}")
                for d in 10.0 ** -np.arange(3, 13))
    yield pytest.param(Linkage(PENTAGON_NEAR_RMIN), id="pentagon_near_rmin")
    rng = np.random.default_rng(61)
    yield from (pytest.param(random_linkage(rng, n), id=f"seeded_{n}") for n in range(3, 13))


@pytest.mark.parametrize("linkage", list(_winding_fixtures()))
def test_every_winding_lies_in_the_closure_range(linkage):
    """The scan keeps no winding filter: each row's closure sum lies
    strictly inside (-(n - e) pi/2, e pi/2), e its +1 entries, so its
    winding satisfies -(n - e) < 2k < e."""
    table = enumerate_cyclic(linkage)
    assert len(table)
    e = (table.eps > 0).sum(axis=1)
    assert np.all((-(linkage.n - e) < 2 * table.k) & (2 * table.k < e))


def _full_table(rho, grid, strings):
    """The scan's candidate cells as it would find them without pruning
    coarse cells: the closure sums of 16 strings at a time tabulated at
    every grid point, and every grid cell bounded by the scan's rule, as
    the row and the cell's first sample."""
    alphas_tab = solver._half_angles(rho, grid)
    gaps = solver._cell_gaps(grid, alphas_tab, 2.0 * solver._LEVEL_SLACK * math.pi)
    found = [(np.zeros(0, dtype=int),) * 2]
    for start in range(0, len(strings), 16):
        closures = strings[start:start + 16] @ alphas_tab.T
        marked = solver._meets_level(*solver._bounds(closures[:, :-1], closures[:, 1:], gaps))
        row, i = np.divmod(np.flatnonzero(marked), marked.shape[1])
        found.append((row + start, i))
    return tuple(np.concatenate(v) for v in zip(*found))


def _candidate_cells(candidates):
    """Sorted ``(row, sample)`` of the candidate cells."""
    row, i = candidates
    return sorted(zip(row.tolist(), i.tolist()))


def _scan_trace(linkage, monkeypatch, tabulate):
    """enumerate_cyclic with ``tabulate`` in place of the scan's table: the
    sorted ``(row, sample)`` candidate cells, the sorted closure brackets
    ``(row, k, sample)``, the table it returns, and the grid and strings it
    scanned."""
    seen, brackets = {}, []
    batched = solver.brentq

    def recording_tabulate(rho, grid, strings):
        seen["grid"], seen["strings"] = grid, strings
        seen["candidates"] = tabulate(rho, grid, strings)
        return seen["candidates"]

    def recording_brentq(f, a, b, args=()):
        brackets.append((a, args))
        return batched(f, a, b, args)

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_tabulate", recording_tabulate)
        patch.setattr(solver, "brentq", recording_brentq)
        table = enumerate_cyclic(linkage)
    rows = {tuple(eps): j for j, eps in enumerate(seen["strings"].tolist())}
    candidates = _candidate_cells(seen["candidates"])
    a, (eps, k, delta) = brackets[0]
    closure_brackets = sorted(zip([rows[tuple(e)] for e in eps[~delta].tolist()],
                                  k[~delta].tolist(),
                                  np.searchsorted(seen["grid"], a[~delta]).tolist()))
    return candidates, closure_brackets, table, seen["grid"], seen["strings"]


def _pruned_scan_fixtures():
    yield from _block_scan_fixtures()
    rng = np.random.default_rng(53)
    yield from (pytest.param(random_linkage(rng, n), id=f"random_{n}") for n in range(4, 14))


@pytest.mark.parametrize("linkage", list(_pruned_scan_fixtures()))
def test_pruned_scan_matches_full_table(linkage, monkeypatch):
    """The coarse cells the scan leaves out hold no candidate: its
    candidate cells are among the full table's, and its closure brackets
    and its table are the full table's.  The full table may mark more: a
    fine bound reaches past C by its gap, so it can meet a level in a cell
    whose coarse bound does not."""
    candidates, brackets, table, _, _ = _scan_trace(linkage, monkeypatch, solver._tabulate)
    full, *expected, _, _ = _scan_trace(linkage, monkeypatch, _full_table)
    assert set(candidates) <= set(full)
    assert brackets == expected[0]
    assert all(np.array_equal(getattr(table, f.name), getattr(expected[1], f.name))
               for f in fields(table))


def test_pruned_scan_keeping_every_cell_is_the_full_table(monkeypatch):
    # every coarse cell kept, as an adversarial linkage might have it: the
    # windows then tile the full table, each grid cell is bounded as the
    # full table bounds it, and they are searched a bounded chunk at a
    # time, within the n = 12 bound of test_enumeration_memory_is_bounded
    linkage = random_linkage(np.random.default_rng(12), 12)
    expected = _scan_trace(linkage, monkeypatch, _full_table)
    monkeypatch.setattr(solver, "_coarse_cells",
                        lambda coarse, rows, gaps: np.ones((len(gaps), len(rows)), dtype=bool))
    tracemalloc.start()
    try:
        candidates, brackets, table, _, _ = _scan_trace(linkage, monkeypatch, solver._tabulate)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    assert candidates == expected[0]
    assert brackets == expected[1]
    assert all(np.array_equal(getattr(table, f.name), getattr(expected[2], f.name))
               for f in fields(table))


def _grid_to(end):
    """A grid of the scan's size, uniform from _FAR_ANGLE, whose coarse
    cells each span ``end`` / 2: sample 2 _STEP, the second coarse cell's
    last one, lies at ``end``.  It runs past pi/2, the domain of the
    far-cell rule, but keeps the first coarse cell, whose R is then huge."""
    grid = np.linspace(0.0, end * solver.SAMPLES / (2 * solver._STEP), solver.SAMPLES + 1)
    grid[0], grid[2 * solver._STEP] = solver._FAR_ANGLE, end
    return grid


def test_pruned_scan_takes_a_cell_end_once(monkeypatch):
    # with three equal edges and eps = (1, 1, -1), C is theta exactly; on a
    # grid that puts pi on the second coarse cell's last sample, C - pi has
    # an exact zero there, so both grid cells that share that sample are
    # candidates, each tests it, and the scan reports it once
    grid, step = _grid_to(math.pi), 2 * solver._STEP
    rho, strings = np.ones(3), np.array([[1.0, 1.0, -1.0]])
    candidates = _candidate_cells(solver._tabulate(rho, grid, strings))
    assert {(0, step - 1), (0, step)} <= set(candidates)
    assert candidates == _candidate_cells(_full_table(rho, grid, strings))
    monkeypatch.setattr(solver, "_angle_grid", lambda: grid)
    _, k, theta = solver._scan(Linkage([1, 1, 1]), strings)
    assert theta[k == 1].tolist() == [math.pi]


def test_last_bits_of_the_tables_move_no_root(monkeypatch):
    # C = theta exactly, as above, on a grid whose sample 2 _STEP lies one
    # ulp above pi, so C - pi changes sign in the cell before it.  The
    # tables sum the edges in another order than _scan_rows, here two ulps
    # low within 1e-12 of pi: the candidates they mark still hold the root,
    # which is decided on the values brentq starts from, not on the tables'.
    grid = _grid_to(np.nextafter(math.pi, 4.0))
    windows = solver._windows

    def low_near_pi(table, eps, slots, out):
        windows(table, eps, slots, out)
        near = np.abs(out - math.pi) <= 1e-12
        out[near] = np.nextafter(np.nextafter(out[near], 0.0), 0.0)

    monkeypatch.setattr(solver, "_angle_grid", lambda: grid)
    monkeypatch.setattr(solver, "_windows", low_near_pi)
    _, k, theta = solver._scan(Linkage([1, 1, 1]), np.array([[1.0, 1.0, -1.0]]))
    assert theta[k == 1].tolist() == [grid[2 * solver._STEP]]


@pytest.mark.parametrize("n", range(3, 9))
def test_vanishing_strings_are_the_identically_zero_ones(n):
    """The scan reads every exact zero of F or delta as a root, since only
    the strings it leaves out vanish identically.  Both are odd power series
    in sin theta with positive coefficients, ``arcsin x`` and
    ``tan(arcsin x)``, times the power sums ``P_m = sum eps_i l_i^(2m+1)``,
    so they vanish identically exactly when every P_m does, and m = 0 .. n-1
    suffice: the squares of distinct lengths make a Vandermonde system for
    the signed count of each length.  Exact integers test it here."""
    rng = np.random.default_rng(71 + n)
    strings = np.array(list(itertools.product([1, -1], repeat=n)))
    for _ in range(20):
        lengths = rng.integers(1, 4, n)
        exact = [all(sum(e * l ** (2 * m + 1) for e, l in zip(eps, lengths.tolist())) == 0
                     for m in range(n))
                 for eps in strings.tolist()]
        assert solver._vanishing(lengths.astype(float), strings.astype(float)).tolist() == exact


def test_scan_keeping_no_cell_is_empty():
    # C = theta of three unit edges and eps = (1, 1, -1) lies in (0, pi/2),
    # away from every level but 0, which the far-cell rule excludes: no
    # block keeps a cell, and the scan has no candidate and no root
    strings = np.array([[1.0, 1.0, -1.0]])
    row, i = solver._tabulate(np.ones(3), solver._angle_grid(), strings)
    assert row.size == i.size == 0 and row.dtype.kind == i.dtype.kind == "i"
    row, k, theta = solver._scan(Linkage([1, 1, 1]), strings)
    assert row.size == k.size == theta.size == 0


def test_merge_drops_repeated_roots_only():
    # a root found by two rules comes twice with the same theta and is kept
    # once; two roots of one (E, k) 1e-12 apart (relative) are both roots,
    # and so are equal thetas of another string or winding
    near = 0.7 * (1.0 + 1e-12)
    assert near != 0.7
    row, k, theta = solver._merge(np.array([1, 0, 1, 0, 0, 0]),
                                  np.array([0.0, 1.0, 0.0, 1.0, 1.0, 2.0]),
                                  np.array([0.7, 0.7, 0.7, near, 0.7, 0.7]))
    assert (row.tolist(), k.tolist(), theta.tolist()) == \
        ([0, 0, 0, 1], [1, 1, 2, 0], [0.7, near, 0.7, 0.7])
    assert row.dtype.kind == k.dtype.kind == "i"


def _kept_cells(monkeypatch, scan):
    """The strings (rows of +-1) and the coarse kept-cell mask (cells x
    strings) of every block that ``scan()`` bounds."""
    kept, cells = [], solver._coarse_cells

    def recording(coarse, rows, gaps):
        kept.append((rows, cells(coarse, rows, gaps)))
        return kept[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(solver, "_coarse_cells", recording)
        scan()
    return kept


def _far_reach(rho):
    """``R = sum_i tan(alpha_i(b)) / sin b - sum_i rho_i`` of the first
    coarse cell (0, b]: on it ``C / sin theta`` and ``delta / sin theta``
    lie within R of ``s_0 = sum_i eps_i rho_i``."""
    b = solver._angle_grid()[solver._STEP]
    return np.tan(solver._half_angles(rho, b)).sum() / math.sin(b) - rho.sum()


@pytest.mark.parametrize("linkage", [pytest.param(Linkage(lengths), id=name) for name, lengths in (
    ("wall_5", [1, 2, 3, 2.5, 1.5]), ("wall_6", [1, 1, 1, 1, 2, 2]),
    ("hex_121212", [1, 2, 1, 2, 1, 2]), ("equilateral_6", [1] * 6),
    ("quad_wall_1e-8", QUAD_WALL_8))])
def test_first_cell_is_kept_on_walls(linkage, monkeypatch):
    """The first coarse cell is tabulated for every string in _scan's wall
    mask, whose scan starts at the second grid point, and for every string
    with ``|s_0| <= R``, where the far-cell rule proves nothing, and for
    no string farther from a wall.  The wall strings of hex_121212 and
    equilateral_6 vanish and are not scanned, so they keep no first cell."""
    rho = solver._ratios(linkage)
    first = solver._half_angles(rho, solver._angle_grid()[0])
    reach = _far_reach(rho)
    for rows, mask in _kept_cells(monkeypatch, lambda: enumerate_cyclic(linkage)):
        wall = np.abs(rows @ first) <= solver.RESIDUAL_TOL * first.sum()
        s0 = np.abs(rows @ rho)
        assert mask[0][wall | (s0 <= reach)].all()
        assert not mask[0][s0 > reach * (1.0 + 1e-6)].any()


def _far_cell_cases(rng, n):
    """Ratios (the largest exactly 1) and strings for the far-cell rule at
    n edges.  Random ratios, some next to 1, with random strings; then the
    bound's near-worst case, the longest edge against n - 1 short ones,
    whose sum puts ``s_0`` at ``R (1 + d)`` for d from -1e-3 to 1e-2.
    There delta / sin theta - s_0 is nearly -R at b, since the short edges
    add little: at n = 16 the bound is within 1% of tight."""
    rho = rng.uniform(0.05, 1.0, n)
    near = rng.random(n) < 0.3
    rho[near] = 1.0 - rng.integers(1, 65, n)[near] * 2.0 ** -53
    yield rho / rho.max(), rng.choice([-1.0, 1.0], (300, n))
    if n < 3:
        return
    eps = np.array([-1.0] + [1.0] * (n - 1))
    for d in (-1e-3, -1e-9, 1e-12, 1e-9, 1e-7, 1e-6, 1e-3, 1e-2):
        rho = np.concatenate([[1.0], rng.uniform(0.5, 1.5, n - 1)])
        for _ in range(4):
            rho[1:] *= (1.0 + (1.0 + d) * _far_reach(rho)) / rho[1:].sum()
        yield rho, np.stack([eps, -eps])


def test_far_cell_rule_keeps_the_signs_of_s0(monkeypatch):
    """Where the far-cell rule drops a string's first coarse cell (0, b],
    F at k = 0 and delta, as _scan_rows gives them, keep the strict sign of
    ``s_0`` at _FAR_ANGLE, 1e-100, 1e-20, 1e-8 and at 2048 points up to b;
    and every string with ``|s_0| <= R`` keeps its first cell."""
    rng = np.random.default_rng(67)
    grid = solver._angle_grid()
    points = np.concatenate([[solver._FAR_ANGLE, 1e-100, 1e-20, 1e-8],
                             np.linspace(0.0, grid[solver._STEP], 2049)[1:]])
    dropped = 0
    for n in range(2, MAX_EDGES + 1):
        for rho, strings in _far_cell_cases(rng, n):
            kept = _kept_cells(monkeypatch, lambda: solver._tabulate(rho, grid, strings))
            first = np.concatenate([mask[0] for _, mask in kept])
            assert first.size == len(strings)
            s0 = strings @ rho
            assert first[np.abs(s0) <= _far_reach(rho)].all()
            drop = np.flatnonzero(~first)
            for chunk in np.array_split(drop, 1 + drop.size // 32):
                rows = np.repeat(strings[chunk], points.size, axis=0)
                theta, sign = np.tile(points, chunk.size), np.sign(s0[chunk])[:, None]
                for delta in (False, True):
                    values = solver._scan_rows(theta, rho, rows, np.zeros(theta.size),
                                               np.full(theta.size, delta))
                    assert np.all(values.reshape(chunk.size, points.size) * sign > 0)
            dropped += drop.size
    assert dropped > 4500


# Lengths next to the longest one, where alpha'' peaks next to theta_max:
# 1 - k 2^-53 are the ratios closest to 1.
_NEAR_ONE = st.one_of(st.integers(1, 64).map(lambda k: 1.0 - k * 2.0 ** -53),
                      st.integers(1, 15).map(lambda u: 1.0 - 10.0 ** -u))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.floats(0.05, 1.0), _NEAR_ONE), min_size=2, max_size=16),
       st.lists(st.integers(0, 2 ** 16 - 1), min_size=1, max_size=8))
def test_cell_bounds_hold_every_sample(lengths, codes):
    """Every closure sum that the scan tabulates in a cell, both ends
    included, lies in that cell's second-order bound, widened only by
    _BOUND_RTOL for the rounding of the sums.

    Rounding could break it only next to theta_max, where a ratio
    ``rho = 1 - k 2^-53`` bends alpha within the last cell and its gap G
    is about ``k 2^-53 tan(theta_max)`` (7.9e-11 k): an arcsin input off by
    half an ulp would move alpha by 2^-54 tan(theta_max), half that much.
    It is not off.  ``sin(theta_max)`` is the double ``1 - m 2^-53``
    (m = 9008) to within 1e-6 of an ulp, since theta_max is the arcsin of
    that double and sin is flat there, and the product of the two doubles,
    ``1 - (k + m) 2^-53 + k m 2^-106``, rounds by at most ``k m 2^-106``,
    ``m 2^-53`` (1e-12) of G.  At the other samples ``cos theta >= 3.8e-4``,
    so an arcsin input rounded by an ulp moves alpha by at most 3e-13 per
    edge, below _BOUND_RTOL times the edge's share of the total."""
    rho = np.array(lengths) / max(lengths)
    n, step = rho.size, solver._STEP
    strings = 1.0 - 2.0 * ((np.array(codes)[:, None] >> np.arange(n)) & 1)
    grid = solver._angle_grid()
    table = solver._half_angles(rho, grid)
    coarse = table[::step]
    ends = coarse @ strings.T
    lo, hi = solver._bounds(ends[:-1], ends[1:],
                            solver._cell_gaps(grid[::step], coarse, 0.0)[:, None])
    cells = solver.SAMPLES // step
    windows = np.empty((cells * len(strings), step + 1))
    # the table of every cell's window: its samples, both ends included
    table = table[np.arange(cells)[:, None] * step + np.arange(step + 1)]
    solver._windows(table, np.tile(strings, (cells, 1)), np.repeat(np.arange(cells), len(strings)),
                    windows)
    values = windows.reshape(cells, len(strings), step + 1)
    assert np.all(lo[:, :, None] <= values)
    assert np.all(values <= hi[:, :, None])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.floats(0.05, 1.0), _NEAR_ONE), min_size=2, max_size=16),
       st.lists(st.integers(0, 2 ** 16 - 1), min_size=1, max_size=8))
def test_fine_bounds_hold_between_samples(lengths, codes):
    """The closure sum at 7 interior points of each grid cell lies in that
    cell's second-order bound, widened only by _BOUND_RTOL: the bound holds
    C on the whole cell, so a zero of delta, where F may touch a level
    between two samples, lies in a cell the bound marks.  The interior
    points lie at least h / 8 from theta_max, where an arcsin input rounded
    by half an ulp moves a half-angle by at most 1.2e-12."""
    rho = np.array(lengths) / max(lengths)
    strings = 1.0 - 2.0 * ((np.array(codes)[:, None] >> np.arange(rho.size)) & 1)
    grid = solver._angle_grid()
    table = solver._half_angles(rho, grid)
    ends = solver._dot_rows(strings[:, None, :], table)
    lo, hi = solver._bounds(ends[:, :-1], ends[:, 1:], solver._cell_gaps(grid, table, 0.0))
    inner = grid[:-1, None] + np.diff(grid)[:, None] * (np.arange(1, 8) / 8.0)
    values = solver._dot_rows(strings[:, None, None, :], solver._half_angles(rho, inner))
    assert np.all(lo[..., None] <= values)
    assert np.all(values <= hi[..., None])


def test_double_root_is_found_at_a_zero_of_delta():
    """On [1, 2, 1.5, 2.5 - 1e-11] the string (1, -1, -1, 1) at k = 0 has
    two roots in the first grid cell: a sign change of F at about
    118323 r_min, and a zero of delta at about 204936 r_min where F touches
    the level within RESIDUAL_TOL.  The outer root is the brentq root of
    delta on its cell, accepted as a double root, and its mirror is a row
    too.  All four rows of the pair are flagged delta_zero."""
    linkage = Linkage([1, 2, 1.5, 2.5 - 1e-11])
    table = enumerate_cyclic(linkage)
    assert len(table) == 6 and table.delta_zero.sum() == 4
    eps = (1, -1, -1, 1)
    rows = np.flatnonzero((table.eps == eps).all(axis=1) & (table.k == 0))
    assert np.allclose(table.radius[rows] / linkage.min_radius, [118323, 204936], rtol=1e-5)
    _, k, theta = solver._scan(linkage, np.array([eps], dtype=float))
    outer = theta[(k == 0) & (theta == theta.min())][0]
    assert table.radius[rows[1]] == linkage.min_radius / np.sin(outer)
    grid = solver._angle_grid()
    cell = np.searchsorted(grid, outer) - 1
    assert outer == brentq(lambda t: _delta(linkage, eps, t), grid[cell], grid[cell + 1],
                           xtol=solver._FAR_ANGLE, rtol=solver.ROOT_RTOL)
    mirror = np.flatnonzero((table.eps == [-v for v in eps]).all(axis=1) & (table.k == 0))
    assert table.radius[mirror].tolist() == table.radius[rows].tolist()


def test_double_root_between_samples_is_marked_by_the_gap():
    """F of (1, -1, -1, -1, 1) at k = 0 touches the level 0 between two grid
    samples without crossing it: the fourth length was solved (scipy's
    brentq on the length) so that F vanishes at its zero of delta near
    theta = 1.4223.  At both ends of that cell F lies below the level by
    more than the widening, so only the fine bound's gap marks the cell.
    The root is the zero of delta refined on it, the one row of (E, 0),
    and it and its mirror are the two rows flagged delta_zero."""
    linkage = Linkage([1.704728292993807, 1.2441486794842471, 1.8220027041691074,
                       0.7380304274238483, 1.8135507946732425])
    eps = (1, -1, -1, -1, 1)
    table = enumerate_cyclic(linkage)
    rows = np.flatnonzero((table.eps == eps).all(axis=1) & (table.k == 0))
    mirror = np.flatnonzero((table.eps == [-v for v in eps]).all(axis=1) & (table.k == 0))
    assert len(rows) == len(mirror) == 1 and table.delta_zero[rows].all()
    assert table.delta_zero.sum() == 2
    _, k, theta = solver._scan(linkage, np.array([eps], dtype=float))
    (root,) = theta[k == 0]
    assert table.radius[rows[0]] == table.radius[mirror[0]] == linkage.min_radius / np.sin(root)
    grid = solver._angle_grid()
    cell = np.searchsorted(grid, root) - 1
    assert root == brentq(lambda t: _delta(linkage, eps, t), grid[cell], grid[cell + 1],
                          xtol=solver._FAR_ANGLE, rtol=solver.ROOT_RTOL)
    widen = 2.0 * solver._LEVEL_SLACK * math.pi
    assert max(_closure(linkage, eps, 0, grid[j]) for j in (cell, cell + 1)) < -widen


def _brentq_fixtures():
    # the linkage, and whether the scan brackets a zero of delta
    rng = np.random.default_rng(47)
    yield from (pytest.param(random_linkage(rng, n), False, id=f"seeded_{n}") for n in range(4, 13))
    yield pytest.param(Linkage(QUAD_WALL_8), True, id="quad_wall_1e-8")
    yield pytest.param(Linkage(QUAD_WALL_6), True, id="quad_wall_1e-6")


def _alone(f, rows=()):
    """f of one bracket's rows as a function of a float, for scipy."""
    return lambda t: float(f(np.array([t]), *rows)[0])


@pytest.mark.parametrize("linkage, delta_rows", list(_brentq_fixtures()))
def test_brentq_matches_scipy_on_every_bracket(linkage, delta_rows, monkeypatch):
    """The scan refines its closure brackets and its delta brackets in one
    batched call; each root is the one scipy's brentq finds on that bracket
    alone, bit for bit."""
    calls = []
    batched = solver.brentq

    def recording(f, a, b, args=()):
        roots = batched(f, a, b, args)
        calls.append((f, a, b, args, roots))
        return roots

    monkeypatch.setattr(solver, "brentq", recording)
    enumerate_cyclic(linkage)
    assert len(calls) == 1
    f, a, b, args, roots = calls[0]
    delta = args[-1]
    # a zero of delta is bracketed only in a candidate cell, one whose
    # bound meets a level: the near-wall quadrilaterals have one, the
    # random lengths none
    assert delta.any() == delta_rows and not delta.all()
    for j, root in enumerate(roots.tolist()):
        assert root == brentq(_alone(f, [arg[j:j + 1] for arg in args]), a[j], b[j],
                              xtol=solver._FAR_ANGLE, rtol=solver.ROOT_RTOL,
                              maxiter=solver._MAXITER)


def test_brentq_rows_end_alone():
    # an exact zero at either end is the root; the other rows go on without it
    a, b = np.array([0.0, 0.0, 1.0, -1.0]), np.array([1.0, 2.0, 3.0, 0.5])
    shift = np.array([0.0, 0.3, 27.0, -0.5])

    def f(x, c):
        return x ** 3 - c

    roots = solver.brentq(f, a, b, args=(shift,))
    assert roots.tolist() == [brentq(_alone(f, [shift[j:j + 1]]), a[j], b[j],
                                     xtol=solver._FAR_ANGLE, rtol=solver.ROOT_RTOL)
                              for j in range(4)]
    assert roots[0] == 0.0 and roots[2] == 3.0


@pytest.mark.parametrize("f, a, b, error, match", [
    # bisection lands on the NaN at 0.5
    (lambda x: np.where(np.abs(x - 0.5) < 0.01, np.nan, x - 0.5), 0.0, 1.0, ValueError, "NaN"),
    (lambda x: x + 1.0, 0.0, 1.0, ValueError, "different signs"),
    # a step at 0 takes about 660 bisections to close in to xtol = 1e-200
    (lambda x: np.where(x >= 0.0, 1.0, -1.0), -1.0, 2.0, RuntimeError, "converge"),
], ids=["nan", "same-sign", "no-convergence"])
def test_brentq_refuses_as_scipy_does(f, a, b, error, match):
    with pytest.raises(error, match=match):
        solver.brentq(f, np.array([a]), np.array([b]))
    with pytest.raises(error, match=match):
        brentq(_alone(f), a, b, xtol=solver._FAR_ANGLE, rtol=solver.ROOT_RTOL,
               maxiter=solver._MAXITER)


def test_import_loads_numpy_only():
    # scipy is a test dependency: the package itself must not import it
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, linkmorse; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_solve_radii_matches_per_string_scan():
    # the square's (1, 1, -1, -1) vanishes identically at k = 0 and has no root
    cases = [(SQUARE_L, (1, 1, -1, -1)), (SQUARE_L, (-1, -1, 1, 1)), (SQUARE_L, ALL_PLUS4),
             (Linkage(QUAD_WALL_8), (1, -1, -1, 1)), (PENTA_L, (1, 1, -1, 1, 1))]
    for linkage, eps in cases:
        for k in range(-2, 3):
            (thetas,) = _string_roots(linkage, eps, np.array([k]))
            expected = [linkage.min_radius / math.sin(t) for t in reversed(thetas)]
            assert _radii(linkage, eps, k) == expected


@pytest.mark.parametrize("n, bound", [(6, 2 ** 19), (10, 2 * 2 ** 20), (12, 8 * 2 ** 20)],
                         ids=["n6", "n10", "n12"])
def test_enumeration_memory_is_bounded(n, bound):
    # the scan works on blocks of strings, so its working set does not grow
    # with 2^n, and it sizes its tables and work arrays by the cells the
    # strings keep: the peak reads about 0.2 MB at n = 6 and 1.4 MB at n = 10,
    # where full 4097-sample tables and fixed 512 kB work arrays would read
    # 2.0 and 3.5 MB; the items returned at n = 12 take about 2 MB
    linkage = random_linkage(np.random.default_rng(n), n)
    tracemalloc.start()
    try:
        items = enumerate_cyclic(linkage)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert items
    assert peak < bound


def test_enumeration_refuses_beyond_edge_budget(monkeypatch):
    def no_scan(*args):
        raise AssertionError("the scan started")

    monkeypatch.setattr(solver, "_scan", no_scan)
    with pytest.raises(InvalidLinkageError, match="budget"):
        enumerate_cyclic(Linkage([1.0] * 40))
    with pytest.raises(InvalidLinkageError):
        enumerate_cyclic(Linkage([1.0] * (MAX_EDGES + 1)))
