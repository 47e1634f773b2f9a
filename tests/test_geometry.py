"""Core geometry: signed area, constraint checks, circle fitting, orientations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constraint_violations, random_valid_configuration, regular_polygon_points
from linkmorse import (
    CircleFit,
    Configuration,
    Linkage,
    OrientationString,
    closed_form,
    fit_circle,
    signed_area,
    verify_enumeration,
)
from linkmorse.errors import DegenerateCircleError, InvalidConfigurationError, InvalidLinkageError
from linkmorse.geometry import _convex_rows, _half_angle_rows, _orientation_rows

SQUARE = np.array([(0.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (-1.0, 0.0)])
SQUARE_CENTER = np.array([-0.5, 0.5])


def _half_angles(points, fit):
    """Half-angles of one configuration on its circle, through the stacked
    kernel, which must not refuse them."""
    alphas, over = _half_angle_rows(np.asarray(points, dtype=float)[None], fit.center[None],
                                    np.array([fit.radius]))
    assert over == [None]
    return alphas[0]


def _orientations(points, center):
    """Orientation string of one configuration about a center, and the
    refusal text of its first central edge, through the stacked kernel."""
    sides, central = _orientation_rows(np.asarray(points, dtype=float)[None],
                                       np.asarray(center, dtype=float)[None])
    return tuple(sides[0].tolist()), central[0]


def test_signed_area_unit_square_ccw():
    assert signed_area([(0, 0), (1, 0), (1, 1), (0, 1)]) == pytest.approx(1.0, abs=1e-15)


def test_signed_area_orientation_reversal():
    assert signed_area([(0, 0), (0, 1), (1, 1), (1, 0)]) == pytest.approx(-1.0, abs=1e-15)


def test_signed_area_collinear_degenerate():
    assert signed_area([(0, 0), (1, 0), (2, 0)]) == pytest.approx(0.0, abs=1e-15)


def test_signed_area_requires_three_points():
    with pytest.raises(InvalidConfigurationError):
        signed_area([(0, 0), (1, 0)])


coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, width=64)
point_lists = st.lists(st.tuples(coords, coords), min_size=3, max_size=9)


@settings(max_examples=80, deadline=None)
@given(point_lists, coords, coords)
def test_signed_area_translation_invariant(pts, dx, dy):
    arr = np.asarray(pts, dtype=float)
    base = signed_area(arr)
    shifted = signed_area(arr + np.array([dx, dy]))
    scale = max(1.0, abs(base))
    assert abs(shifted - base) <= 1e-7 * scale


@settings(max_examples=80, deadline=None)
@given(point_lists)
def test_signed_area_negates_under_reflection(pts):
    arr = np.asarray(pts, dtype=float)
    mirrored = arr * np.array([-1.0, 1.0])
    assert signed_area(mirrored) == pytest.approx(-signed_area(arr), abs=1e-9)


def _verify_note(points):
    """The note of ``verify`` on a record of the unit square's circle, string
    and winding with these points and their area."""
    record = {"eps": [1, 1, 1, 1], "k": 1, "r": math.sqrt(2) / 2, "center": SQUARE_CENTER.tolist(),
              "points": np.asarray(points, dtype=float).tolist(), "area": signed_area(points),
              "flags": {"central": [False] * 4, "near_flip": [False] * 4, "delta_zero": False}}
    rows, _, _ = verify_enumeration(Linkage([1, 1, 1, 1]), [record])
    return rows[0].note


def test_validate_exact_unit_square():
    linkage = Linkage([1, 1, 1, 1])
    assert constraint_violations(linkage, SQUARE) == []
    assert _verify_note(SQUARE) is None


def test_validate_reports_length_violations():
    linkage = Linkage([1, 1, 1, 1])
    points = [(0, 0), (0, 1), (-1, 1), (-1, 0.5)]
    assert constraint_violations(linkage, points) == [("length", 3), ("length", 4)]
    assert _verify_note(points) == ("constraint violations: length violation at index 3: "
                                    "measured 0.5, expected 1")


def test_validate_reports_pinning_violation():
    linkage = Linkage([1, 1, 1, 1])
    points = [(0.1, 0), (0, 1), (-1, 1), (-1, 0)]
    assert ("pinning", 1) in constraint_violations(linkage, points)
    assert _verify_note(points) == ("constraint violations: pinning violation at index 1: "
                                    "measured 0.1, expected 0")


def test_validate_rejects_wrong_count():
    with pytest.raises(InvalidConfigurationError):
        constraint_violations(Linkage([1, 1, 1, 1]), SQUARE[:3])
    assert _verify_note(SQUARE[:3]) == "configuration has 3 vertices, linkage has 4"


def test_fit_circle_unit_square():
    fit = fit_circle(SQUARE)
    assert fit is not None
    assert fit.center == pytest.approx(SQUARE_CENTER, abs=1e-12)
    assert fit.radius == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_fit_circle_regular_pentagon():
    pts, center, radius = regular_polygon_points(5)
    fit = fit_circle(pts)
    assert fit is not None
    assert fit.radius == pytest.approx(radius, abs=1e-9)
    assert fit.center == pytest.approx(center, abs=1e-9)
    assert radius == pytest.approx(0.8506508083520399, abs=1e-12)


def test_fit_circle_rejects_perturbed_vertex():
    pts = SQUARE.copy()
    out = pts[3] - SQUARE_CENTER
    pts[3] = SQUARE_CENTER + out * (1.0 + 1e-3)
    assert fit_circle(pts) is None


def test_fit_circle_collinear_raises():
    with pytest.raises(DegenerateCircleError):
        fit_circle([(0, 0), (1, 0), (2, 0), (1, 1)])


def test_edge_orientations_ccw_square():
    assert _orientations(SQUARE, SQUARE_CENTER) == ((1, 1, 1, 1), None)


def test_edge_orientations_cw_square():
    cw = SQUARE[::-1]
    assert _orientations(cw, SQUARE_CENTER) == ((-1, -1, -1, -1), None)


def test_edge_orientation_single_edge_sign():
    # directed edge (1,0) -> (0,1) with the center at the origin: cross = +1
    pts = [(1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)]
    eps, central = _orientations(pts, (0.0, 0.0))
    assert eps[0] == 1 and central is None


def test_edge_orientations_center_on_edge_raises():
    _, central = _orientations(SQUARE, (0.0, 0.5))
    assert central == "edge 1 passes through the circle center"


def test_orientations_negate_under_reflection():
    rng = np.random.default_rng(3)
    for _ in range(20):
        _, config = random_valid_configuration(rng, 5)
        center = config.points.mean(axis=0) + rng.normal(scale=0.1, size=2)
        eps, central = _orientations(config.points, center)
        if central is not None:
            continue
        assert _orientations(config.points * [-1, 1], center * [-1, 1]) == \
            (tuple(-v for v in eps), None)


def test_orientation_string_refuses_non_integral_entries():
    # int() would truncate these to (1, -1, 1)
    with pytest.raises(InvalidConfigurationError):
        OrientationString((1.7, -1.7, 1))
    assert OrientationString((1.0, -1, 1)).eps == (1, -1, 1)


def test_half_angles_square():
    fit = fit_circle(SQUARE)
    alphas = _half_angles(SQUARE, fit)
    assert alphas == pytest.approx(np.full(4, math.pi / 4), abs=1e-12)


def test_half_angles_regular_pentagon():
    pts, _, _ = regular_polygon_points(5)
    alphas = _half_angles(pts, fit_circle(pts))
    assert alphas == pytest.approx(np.full(5, math.pi / 5), abs=1e-9)


def test_half_angles_regular_pentagram():
    pts, center, radius = regular_polygon_points(5, winding=2)
    alphas = _half_angles(pts, CircleFit(center=center, radius=radius))
    assert alphas == pytest.approx(np.full(5, 2 * math.pi / 5), abs=1e-9)


def test_half_angles_not_inscribable():
    fit = CircleFit(center=SQUARE_CENTER, radius=0.4)
    form = closed_form(Configuration(SQUARE), fit)
    assert form.central is None
    assert form.sign_errors == form.errors == "edge 1 (length 1) exceeds the diameter 0.8"


def test_half_angles_reproduce_chords():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(4, 8))
        radius = float(rng.uniform(0.5, 3.0))
        theta = np.sort(rng.uniform(0.0, 2 * math.pi, size=n))
        if np.min(np.diff(theta)) < 0.05:
            continue
        center = rng.uniform(-1, 1, size=2)
        pts = center + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        fit = fit_circle(pts)
        assert fit is not None
        alphas = _half_angles(pts, fit)
        chords = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        assert 2 * fit.radius * np.sin(alphas) == pytest.approx(chords, rel=1e-9)


@pytest.mark.parametrize("d", [2e-9, 5e-9, 1e-8, 3e-8])
def test_half_angles_near_a_diameter(d):
    # the first edge passes d/2 from the center; arcsin(l / 2r) of a ratio
    # within rounding of 1 gave pi/2 - alpha_1 = 0 for d up to 1e-8
    angles = np.array([0.0, math.pi + d, 2.0, 2.8, 4.0])
    pts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    alphas = _half_angles(pts, CircleFit(center=np.zeros(2), radius=1.0))
    assert math.pi / 2 - alphas[0] == pytest.approx(d / 2, rel=1e-6)


def test_convexity_classifier():
    assert _convex_rows(np.stack([SQUARE, SQUARE[::-1]])).tolist() == [True, False]
    star, _, _ = regular_polygon_points(5, winding=2)
    assert not _convex_rows(star[None])[0]  # locally convex but winds twice


def test_linkage_validation():
    with pytest.raises(InvalidLinkageError):
        Linkage([1.0, -1.0, 1.0])
    with pytest.raises(InvalidLinkageError):
        Linkage([3.0, 1.0, 1.0])  # not closable
    with pytest.raises(InvalidLinkageError):
        Linkage([1.0, 1.0])


def test_linkage_json_round_trip():
    linkage = Linkage([1.25, 0.75, 1.0, 0.5])
    again = Linkage.from_json_dict(linkage.to_json_dict())
    assert np.array_equal(again.lengths, linkage.lengths)
