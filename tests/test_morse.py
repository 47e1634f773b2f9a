"""Closed-form sign rules and the subconfiguration Morse index."""

import math
import re

import numpy as np
import pytest

from conftest import random_linkage, regular_polygon_points, root_row
from linkmorse import (
    CircleFit,
    Configuration,
    Linkage,
    closed_form,
    enumerate_cyclic,
    fit_circle,
)
from linkmorse.geometry import CENTRAL_CROSS_TOL, _half_angle_rows, _orientation_rows
from linkmorse.morse import CHORD_TOL, DELTA_REL_TOL, _sign_rows, determinant_sign

PENTA_L = Linkage([1, 1, 1, 1, 1])


def _regular(winding=1, ccw=True):
    pts, center, radius = regular_polygon_points(5, winding=winding, ccw=ccw)
    return Configuration(pts), CircleFit(center=center, radius=radius)


def _polygon(alphas, eps):
    """The full polygon's ``delta`` and refusal text (or None) for one
    string and its half-angles, through the stacked kernel."""
    value, _, _, polygon, _ = _sign_rows(np.array([eps], dtype=float), np.array([alphas], dtype=float))
    return float(value[0]), polygon[0]


def _half_angles(points, fit):
    return _half_angle_rows(np.asarray(points, dtype=float)[None], fit.center[None],
                            np.array([fit.radius]))[0][0]


def test_delta_square():
    assert _polygon([math.pi / 4] * 4, (1, 1, 1, 1))[0] == pytest.approx(4.0, abs=1e-12)


def test_delta_anticonvex_square():
    assert _polygon([math.pi / 4] * 4, (-1, -1, -1, -1))[0] == pytest.approx(-4.0, abs=1e-12)


def test_delta_pentagram():
    value, refusal = _polygon([2 * math.pi / 5] * 5, (1, 1, 1, 1, 1))
    assert refusal is None
    assert value == pytest.approx(5.0 * math.tan(math.radians(72.0)), abs=1e-9)
    assert value == pytest.approx(15.3884176858763, abs=1e-9)


def test_delta_rejects_central_half_angle():
    # a diameter edge is refused from the points, by its distance from the
    # center, before delta is formed
    pts = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0)]
    form = closed_form(Configuration(pts), CircleFit(center=(0.0, 0.0), radius=1.0))
    assert form.central == form.sign_errors == form.errors == \
        "edge 1 passes through the circle center"


@pytest.mark.parametrize("d, e, expected", [(1, 5, 1), (1, 4, -1), (-1, 0, 1)])
def test_determinant_sign_formula(d, e, expected):
    assert determinant_sign(d, e) == expected


def test_sign_report_rejects_zero_delta():
    assert _polygon([0.3, 0.5, 0.3, 0.5], (1, 1, -1, -1))[1] == \
        "|delta| = 0.000e+00 below 1.0e-09 * 1.711e+00"


def test_sign_report_invariant():
    # every half-angle of the convex pentagon is pi/5 and every edge is +1
    form = closed_form(*_regular())
    d = 1 if form.delta > 0.0 else -1
    assert form.sign_errors is None
    assert form.positives == 5
    assert d == 1
    assert form.h_sign == -d * (-1) ** form.positives == 1


def test_regular_hexagon_p4_chord_is_diameter():
    pts, center, radius = regular_polygon_points(6)
    form = closed_form(Configuration(pts), CircleFit(center=center, radius=radius))
    assert form.sign_errors is None
    assert form.errors == "chord p_4 -> p_1 is a diameter"
    # the chord refuses the sequence, not the index: e - 1 - 2k - [delta < 0]
    assert (form.positives, form.k, form.delta > 0, form.index) == (6, 1, True, 3)


def test_diameter_edge_is_refused_before_a_later_chord():
    # edge 1 passes h = offset r / 2 off the center, and P_5's chord
    # p_5 -> p_1 is a diameter.  Within CENTRAL_CROSS_TOL the orientations
    # refuse the edge first; just outside it the edge is a chord like any
    # other (alpha_1 = pi/2 - h / r), and only the chord is refused, by the
    # same threshold on its own h / r.
    fit = CircleFit(center=(0.0, 0.0), radius=1.0)

    def points(offset):
        theta = np.array([0.0, math.pi + offset, 2.0, 2.8, math.pi, 4.0])
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)

    form = closed_form(Configuration(points(1e-9)), fit)
    assert form.central == form.sign_errors == form.errors == \
        "edge 1 passes through the circle center"
    assert 0.5 * math.pi - _half_angles(points(1e-9), fit)[0] < CENTRAL_CROSS_TOL
    form = closed_form(Configuration(points(5e-9)), fit)
    assert form.central is None and form.sign_errors is None
    assert form.errors == "chord p_5 -> p_1 is a diameter"


def _sequence(config, fit):
    """The sign sequence of one configuration, which must not be refused."""
    form = closed_form(config, fit)
    assert form.errors is None
    return tuple(form.h_sequence.tolist())


def test_sequence_convex_pentagon():
    assert _sequence(*_regular()) == (1, -1, 1)


def test_sequence_anticonvex_pentagon():
    assert _sequence(*_regular(ccw=False)) == (1, 1, 1)


def test_sequence_ccw_pentagram():
    # positively oriented star: no sign change, a local minimum (verified
    # against the numerical Hessian oracle)
    assert _sequence(*_regular(winding=2)) == (1, 1, 1)


def test_sequence_cw_pentagram():
    assert _sequence(*_regular(winding=2, ccw=False)) == (1, -1, 1)


def test_morse_index_pentagon_family():
    assert closed_form(*_regular()).index == 2
    assert closed_form(*_regular(ccw=False)).index == 0
    assert closed_form(*_regular(winding=2)).index == 0
    assert closed_form(*_regular(winding=2, ccw=False)).index == 2


def test_morse_index_triangle():
    pts, center, radius = regular_polygon_points(3)
    fit = CircleFit(center=center, radius=radius)
    assert _sequence(Configuration(pts), fit) == (1,)
    assert closed_form(Configuration(pts), fit).index == 0


def test_morse_index_convex_square():
    pts, center, radius = regular_polygon_points(4)
    fit = CircleFit(center=center, radius=radius)
    assert _sequence(Configuration(pts), fit) == (1, -1)
    assert closed_form(Configuration(pts), fit).index == 1


def test_aligned_pentagon_configurations_are_degenerate():
    # three consecutive edges on one line: the subconfiguration sequence hits
    # a vanishing chord or a delta zero depending on the backtracking edge
    # r = 1 / sqrt(3): every half-angle is pi/3
    def rebuilt(eps):
        radius, _, center, points = root_row(PENTA_L, eps, math.pi / 3)
        return Configuration(points), CircleFit(center=center, radius=radius)

    assert closed_form(*rebuilt((1, 1, 1, 1, -1))).errors == \
        "chord p_4 -> p_1 has vanishing length"
    assert closed_form(*rebuilt((-1, 1, 1, 1, 1))).errors.startswith(
        "subconfiguration P_4: |delta| = ")


def test_morse_index_requires_cyclic_input():
    # closed_form takes the circle as an argument: a configuration without
    # one has no index, and ``linkmorse index`` refuses it
    pts = [(0.0, 0.0), (0.0, 1.0), (-1.0, 1.2), (-1.3, 0.1)]
    assert fit_circle(pts) is None


def test_mirror_duality_on_enumerated_configurations():
    rng = np.random.default_rng(17)
    for n in (4, 5, 6):
        linkage = random_linkage(rng, n)
        items = enumerate_cyclic(linkage)
        table = {(it.descriptor.eps.eps, it.descriptor.winding): it for it in items}
        for (eps, k), item in table.items():
            partner = table[(tuple(-v for v in eps), -k)]
            fit, fit_mirror = (CircleFit(center=it.descriptor.center, radius=it.descriptor.radius)
                               for it in (item, partner))
            form = closed_form(item.configuration, fit)
            mirror = closed_form(partner.configuration, fit_mirror)
            assert form.errors is None and mirror.errors is None
            assert form.index + mirror.index == n - 3


def _geometric_sign_sequence(config, fit):
    """The sign sequence measured the old way: each chord ``p_i -> p_1`` is
    taken from the points and every subpolygon gets its own determinant
    sign.  A refusal is returned as its text, the full polygon's before the
    chords', in the order in which closed_form applies them."""
    sides, central = _orientation_rows(config.points[None], fit.center[None])
    if central[0] is not None:
        return central[0]
    eps = tuple(sides[0].tolist())
    alphas, over = _half_angle_rows(config.points[None], fit.center[None], np.array([fit.radius]))
    if over[0] is not None:
        return over[0]
    alphas = alphas[0]

    def sign(eps_i, alphas_i, label):
        """``-d (-1)^e`` of one closed polygon, or its refusal text."""
        tans = np.tan(alphas_i)
        value, scale = float(np.dot(eps_i, tans)), float(tans.sum())
        if abs(value) < DELTA_REL_TOL * scale:
            return f"{label}|delta| = {abs(value):.3e} below {DELTA_REL_TOL:.1e} * {scale:.3e}"
        return -(1 if value > 0.0 else -1) * (-1) ** sum(v > 0 for v in eps_i)

    n, r = config.n, fit.radius
    full = sign(eps, alphas, "")
    if isinstance(full, str):
        return full
    signs = [1]
    for i in range(4, n):
        a = config.points[i - 1]
        chord = config.points[0] - a
        length = float(np.hypot(*chord))
        if length <= CHORD_TOL * r:
            return f"chord p_{i} -> p_1 has vanishing length"
        w = fit.center - a
        cross = chord[0] * w[1] - chord[1] * w[0]
        if abs(cross) <= CENTRAL_CROSS_TOL * length * r:
            return f"chord p_{i} -> p_1 is a diameter"
        eps_i = eps[: i - 1] + ((1 if cross > 0.0 else -1),)
        alphas_i = np.append(alphas[: i - 1], math.asin(min(length / (2.0 * r), 1.0)))
        h = sign(eps_i, alphas_i, f"subconfiguration P_{i}: ")
        if isinstance(h, str):
            return h
        signs.append(h)
    return tuple(signs + [full] if n > 3 else signs)


def _closed_form_sequence(config, fit):
    form = closed_form(config, fit)
    return form.errors if form.errors is not None else tuple(form.h_sequence.tolist())


def _outcome(sequence, config, fit):
    """The sequence, or the refusal text with the rounding digits of a
    |delta| value masked."""
    out = sequence(config, fit)
    return re.sub(r"\|delta\| = \S+", "|delta| = _", out) if isinstance(out, str) else out


def _kind(text):
    for kind, words in (("vanishing", "vanishing length"), ("non-generic", "|delta|"),
                        ("central", "diameter"), ("central", "center")):
        if words in text:
            return kind
    raise AssertionError(text)


def _prefix_sum_fixtures():
    yield from (Linkage([1] * n) for n in range(4, 9))
    yield Linkage([1, 2, 1, 2, 1, 2])
    rng = np.random.default_rng(29)
    yield from (random_linkage(rng, n) for n in range(5, 11))


def test_prefix_sums_match_geometric_chords():
    outcomes = []
    for linkage in _prefix_sum_fixtures():
        for item in enumerate_cyclic(linkage):
            if item.flags.any:
                continue
            config = item.configuration
            fit = CircleFit(center=item.descriptor.center, radius=item.descriptor.radius)
            expected = _outcome(_geometric_sign_sequence, config, fit)
            assert _outcome(_closed_form_sequence, config, fit) == expected
            outcomes.append(expected)
    kinds = {_kind(o) for o in outcomes if isinstance(o, str)}
    assert len(outcomes) > 900
    assert kinds == {"central", "non-generic", "vanishing"}
