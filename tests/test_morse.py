"""Closed-form sign rules and the subconfiguration Morse index."""

import math
import re

import numpy as np
import pytest

from conftest import random_linkage, regular_polygon_points
from linkmorse import (
    CircleFit,
    Configuration,
    CyclicDescriptor,
    Linkage,
    delta,
    edge_orientations,
    enumerate_cyclic,
    measure_half_angles,
    morse_index,
    reconstruct,
    sign_report,
    subconfig_sign_sequence,
)
from linkmorse.morse import CHORD_TOL, _sign_sequence, determinant_sign
from linkmorse.errors import (
    CentralConfigurationError,
    InvalidConfigurationError,
    NonGenericError,
    VanishingChordError,
)

PENTA_L = Linkage([1, 1, 1, 1, 1])


def _regular(winding=1, ccw=True):
    pts, center, radius = regular_polygon_points(5, winding=winding, ccw=ccw)
    return Configuration(pts), CircleFit(center=center, radius=radius)


def test_delta_square():
    assert delta([math.pi / 4] * 4, (1, 1, 1, 1)) == pytest.approx(4.0, abs=1e-12)


def test_delta_anticonvex_square():
    assert delta([math.pi / 4] * 4, (-1, -1, -1, -1)) == pytest.approx(-4.0, abs=1e-12)


def test_delta_pentagram():
    value = delta([2 * math.pi / 5] * 5, (1, 1, 1, 1, 1))
    assert value == pytest.approx(5.0 * math.tan(math.radians(72.0)), abs=1e-9)
    assert value == pytest.approx(15.3884176858763, abs=1e-9)


def test_delta_rejects_central_half_angle():
    with pytest.raises(CentralConfigurationError):
        delta([math.pi / 2, 0.3, 0.3], (1, 1, 1))


@pytest.mark.parametrize("d, e, expected", [(1, 5, 1), (1, 4, -1), (-1, 0, 1)])
def test_determinant_sign_formula(d, e, expected):
    assert determinant_sign(d, e) == expected


def test_sign_report_rejects_zero_delta():
    with pytest.raises(NonGenericError):
        sign_report([0.3, 0.5, 0.3, 0.5], (1, 1, -1, -1))


def test_sign_report_invariant():
    report = sign_report([math.pi / 5] * 5, (1, 1, 1, 1, 1))
    assert report.e == 5
    assert report.d == 1
    assert report.h_sign == -report.d * (-1) ** report.e == 1


def test_regular_hexagon_p4_chord_is_diameter():
    pts, center, radius = regular_polygon_points(6)
    with pytest.raises(CentralConfigurationError) as info:
        subconfig_sign_sequence(Configuration(pts), CircleFit(center=center, radius=radius))
    assert info.value.index == 4


def test_diameter_edge_is_refused_before_a_later_chord():
    # edge 1 passes 5e-10 r off the center, a diameter to CHORD_TOL: its
    # measured half-angle is pi/2 - 5e-10.  From the points, edge_orientations
    # refuses it first, since pi/2 - alpha ~ h/r is the quantity that
    # CENTRAL_CROSS_TOL thresholds; from the prefix sums, P_4 holds the edge
    # and is refused before P_5's diameter chord.
    fit = CircleFit(center=(0.0, 0.0), radius=1.0)

    def points(offset):
        theta = np.array([0.0, math.pi + offset, 2.0, 2.8, math.pi, 4.0])
        return np.stack([np.cos(theta), np.sin(theta)], axis=1)

    with pytest.raises(CentralConfigurationError) as info:
        subconfig_sign_sequence(Configuration(points(1e-9)), fit)
    assert info.value.index == 1
    alphas = measure_half_angles(points(1e-9), fit)
    assert 0.5 * math.pi - alphas[0] < CHORD_TOL
    with pytest.raises(CentralConfigurationError) as info:
        _sign_sequence(edge_orientations(points(5e-9), fit.center), alphas)
    assert info.value.index == 1


def test_sequence_convex_pentagon():
    config, fit = _regular()
    assert subconfig_sign_sequence(config, fit) == (1, -1, 1)


def test_sequence_anticonvex_pentagon():
    config, fit = _regular(ccw=False)
    assert subconfig_sign_sequence(config, fit) == (1, 1, 1)


def test_sequence_ccw_pentagram():
    # positively oriented star: no sign change, a local minimum (verified
    # against the numerical Hessian oracle)
    config, fit = _regular(winding=2)
    assert subconfig_sign_sequence(config, fit) == (1, 1, 1)


def test_sequence_cw_pentagram():
    config, fit = _regular(winding=2, ccw=False)
    assert subconfig_sign_sequence(config, fit) == (1, -1, 1)


def test_morse_index_pentagon_family():
    assert morse_index(*_regular()).index == 2
    assert morse_index(*_regular(ccw=False)).index == 0
    assert morse_index(*_regular(winding=2)).index == 0
    assert morse_index(*_regular(winding=2, ccw=False)).index == 2


def test_morse_index_triangle():
    pts, center, radius = regular_polygon_points(3)
    report = morse_index(Configuration(pts), CircleFit(center=center, radius=radius))
    assert report.h_sequence == (1,)
    assert report.index == 0


def test_morse_index_convex_square():
    pts, center, radius = regular_polygon_points(4)
    report = morse_index(Configuration(pts), CircleFit(center=center, radius=radius))
    assert report.h_sequence == (1, -1)
    assert report.index == 1


def test_aligned_pentagon_configurations_are_degenerate():
    # three consecutive edges on one line: the subconfiguration sequence hits
    # a vanishing chord or a delta zero depending on the backtracking edge
    # r = 1 / sqrt(3): every half-angle is pi/3
    desc = CyclicDescriptor.from_angle(PENTA_L, (1, 1, 1, 1, -1), 1, math.pi / 3)
    config = reconstruct(PENTA_L, desc)
    with pytest.raises(VanishingChordError) as info:
        subconfig_sign_sequence(config, desc.circle)
    assert info.value.index == 4

    desc2 = CyclicDescriptor.from_angle(PENTA_L, (-1, 1, 1, 1, 1), 1, math.pi / 3)
    config2 = reconstruct(PENTA_L, desc2)
    with pytest.raises(NonGenericError) as info2:
        subconfig_sign_sequence(config2, desc2.circle)
    assert info2.value.index == 4


def test_morse_index_requires_cyclic_input():
    pts = [(0.0, 0.0), (0.0, 1.0), (-1.0, 1.2), (-1.3, 0.1)]
    with pytest.raises(InvalidConfigurationError):
        morse_index(Configuration(pts))


def test_mirror_duality_on_enumerated_configurations():
    rng = np.random.default_rng(17)
    for n in (4, 5, 6):
        linkage = random_linkage(rng, n)
        items = enumerate_cyclic(linkage)
        table = {(it.descriptor.eps.eps, it.descriptor.winding): it for it in items}
        for (eps, k), item in table.items():
            partner = table[(tuple(-v for v in eps), -k)]
            m = morse_index(item.configuration, item.descriptor.circle).index
            m_mirror = morse_index(partner.configuration, partner.descriptor.circle).index
            assert m + m_mirror == n - 3


def _geometric_sign_sequence(config, fit):
    """The sign sequence measured the old way: each chord ``p_i -> p_1`` is
    taken from the points and every subpolygon gets its own sign report."""
    eps = edge_orientations(config.points, fit.center).eps
    alphas = measure_half_angles(config.points, fit)
    n, r = config.n, fit.radius
    signs = [1]
    for i in range(4, n + 1):
        if i < n:
            a = config.points[i - 1]
            chord = config.points[0] - a
            length = float(np.hypot(*chord))
            if length <= CHORD_TOL * r:
                raise VanishingChordError(f"chord p_{i} -> p_1 has vanishing length", index=i)
            if abs(length - 2.0 * r) <= CHORD_TOL * r:
                raise CentralConfigurationError(f"chord p_{i} -> p_1 is a diameter", index=i)
            w = fit.center - a
            cross = chord[0] * w[1] - chord[1] * w[0]
            if abs(cross) <= CHORD_TOL * length * r:
                raise CentralConfigurationError(f"chord p_{i} -> p_1 runs through the center",
                                                index=i)
            eps_i = eps[: i - 1] + ((1 if cross > 0.0 else -1),)
            alphas_i = np.append(alphas[: i - 1], math.asin(min(length / (2.0 * r), 1.0)))
        else:
            eps_i, alphas_i = eps, alphas
        try:
            signs.append(sign_report(alphas_i, eps_i).h_sign)
        except NonGenericError as err:
            raise NonGenericError(f"subconfiguration P_{i}: {err}", index=i) from err
    return tuple(signs)


def _outcome(sequence, config, fit):
    """The sequence, or the refusal: class, index and text, with the rounding
    digits of a |delta| value masked."""
    try:
        return sequence(config, fit)
    except (CentralConfigurationError, NonGenericError, VanishingChordError) as err:
        return type(err).__name__, err.index, re.sub(r"\|delta\| = \S+", "|delta| = _", str(err))


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
            config, fit = item.configuration, item.descriptor.circle
            expected = _outcome(_geometric_sign_sequence, config, fit)
            assert _outcome(subconfig_sign_sequence, config, fit) == expected
            outcomes.append(expected)
    kinds = {o[0] for o in outcomes if isinstance(o[0], str)}
    assert len(outcomes) > 900
    assert kinds == {"CentralConfigurationError", "NonGenericError", "VanishingChordError"}
