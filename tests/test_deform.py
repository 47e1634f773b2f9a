"""Fixed-circle deformations: angle lifts, event detection, sign dynamics."""

import math

import numpy as np
import pytest

from conftest import random_linkage, regular_polygon_points
from linkmorse import (
    CircleFit,
    Configuration,
    Linkage,
    check_lemmas,
    deform,
    detect_events,
    enumerate_cyclic,
    validate_configuration,
    vertex_angles,
)
from linkmorse.deform import (
    EVENT_REFINE_TOL,
    POLE_MASK_FACTOR,
    Event,
    PathSnapshot,
    _planned_transition,
)
from linkmorse.errors import InvalidConfigurationError, NonGenericPathError
from linkmorse.morse import determinant_sign


def _pentagon_path(winding=1, steps=400):
    pts, center, radius = regular_polygon_points(5, winding=winding)
    theta = vertex_angles(Configuration(pts), CircleFit(center=center, radius=radius))
    return theta, radius


def test_vertex_angles_unit_square():
    pts, center, radius = regular_polygon_points(4)
    theta = vertex_angles(Configuration(pts), CircleFit(center=center, radius=radius))
    expected = np.radians([-45.0, 45.0, 135.0, 225.0])
    assert theta == pytest.approx(expected, abs=1e-12)


def test_vertex_angles_regular_increments():
    theta5, _ = _pentagon_path(winding=1)
    assert np.diff(theta5) == pytest.approx(np.full(4, math.radians(72.0)), abs=1e-12)
    star, _ = _pentagon_path(winding=2)
    assert np.diff(star) == pytest.approx(np.full(4, math.radians(144.0)), abs=1e-12)


def test_vertex_angles_rejects_off_circle_points():
    pts = [(0.0, 0.0), (0.0, 1.0), (-1.0, 1.2), (-1.0, 0.0)]
    with pytest.raises(InvalidConfigurationError):
        vertex_angles(Configuration(pts), CircleFit(center=(-0.5, 0.5), radius=math.sqrt(2) / 2))


def test_constant_path_has_no_events():
    theta, radius = _pentagon_path()
    path = deform(theta, theta, radius, steps=200)
    assert detect_events(path) == []
    report = check_lemmas(path)
    assert report.ok
    assert report.frames_checked > 0


def test_path_frame_zero_reproduces_source():
    theta, radius = _pentagon_path()
    path = deform(theta, theta + 0.3, radius, steps=50)
    config, fit = path.configuration_at(0)
    pts, center, _ = regular_polygon_points(5)
    assert config.points == pytest.approx(pts, abs=1e-9)
    assert fit.center == pytest.approx(center, abs=1e-9)
    assert path.derived_lengths(0) == pytest.approx(np.ones(5), abs=1e-12)
    # every frame is a valid configuration of its own derived linkage
    mid_config, _ = path.configuration_at(25)
    mid_linkage = Linkage(path.derived_lengths(25))
    assert validate_configuration(mid_linkage, mid_config.points, tol=1e-9) == []


def test_full_turn_of_one_vertex_generic_quadrilateral():
    # sweeping theta_4 by a full turn makes vertex 4 pass each adjacent
    # vertex once (flips of edges 3 and 4) and each incident edge sweep one
    # diameter (centrals of edges 3 and 4)
    rng = np.random.default_rng(100)
    linkage = random_linkage(rng, 4)
    item = enumerate_cyclic(linkage)[0]
    theta = vertex_angles(item.configuration, item.descriptor.circle)
    end = theta.copy()
    end[3] += 2.0 * math.pi
    path = deform(theta, end, item.descriptor.radius, steps=2000)
    events = detect_events(path)
    edge_events = sorted((e.kind, e.edge) for e in events if e.kind != "delta_zero")
    assert edge_events == [("central", 3), ("central", 4), ("flip", 3), ("flip", 4)]
    for event in events:
        toggled = [i + 1 for i, (a, b) in enumerate(zip(event.before.eps, event.after.eps))
                   if a != b]
        assert toggled == ([] if event.kind == "delta_zero" else [event.edge])
    report = check_lemmas(path, events)
    assert report.ok, report.violations


def test_symmetric_square_sweep_is_non_generic():
    # on the square the flip of edge 4 collides with the central of edge 3
    pts, center, radius = regular_polygon_points(4)
    theta = vertex_angles(Configuration(pts), CircleFit(center=center, radius=radius))
    end = theta.copy()
    end[3] += 2.0 * math.pi
    path = deform(theta, end, radius, steps=2000)
    with pytest.raises(NonGenericPathError):
        detect_events(path)


def test_random_paths_obey_transition_table():
    rng = np.random.default_rng(42)
    kinds_seen = set()
    paths_done = 0
    while paths_done < 10:
        n = 5 if paths_done % 2 == 0 else 6
        theta_a = np.cumsum(rng.uniform(-2.5, 2.5, size=n))
        theta_b = np.cumsum(rng.uniform(-2.5, 2.5, size=n))
        path = deform(theta_a, theta_b, 1.0, steps=2000)
        try:
            events = detect_events(path)
        except NonGenericPathError:
            continue
        report = check_lemmas(path, events)
        assert report.ok, report.violations
        kinds_seen.update(e.kind for e in events)
        paths_done += 1
    assert "flip" in kinds_seen
    assert "central" in kinds_seen


def test_delta_zero_event_dynamics():
    # hunt a path containing a delta-zero event and confirm both signs flip
    rng = np.random.default_rng(7)
    found = False
    while not found:
        n = 5
        theta_a = np.cumsum(rng.uniform(-2.5, 2.5, size=n))
        theta_b = np.cumsum(rng.uniform(-2.5, 2.5, size=n))
        path = deform(theta_a, theta_b, 1.0, steps=2000)
        try:
            events = detect_events(path)
        except NonGenericPathError:
            continue
        for event in events:
            if event.kind == "delta_zero":
                assert event.before.eps == event.after.eps
                assert event.before.d == -event.after.d
                assert event.before.h_sign == -event.after.h_sign
                found = True
        assert check_lemmas(path, events).ok


def test_deform_validates_inputs():
    with pytest.raises(InvalidConfigurationError):
        deform([0.0, 1.0, 2.0], [0.0, 1.0], 1.0)
    with pytest.raises(InvalidConfigurationError):
        deform([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], 1.0, steps=1)


def _line_gaps(theta):
    """Gaps between cyclically consecutive angles along the last axis."""
    return np.concatenate([np.diff(theta, axis=-1), theta[..., :1] - theta[..., -1:]], axis=-1)


def _random_endpoints(rng, n):
    return np.cumsum(rng.uniform(-2.5, 2.5, size=n)), np.cumsum(rng.uniform(-2.5, 2.5, size=n))


def test_edge_event_times_are_exact():
    # on a straight path each gap is linear in t, so sin D_edge vanishes at
    # an edge event up to rounding, and cos D_edge tells its kind
    rng = np.random.default_rng(8)
    checked = 0
    for n in (5, 6, 7, 8) * 10:
        theta_a, theta_b = _random_endpoints(rng, n)
        path = deform(theta_a, theta_b, 1.0, steps=2000)
        try:
            events = detect_events(path)
        except NonGenericPathError:
            continue
        gap_a, gap_b = _line_gaps(theta_a), _line_gaps(theta_b)
        for event in events:
            if event.kind == "delta_zero":
                continue
            gap = (1.0 - event.t) * gap_a[event.edge - 1] + event.t * gap_b[event.edge - 1]
            assert abs(math.sin(gap)) <= 1e-12, (event.kind, event.edge, event.t)
            assert event.kind == ("flip" if math.cos(gap) > 0.0 else "central")
            checked += 1
    assert checked > 100


def _interp_gaps(path, t):
    t = float(np.clip(t, path.times[0], path.times[-1]))
    return _line_gaps(np.array([np.interp(t, path.times, path.angles[:, i])
                                for i in range(path.n)]))


def _bisect(func, lo, hi):
    flo = func(lo)
    if flo == 0.0:
        return lo
    while hi - lo > EVENT_REFINE_TOL:
        mid = 0.5 * (lo + hi)
        fmid = func(mid)
        if fmid == 0.0:
            return mid
        if (flo > 0.0) != (fmid > 0.0):
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def _sign_data(path, t):
    gaps = _interp_gaps(path, t)
    eps = tuple(1 if s > 0 else -1 for s in np.sin(gaps))
    delta = float(np.sum(np.tan(0.5 * gaps)))
    d = 1 if delta > 0 else -1
    e = sum(1 for v in eps if v > 0)
    return PathSnapshot(t=t, eps=eps, delta=delta, d=d, e=e, h_sign=determinant_sign(d, e))


def _bisection_events(path):
    """The detector before edge events had a closed form: every event is
    bisected on the np.interp-interpolated gaps, and the cosine at the
    refined time tells a flip from a central crossing."""
    gaps = _line_gaps(path.angles)
    times, res = path.times, path.resolution
    events = []
    sin_table = np.sin(gaps)
    for edge in range(path.n):
        signs = np.sign(sin_table[:, edge])
        for j in np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]:
            t_star = _bisect(lambda t: float(np.sin(_interp_gaps(path, t)[edge])),
                             float(times[j]), float(times[j + 1]))
            kind = "flip" if math.cos(float(_interp_gaps(path, t_star)[edge])) > 0.0 else "central"
            events.append((t_star, kind, edge))
    central_ts = [t for t, kind, _ in events if kind == "central"]
    mask = POLE_MASK_FACTOR * res
    dsigns = np.sign(np.sum(np.tan(0.5 * gaps), axis=1))
    for j in np.nonzero(dsigns[:-1] * dsigns[1:] < 0.0)[0]:
        lo, hi = float(times[j]), float(times[j + 1])
        if any(lo - mask <= tc <= hi + mask for tc in central_ts):
            continue
        events.append((_bisect(lambda t: float(np.sum(np.tan(0.5 * _interp_gaps(path, t)))), lo, hi),
                       "delta_zero", None))
    events.sort(key=lambda item: item[0])
    for (t0, k0, _), (t1, k1, _) in zip(events, events[1:]):
        if t1 - t0 < res:
            raise NonGenericPathError(f"{k0} and {k1} events coincide near t = {0.5 * (t0 + t1):.6f}")
    out = []
    for t_star, kind, edge in events:
        gap = max(min(0.5 * res, t_star - times[0], times[-1] - t_star), EVENT_REFINE_TOL)
        out.append(Event(kind=kind, edge=None if edge is None else edge + 1, t=t_star,
                         before=_sign_data(path, t_star - gap), after=_sign_data(path, t_star + gap)))
    return out


def _per_frame_lemmas(path, events):
    """check_lemmas with its per-frame loop: (violations, frames checked)."""
    violations = [text for event in events for text in _planned_transition(event)]
    times, res = path.times, path.resolution
    bounds = [float(times[0])] + [e.t for e in events] + [float(times[-1])]
    gaps = _line_gaps(path.angles)
    sin_table = np.sin(gaps)
    delta_col = np.sum(np.tan(0.5 * gaps), axis=1)
    checked = 0
    for lo, hi in zip(bounds, bounds[1:]):
        seen = set()
        for j in np.nonzero((times > lo + res) & (times < hi - res))[0]:
            seen.add((tuple(1 if s > 0 else -1 for s in sin_table[j]), 1 if delta_col[j] > 0 else -1))
            checked += 1
        if len(seen) > 1:
            violations.append(f"segment ({lo:.6f}, {hi:.6f}): sign data not constant across frames")
    return tuple(violations), checked


def _sign_key(event):
    return (event.kind, event.edge,
            event.before.eps, event.before.d, event.before.h_sign,
            event.after.eps, event.after.d, event.after.h_sign)


def test_events_match_bisection_detector():
    rng = np.random.default_rng(12)
    refused = violated = 0
    for i in range(200):
        # coarse paths put events within a frame of each other more often
        theta_a, theta_b = _random_endpoints(rng, 4 + i % 5)
        path = deform(theta_a, theta_b, 1.0, steps=(300, 2000)[i % 2])
        try:
            expected = _bisection_events(path)
        except NonGenericPathError as err:
            with pytest.raises(NonGenericPathError) as raised:
                detect_events(path)
            assert str(raised.value) == str(err)
            refused += 1
            continue
        events = detect_events(path)
        assert [_sign_key(e) for e in events] == [_sign_key(e) for e in expected]
        assert max((abs(a.t - b.t) for a, b in zip(events, expected)), default=0.0) <= EVENT_REFINE_TOL
        # dropping the first event leaves a segment whose signs change
        for subset, reference in ((events, expected), (events[1:], expected[1:])):
            report = check_lemmas(path, subset)
            assert (report.violations, report.frames_checked) == _per_frame_lemmas(path, reference)
            violated += not report.ok
    assert refused >= 3
    assert violated >= 100
