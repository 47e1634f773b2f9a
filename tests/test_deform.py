"""Fixed-circle deformations: angle lifts, event detection, sign dynamics."""

import math
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import constraint_violations, random_linkage, regular_polygon_points
from linkmorse import (
    AngularPath,
    CircleFit,
    Configuration,
    Linkage,
    check_lemmas,
    deform,
    detect_events,
    enumerate_cyclic,
    vertex_angles,
)
from linkmorse.deform import (
    Event,
    PathSnapshot,
    _planned_transition,
)
from linkmorse.errors import InvalidConfigurationError, NonGenericPathError
from linkmorse.morse import determinant_sign
from linkmorse.solver import _FAR_ANGLE, ROOT_RTOL


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
    report = check_lemmas(path, detect_events(path))
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
    assert constraint_violations(mid_linkage, mid_config.points) == []


def test_full_turn_of_one_vertex_generic_quadrilateral():
    # sweeping theta_4 by a full turn makes vertex 4 pass each adjacent
    # vertex once (flips of edges 3 and 4) and each incident edge sweep one
    # diameter (centrals of edges 3 and 4)
    rng = np.random.default_rng(100)
    linkage = random_linkage(rng, 4)
    item = enumerate_cyclic(linkage)[0]
    theta = vertex_angles(item.configuration,
                          CircleFit(center=item.descriptor.center, radius=item.descriptor.radius))
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


def _synthetic_event(kind, edge, eps, d, h_sign):
    """An event at t = 1/4 from eps (1, 1, 1, 1), d = 1 and H = 1 to the
    given sign data."""
    before = PathSnapshot(t=0.0, eps=(1, 1, 1, 1), delta=1.0, d=1, e=4, h_sign=1)
    after = PathSnapshot(t=0.5, eps=eps, delta=float(d), d=d, e=eps.count(1), h_sign=h_sign)
    return Event(kind, edge, 0.25, before, after)


@pytest.mark.parametrize("kind, edge, eps, d, h_sign, expected", [
    ("flip", 2, (1, -1, 1, 1), 1, -1, []),
    ("flip", 2, (1, 1, -1, 1), 1, -1, ["toggled eps [3] != [2]"]),
    ("flip", 2, (1, -1, 1, 1), -1, -1, ["d changed 1 -> -1"]),
    ("flip", 2, (1, -1, 1, 1), 1, 1, ["h_sign did not toggle"]),
    ("flip", 2, (1, 1, 1, 1), -1, 1,
     ["toggled eps [] != [2]", "d changed 1 -> -1", "h_sign did not toggle"]),
    ("central", 3, (1, 1, -1, 1), -1, 1, []),
    ("central", 3, (-1, 1, -1, 1), -1, 1, ["toggled eps [1, 3] != [3]"]),
    ("central", 3, (1, 1, -1, 1), 1, 1, ["d did not toggle"]),
    ("central", 3, (1, 1, -1, 1), -1, -1, ["h_sign changed"]),
    ("central", 3, (1, 1, 1, 1), 1, -1,
     ["toggled eps [] != [3]", "d did not toggle", "h_sign changed"]),
    ("delta_zero", None, (1, 1, 1, 1), -1, -1, []),
    ("delta_zero", None, (1, 1, -1, -1), -1, -1, ["eps toggled [3, 4]"]),
    ("delta_zero", None, (1, 1, 1, 1), 1, -1, ["d did not toggle"]),
    ("delta_zero", None, (1, 1, 1, 1), -1, 1, ["h_sign did not toggle"]),
    ("delta_zero", None, (1, -1, 1, 1), 1, 1,
     ["eps toggled [2]", "d did not toggle", "h_sign did not toggle"]),
])
def test_planned_transition_names_each_broken_rule(kind, edge, eps, d, h_sign, expected):
    # eps toggles at the event's edge alone (nowhere at a delta zero), d
    # toggles unless the event is a flip, H unless it is a central crossing;
    # a broken rule is named in that order, with the event's kind and time
    problems = _planned_transition(_synthetic_event(kind, edge, eps, d, h_sign))
    prefix = f"{kind.replace('_', ' ')} at t=0.250000: "
    assert problems == [prefix + text for text in expected]


def test_coarse_frames_keep_a_delta_zero_near_a_central_crossing():
    # edge 5 sweeps a diameter at t = 0.3875 and delta vanishes at t = 0.557:
    # at 50 frames that zero lies eight frame widths from the crossing, not
    # on its frame interval, so it is no tangent pole and must be logged
    a = [0.97, 3.31, 4.02, 4.38, 6.2]
    b = [-1.13, 0.78, -1.42, -2.85, -1.29]
    fine = detect_events(deform(a, b, 1.0, steps=2000))
    path = deform(a, b, 1.0, steps=50)
    events = detect_events(path)
    assert [(e.kind, e.edge) for e in events] == [(e.kind, e.edge) for e in fine]
    assert [e.t for e in events] == pytest.approx([e.t for e in fine], abs=1e-9)
    central, zero = events[2], events[3]
    assert (central.kind, central.edge, zero.kind) == ("central", 5, "delta_zero")
    assert abs(central.t - 0.3875) < 1e-4 and abs(zero.t - 0.557) < 1e-3
    report = check_lemmas(path, events)
    assert report.ok, report.violations


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
    # a single row of angles, not one row per frame
    with pytest.raises(InvalidConfigurationError, match="matching times"):
        AngularPath(radius=1.0, times=[0.0, 1.0], angles=[0.0, 1.0, 2.0])
    # a radius that is not finite and positive would give negative or NaN lengths
    for radius in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(InvalidConfigurationError, match="radius"):
            deform([0.0, 1.0, 2.0], [0.0, 1.5, 2.0], radius, steps=4)
    # a NaN time would pass the check that times increase, and a NaN angle
    # would make every sign test false, so no event would be found
    with pytest.raises(InvalidConfigurationError, match="finite"):
        AngularPath(radius=1.0, times=[0.0, math.nan, 1.0], angles=np.zeros((3, 3)))
    with pytest.raises(InvalidConfigurationError, match="finite"):
        deform([math.nan, 1.0, 2.0], [0.0, 1.5, 2.0], 1.0)


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


# The reference detector bisects until its bracket is this short; it is also
# the bound on how far its times may lie from detect_events's.
EVENT_REFINE_TOL = 1e-10


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
    dsigns = np.sign(np.sum(np.tan(0.5 * gaps), axis=1))
    for j in np.nonzero(dsigns[:-1] * dsigns[1:] < 0.0)[0]:
        lo, hi = float(times[j]), float(times[j + 1])
        # the tangent pole of a central crossing, not a zero
        if any(lo <= tc <= hi for tc in central_ts):
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


def _generic_random_paths(seed, count):
    """Events of random 2000-frame paths, n = 4..8, the refused ones skipped."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        path = deform(*_random_endpoints(rng, 4 + i % 5), 1.0, steps=2000)
        try:
            yield path, detect_events(path)
        except NonGenericPathError:
            continue


def _frame_of(path, event):
    """The frame j with t_j <= t <= t_{j+1} for the time t of an event."""
    j = int(np.searchsorted(path.times, event.t, side="right")) - 1
    j = min(j, path.frames - 2)
    assert path.times[j] <= event.t <= path.times[j + 1]
    return j


def test_delta_zero_times_are_scipy_brentq_roots():
    checked = 0
    for path, events in _generic_random_paths(13, 120):
        def delta(t):
            return float(np.sum(np.tan(0.5 * path.gaps_at(np.array([t]))), axis=1)[0])

        for event in events:
            if event.kind == "delta_zero":
                j = _frame_of(path, event)
                root = brentq(delta, path.times[j], path.times[j + 1], xtol=_FAR_ANGLE,
                              rtol=ROOT_RTOL)
                assert event.t == root
                checked += 1
    assert checked > 50


def test_detect_events_takes_delta_at_frames_from_the_frame_table(monkeypatch):
    # brentq starts from the frame table's delta at both ends of a bracket,
    # so gaps_at is only asked for times between frames
    seen = []
    gaps_at = AngularPath.gaps_at
    monkeypatch.setattr(AngularPath, "gaps_at", lambda path, t: seen.append((path, t)) or gaps_at(path, t))
    zeros = 0
    for _, events in _generic_random_paths(18, 30):
        zeros += sum(event.kind == "delta_zero" for event in events)
    assert zeros > 10 and len(seen) >= zeros
    for path, t in seen:
        assert t.size and not np.isin(t, path.times).any()


def test_segments_hold_the_frames_of_the_mask_rule():
    """check_lemmas checks the frames with lo + res < t < hi - res of each
    segment, as the per-frame mask does, at the edges of that rule too: an
    event on a frame whose time plus res is the next frame's, events within
    res of a frame, and two events closer than 2 res, whose segment holds
    no frame."""
    theta_a, theta_b = _random_endpoints(np.random.default_rng(16), 6)
    path = deform(theta_a, theta_b, 1.0, steps=200)
    times, res = path.times, path.resolution
    assert times[25] + res == times[26] and times[30] - res == times[29]
    moments = [times[25], times[30], times[60] + 0.4 * res, times[100] + 0.2 * res,
               times[100] + 1.7 * res]
    events = [Event("flip", 1, float(t), _sign_data(path, times[0]), _sign_data(path, times[-1]))
              for t in moments]
    report = check_lemmas(path, events)
    assert (report.violations, report.frames_checked) == _per_frame_lemmas(path, events)
    # every frame but 15: the two at each end, the event's frame and both
    # neighbours at exactly res from it at times[25] and times[30], frames 60
    # and 61 around the third event, and 100 to 102 around the close pair
    assert report.frames_checked == path.frames - 15


def test_event_sign_data_are_the_bracketing_frames():
    checked = 0
    for path, events in _generic_random_paths(14, 60):
        for event in events:
            j = _frame_of(path, event)
            assert event.before == _sign_data(path, path.times[j])
            assert event.after == _sign_data(path, path.times[j + 1])
            checked += 1
    assert checked > 100


def test_gaps_at_is_exact_at_frames_and_linear_between():
    theta_a, theta_b = _random_endpoints(np.random.default_rng(15), 6)
    path = deform(theta_a, theta_b, 1.0, steps=50)
    assert np.array_equal(path.gaps_at(path.times), path.frame_table[0])
    mid = 0.5 * (path.times[:-1] + path.times[1:])
    assert path.gaps_at(mid) == pytest.approx(_line_gaps(0.5 * (path.angles[:-1] + path.angles[1:])),
                                              abs=1e-12)


def test_frame_table_is_built_once_per_path(monkeypatch):
    # the package re-exports the function deform under the module's name
    deform_module = sys.modules["linkmorse.deform"]
    theta_a, theta_b = _random_endpoints(np.random.default_rng(17), 7)
    path = deform(theta_a, theta_b, 1.0, steps=2000)
    # not built by the constructor: a path that is never scanned costs nothing
    assert "frame_table" not in vars(path)
    shapes = []
    delta = deform_module._delta
    monkeypatch.setattr(deform_module, "_delta",
                        lambda gaps: shapes.append(gaps.shape) or delta(gaps))
    report = check_lemmas(path, detect_events(path))
    assert report.ok and report.events
    assert shapes.count(path.angles.shape) == 1
    assert path.frame_table is path.frame_table
    assert not any(column.flags.writeable for column in path.frame_table)
