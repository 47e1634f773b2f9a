"""Cyclic deformations on a fixed circle and their sign dynamics.

Vertices move along a circle of fixed radius, so the edge lengths become
functions of time and each frame is a cyclic configuration of its own
derived linkage.  Everything is tracked through lifted vertex angles
``theta_i(t)``: with angular gaps ``D_i = theta_{i+1} - theta_i`` (and
``D_n = theta_1 - theta_n`` for the closing edge) the per-edge data are

    eps_i  = sign(sin D_i),     l_i = 2 r |sin(D_i / 2)|,
    eps_i * tan(alpha_i) = tan(D_i / 2),

all invariant under shifting a gap by full turns.  Three event kinds occur
at isolated times on a generic path: a *flip* (a gap crosses 0 mod 2pi, the
edge vanishes and its orientation toggles), a *central* crossing (a gap
crosses pi mod 2pi, the edge sweeps a diameter), and a *delta zero*
(``delta(t) = sum tan(D_i/2)`` crosses 0 away from its poles).

Between frames each gap is linear in t, so edge events have a closed form:
if ``sin D_i`` changes sign from frame j to j + 1, with gaps ``g0``, ``g1``,
the crossed multiple of pi is ``m = round((g0 + g1) / 2pi)`` and the event
is at ``t_j + (m pi - g0) / (g1 - g0) * (t_{j+1} - t_j)``, a flip for even m
and a central crossing for odd m.  ``tan(D_i / 2)`` has its poles where
``D_i`` crosses pi mod 2pi, so delta changes sign between two frames at a
zero or at the pole of a central crossing between them.  Delta zeros are
refined in time by ``solver.brentq``, started from the delta of the frame
table at both frames, so delta is evaluated by :meth:`AngularPath.gaps_at`
only between frames; an event's sign data are those of the frames around
it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidConfigurationError,
    NonGenericPathError,
)
from .geometry import INPUT_TOL, CircleFit, Configuration, _as_points, _readonly
from .morse import determinant_sign
from .solver import brentq


def vertex_angles(config: Configuration, fit: CircleFit) -> np.ndarray:
    """Lifted polar angles of the vertices about the circle center.

    The lift is continuous along the chain: consecutive angles differ by the
    wrapped gap in (-pi, pi], which equals ``2 eps_i alpha_i`` for a cyclic
    configuration.
    """
    pts = _as_points(config.points)
    rel = pts - fit.center[None, :]
    dist = np.linalg.norm(rel, axis=1)
    if np.any(np.abs(dist - fit.radius) > INPUT_TOL * fit.radius):
        raise InvalidConfigurationError("vertices do not lie on the given circle")
    raw = np.arctan2(rel[:, 1], rel[:, 0])
    lifted = np.empty_like(raw)
    lifted[0] = raw[0]
    for i in range(1, raw.size):
        lifted[i] = lifted[i - 1] + math.remainder(raw[i] - lifted[i - 1], 2.0 * math.pi)
    return lifted


@dataclass(frozen=True)
class PathSnapshot:
    """Sign data of one frame: orientations, delta, and derived signs."""

    t: float
    eps: tuple
    delta: float
    d: int
    e: int
    h_sign: int


@dataclass(frozen=True)
class Event:
    """One isolated sign event on a deformation path.

    ``edge`` is the 1-based index of the edge involved (None for delta-zero
    events); ``before``/``after`` are the snapshots of the two frames that
    bracket the event.
    """

    kind: str
    edge: int | None
    t: float
    before: PathSnapshot
    after: PathSnapshot

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "edge": self.edge,
            "t": float(self.t),
            "eps_before": list(self.before.eps),
            "eps_after": list(self.after.eps),
            "d_before": self.before.d,
            "d_after": self.after.d,
            "H_before": self.before.h_sign,
            "H_after": self.after.h_sign,
        }


@dataclass(frozen=True)
class AngularPath:
    """Sampled deformation on a fixed circle: times and lifted vertex angles."""

    radius: float
    times: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        angles = np.asarray(self.angles, dtype=float)
        if times.ndim != 1 or times.size < 2 or angles.ndim != 2 or angles.shape[0] != times.size:
            raise InvalidConfigurationError("path needs matching times and angle rows")
        if angles.shape[1] < 3:
            raise InvalidConfigurationError("path needs at least 3 vertices")
        if not (np.isfinite(times).all() and np.isfinite(angles).all()):
            raise InvalidConfigurationError("path times and angles must be finite")
        if np.any(np.diff(times) <= 0.0):
            raise InvalidConfigurationError("times must increase strictly")
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise InvalidConfigurationError("path radius must be positive and finite")
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "times", _readonly(times))
        object.__setattr__(self, "angles", _readonly(angles))

    @property
    def n(self) -> int:
        return self.angles.shape[1]

    @property
    def frames(self) -> int:
        return self.times.size

    @property
    def resolution(self) -> float:
        return float(np.max(np.diff(self.times)))

    def gaps_at(self, t: np.ndarray) -> np.ndarray:
        """Lifted gaps at each of the times t, one row per time, linear
        between the two frames around it."""
        times = self.times
        t = np.clip(np.asarray(t, dtype=float), times[0], times[-1])
        j = np.clip(np.searchsorted(times, t, side="right") - 1, 0, times.size - 2)
        w = ((t - times[j]) / (times[j + 1] - times[j]))[:, None]
        # exact at w = 0 and w = 1: at a frame's time, the frame's gaps
        return _gaps((1.0 - w) * self.angles[j] + w * self.angles[j + 1])

    @functools.cached_property
    def frame_table(self):
        """Read-only (frames, n) lifted gaps, closing edge included, their
        sines, and delta per frame; built on first use and kept, so
        :func:`detect_events` and :func:`check_lemmas` build it once."""
        gaps = _gaps(self.angles)
        table = (gaps, np.sin(gaps), _delta(gaps))
        for column in table:
            column.setflags(write=False)
        return table

    def derived_lengths(self, frame: int) -> np.ndarray:
        """Edge lengths of the deformed linkage at one frame."""
        gaps = _gaps(self.angles[frame])
        return 2.0 * self.radius * np.abs(np.sin(0.5 * gaps))

    def configuration_at(self, frame: int):
        """Re-pinned configuration and circle of one frame.

        The raw circle placement is carried to the pinned frame by a rigid
        motion (rotation plus translation), which leaves all sign data and
        the signed area unchanged.
        """
        th = self.angles[frame]
        raw = self.radius * np.stack([np.cos(th), np.sin(th)], axis=1)
        first = raw[1] - raw[0]
        l1 = float(np.hypot(*first))
        if l1 <= 1e-12 * self.radius:
            raise InvalidConfigurationError("first edge vanishes at this frame; cannot re-pin")
        # rotate first edge onto +y, then translate p_1 to the origin
        ang = 0.5 * math.pi - math.atan2(first[1], first[0])
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        pts = (raw - raw[0]) @ rot.T
        pts[0] = (0.0, 0.0)
        pts[1] = (0.0, l1)
        center = rot @ (-raw[0])
        config = Configuration(points=pts)
        return config, CircleFit(center=center, radius=self.radius)


def _gaps(theta: np.ndarray) -> np.ndarray:
    """Gaps between cyclically consecutive angles along the last axis."""
    gaps = np.empty_like(theta)
    gaps[..., :-1] = theta[..., 1:] - theta[..., :-1]
    gaps[..., -1] = theta[..., 0] - theta[..., -1]
    return gaps


def _delta(gaps: np.ndarray) -> np.ndarray:
    """``delta = sum tan(D_i / 2)`` along the last axis."""
    return np.sum(np.tan(0.5 * gaps), axis=-1)


def _snapshots(times, sines, deltas, frames) -> list:
    """The sign data of the given frames, one :class:`PathSnapshot` each."""
    eps = np.where(sines[frames] > 0.0, 1, -1)
    e, d = (eps > 0).sum(axis=1), np.where(deltas[frames] > 0.0, 1, -1)
    columns = (times[frames], eps, deltas[frames], d, e, determinant_sign(d, e))
    return [PathSnapshot(t, tuple(row), *rest)
            for t, row, *rest in zip(*(column.tolist() for column in columns))]


def deform(theta_start, theta_end, radius: float, steps: int = 2000) -> AngularPath:
    """Linear interpolation between two lifted angle vectors on one circle.

    Choosing different lifts of the endpoint angles selects different
    homotopy classes of the deformation; the frames sample t in [0, 1].
    """
    a = np.asarray(theta_start, dtype=float)
    b = np.asarray(theta_end, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise InvalidConfigurationError("angle vectors must share one shape")
    if steps < 2:
        raise InvalidConfigurationError("a path needs at least 2 frames")
    ts = np.linspace(0.0, 1.0, steps)
    angles = (1.0 - ts)[:, None] * a[None, :] + ts[:, None] * b[None, :]
    return AngularPath(radius=float(radius), times=ts, angles=angles)


def detect_events(path: AngularPath) -> list:
    """All flip / central / delta-zero events on the path, sorted by time.

    Edge events are sign changes of ``sin(D_i)`` between frames, timed in
    closed form on their frame segment (see the module docstring); the
    parity of the crossed multiple of pi tells a flip from a central
    crossing.  Delta zeros are the sign changes of ``delta`` between frames
    j and j + 1, except where that interval holds a central crossing: there
    the tangent pole of the crossing edge flips the sign without a zero.
    One :func:`brentq` call refines them all on their frame intervals,
    from the frame table's delta at both frames.
    Two events closer than the frame resolution violate the genericity
    assumption and raise, so each frame interval holds at most one event,
    and its two frames give the event's ``before`` and ``after``.
    """
    times = path.times
    res = path.resolution
    gaps, sines, deltas = path.frame_table

    signs = np.sign(sines)
    # edge-major, so the stable sort below lists simultaneous events by edge
    edges, rows = np.nonzero((signs[:-1] * signs[1:] < 0.0).T)
    g0, g1 = gaps[rows, edges], gaps[rows + 1, edges]
    multiples = np.rint((g0 + g1) / (2.0 * math.pi))
    t_edge = times[rows] + (multiples * math.pi - g0) / (g1 - g0) * (times[rows + 1] - times[rows])
    central = multiples % 2 == 1

    dsigns = np.sign(deltas)
    crossed = np.zeros(times.size - 1, dtype=bool)
    crossed[rows[central]] = True
    lo = np.flatnonzero((dsigns[:-1] * dsigns[1:] < 0.0) & ~crossed)
    t_delta = brentq(lambda t: _delta(path.gaps_at(t)), times[lo], times[lo + 1],
                     deltas[lo], deltas[lo + 1])

    t_all = np.concatenate([t_edge, t_delta])
    order = np.argsort(t_all, kind="stable")
    t_all, frames = t_all[order], np.concatenate([rows, lo])[order]
    kinds = np.concatenate([np.where(central, "central", "flip"),
                            np.full(lo.size, "delta_zero")])[order].tolist()
    close = np.flatnonzero(np.diff(t_all) < res)
    if close.size:
        j = close[0]
        raise NonGenericPathError(f"{kinds[j]} and {kinds[j + 1]} events coincide near "
                                  f"t = {0.5 * (t_all[j] + t_all[j + 1]):.6f}")
    # 1-based edges, 0 for a delta zero
    labels = np.concatenate([edges + 1, np.zeros(lo.size, dtype=int)])[order].tolist()
    return [Event(kind, edge or None, t, before, after)
            for kind, edge, t, before, after in zip(
                kinds, labels, t_all.tolist(), _snapshots(times, sines, deltas, frames),
                _snapshots(times, sines, deltas, frames + 1))]


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of the sign-dynamics checks over one path."""

    events: tuple
    violations: tuple
    frames_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def _planned_transition(event: Event) -> list:
    """Expected before/after differences: eps toggles at the event's edge
    alone (nowhere at a delta zero), d toggles unless the event is a flip,
    and h_sign toggles unless it is a central crossing."""
    b, a = event.before, event.after
    at = f"{event.kind.replace('_', ' ')} at t={event.t:.6f}"
    flip, central = event.kind == "flip", event.kind == "central"
    toggled = [i + 1 for i, (x, y) in enumerate(zip(b.eps, a.eps)) if x != y]
    planned = [event.edge] if flip or central else []
    problems = []
    if toggled != planned:
        problems.append(f"{at}: toggled eps {toggled} != {planned}" if planned
                        else f"{at}: eps toggled {toggled}")
    if (b.d != a.d) == flip:
        problems.append(f"{at}: d changed {b.d} -> {a.d}" if flip else f"{at}: d did not toggle")
    if (b.h_sign != a.h_sign) == central:
        problems.append(f"{at}: h_sign changed" if central else f"{at}: h_sign did not toggle")
    return problems


def check_lemmas(path: AngularPath, events: list) -> LemmaReport:
    """Verify the event transition table of ``events``, the
    :func:`detect_events` of ``path``, and piecewise constancy of the signs.

    Between consecutive events every frame must carry identical (eps, d),
    hence an identical determinant sign.  Violations are returned, not
    raised.
    """
    violations = []
    for event in events:
        violations.extend(_planned_transition(event))

    times = path.times
    res = path.resolution
    bounds = np.array([times[0]] + [e.t for e in events] + [times[-1]])
    # the frames with lo + res < t < hi - res of each segment (lo, hi), a
    # slice of the sorted times, empty where the two ends cross
    first = np.searchsorted(times, bounds[:-1] + res, side="right").tolist()
    last = np.searchsorted(times, bounds[1:] - res, side="left").tolist()
    _, sines, deltas = path.frame_table
    # one row of sign data per frame: eps_i > 0 for each edge, then d > 0
    table = np.column_stack([sines > 0.0, deltas > 0.0])
    checked = 0
    for lo, hi, start, stop in zip(bounds.tolist(), bounds[1:].tolist(), first, last):
        rows = table[start:stop]
        checked += len(rows)
        if np.any(rows != rows[:1]):
            violations.append(
                f"segment ({lo:.6f}, {hi:.6f}): sign data not constant across frames"
            )
    return LemmaReport(events=tuple(events), violations=tuple(violations),
                       frames_checked=checked)
