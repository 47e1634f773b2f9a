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
and a central crossing for odd m.  Delta zeros are bisected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidConfigurationError,
    NonGenericPathError,
)
from .geometry import INPUT_TOL, CircleFit, Configuration, _as_points, _readonly
from .morse import determinant_sign

# Delta zeros are bisected in time until the bracket shrinks below this.
EVENT_REFINE_TOL = 1e-10

# Frames within this many resolutions of a central crossing are ignored when
# scanning for delta zeros: the tangent pole produces a sign jump there that
# is not a zero crossing.
POLE_MASK_FACTOR = 10


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
    """Sign data of one generic frame: orientations, delta, and derived signs."""

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
    events); ``before``/``after`` are snapshots straddling the event.
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
        if times.ndim != 1 or times.size < 2 or angles.shape != (times.size, angles.shape[1]):
            raise InvalidConfigurationError("path needs matching times and angle rows")
        if angles.shape[1] < 3:
            raise InvalidConfigurationError("path needs at least 3 vertices")
        if np.any(np.diff(times) <= 0.0):
            raise InvalidConfigurationError("times must increase strictly")
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

    def gaps_at(self, t: float) -> np.ndarray:
        """Lifted gaps at time t, linear between the two frames bracketing it."""
        times = self.times
        t = float(np.clip(t, times[0], times[-1]))
        j = int(np.clip(np.searchsorted(times, t) - 1, 0, times.size - 2))
        w = (t - times[j]) / (times[j + 1] - times[j])
        return _gaps(self.angles[j] + w * (self.angles[j + 1] - self.angles[j]))

    def gap_table(self) -> np.ndarray:
        """(frames, n) lifted angular gaps, closing edge included."""
        return _gaps(self.angles)

    def derived_lengths(self, frame: int) -> np.ndarray:
        """Edge lengths of the deformed linkage at one frame."""
        gaps = _gaps(self.angles[frame])
        return 2.0 * self.radius * np.abs(np.sin(0.5 * gaps))

    def snapshot(self, t: float) -> PathSnapshot:
        gaps = self.gaps_at(t)
        eps = tuple(1 if s > 0 else -1 for s in np.sin(gaps))
        delta = float(np.sum(np.tan(0.5 * gaps)))
        d = 1 if delta > 0 else -1
        e = sum(1 for v in eps if v > 0)
        return PathSnapshot(t=t, eps=eps, delta=delta, d=d, e=e, h_sign=determinant_sign(d, e))

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


def _bisect(func, lo: float, hi: float) -> float:
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


def detect_events(path: AngularPath) -> list:
    """All flip / central / delta-zero events on the path, sorted by time.

    Edge events are sign changes of ``sin(D_i)`` between frames, timed in
    closed form on their frame segment (see the module docstring); the
    parity of the crossed multiple of pi tells a flip from a central
    crossing.  Delta zeros are sign changes of ``delta(t)`` outside masked
    windows around central crossings, where the tangent pole flips the sign
    without a zero; they are bisected.  Two events closer than the frame
    resolution violate the genericity assumption and raise.
    """
    gaps = path.gap_table()
    times = path.times
    res = path.resolution

    signs = np.sign(np.sin(gaps))
    # edge-major, so the stable sort below lists simultaneous events by edge
    edges, rows = np.nonzero((signs[:-1] * signs[1:] < 0.0).T)
    g0, g1 = gaps[rows, edges], gaps[rows + 1, edges]
    multiples = np.rint((g0 + g1) / (2.0 * math.pi))
    t_edge = times[rows] + (multiples * math.pi - g0) / (g1 - g0) * (times[rows + 1] - times[rows])
    events = [(float(t), "central" if m % 2 else "flip", int(edge))
              for t, m, edge in zip(t_edge, multiples, edges)]

    central_ts = [t for t, kind, _ in events if kind == "central"]
    mask = POLE_MASK_FACTOR * res
    delta_col = np.sum(np.tan(0.5 * gaps), axis=1)
    dsigns = np.sign(delta_col)
    for j in np.nonzero(dsigns[:-1] * dsigns[1:] < 0.0)[0]:
        lo, hi = float(times[j]), float(times[j + 1])
        if any(lo - mask <= tc <= hi + mask for tc in central_ts):
            continue
        t_star = _bisect(lambda t: float(np.sum(np.tan(0.5 * path.gaps_at(t)))),
                         lo, hi)
        events.append((t_star, "delta_zero", None))

    events.sort(key=lambda item: item[0])
    for (t0, k0, e0), (t1, k1, e1) in zip(events, events[1:]):
        if t1 - t0 < res:
            raise NonGenericPathError(
                f"{k0} and {k1} events coincide near t = {0.5 * (t0 + t1):.6f}"
            )

    out = []
    for t_star, kind, edge in events:
        gap = min(0.5 * res, t_star - times[0], times[-1] - t_star)
        gap = max(gap, EVENT_REFINE_TOL)
        before = path.snapshot(t_star - gap)
        after = path.snapshot(t_star + gap)
        out.append(Event(kind=kind, edge=None if edge is None else edge + 1,
                         t=t_star, before=before, after=after))
    return out


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
    """Expected before/after differences for each event kind:
    flip    -> h_sign toggles, exactly its eps entry toggles, d constant;
    central -> d toggles, exactly its eps entry toggles, h_sign constant;
    delta 0 -> h_sign and d toggle, eps constant."""
    b, a = event.before, event.after
    toggled = [i + 1 for i, (x, y) in enumerate(zip(b.eps, a.eps)) if x != y]
    problems = []
    if event.kind == "flip":
        if toggled != [event.edge]:
            problems.append(f"flip at t={event.t:.6f}: toggled eps {toggled} != [{event.edge}]")
        if b.d != a.d:
            problems.append(f"flip at t={event.t:.6f}: d changed {b.d} -> {a.d}")
        if b.h_sign != -a.h_sign:
            problems.append(f"flip at t={event.t:.6f}: h_sign did not toggle")
    elif event.kind == "central":
        if toggled != [event.edge]:
            problems.append(f"central at t={event.t:.6f}: toggled eps {toggled} != [{event.edge}]")
        if b.d != -a.d:
            problems.append(f"central at t={event.t:.6f}: d did not toggle")
        if b.h_sign != a.h_sign:
            problems.append(f"central at t={event.t:.6f}: h_sign changed")
    else:
        if toggled:
            problems.append(f"delta zero at t={event.t:.6f}: eps toggled {toggled}")
        if b.d != -a.d:
            problems.append(f"delta zero at t={event.t:.6f}: d did not toggle")
        if b.h_sign != -a.h_sign:
            problems.append(f"delta zero at t={event.t:.6f}: h_sign did not toggle")
    return problems


def check_lemmas(path: AngularPath, events: list | None = None) -> LemmaReport:
    """Verify the event transition table and piecewise constancy of the signs.

    Between consecutive events every frame must carry identical (eps, d),
    hence an identical determinant sign.  Violations are returned, not
    raised.
    """
    if events is None:
        events = detect_events(path)
    violations = []
    for event in events:
        violations.extend(_planned_transition(event))

    times = path.times
    res = path.resolution
    bounds = [float(times[0])] + [e.t for e in events] + [float(times[-1])]
    gaps = path.gap_table()
    # one row of sign data per frame: eps_i > 0 for each edge, then d > 0
    table = np.column_stack([np.sin(gaps) > 0.0, np.sum(np.tan(0.5 * gaps), axis=1) > 0.0])
    checked = 0
    for lo, hi in zip(bounds, bounds[1:]):
        rows = table[(times > lo + res) & (times < hi - res)]
        checked += len(rows)
        if np.any(rows != rows[:1]):
            violations.append(
                f"segment ({lo:.6f}, {hi:.6f}): sign data not constant across frames"
            )
    return LemmaReport(events=tuple(events), violations=tuple(violations),
                       frames_checked=checked)
