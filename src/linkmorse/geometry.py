"""Core geometry: linkages, pinned configurations, signed area, circle data.

A linkage is an ordered vector of positive edge lengths ``l_1..l_n``.  A
configuration places vertices ``p_1..p_n`` in the plane so that consecutive
distances match the lengths (indices cyclic) with the first edge pinned:
``p_1 = (0, 0)`` and ``p_2 = (0, l_1)`` on the +y axis.  Self-intersections
are allowed.  A configuration is *cyclic* when all vertices lie on one
circle; those are the objects the rest of the package enumerates and
classifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CentralConfigurationError,
    DegenerateCircleError,
    InvalidConfigurationError,
    InvalidLinkageError,
    NotInscribableError,
)

# Scale-invariant threshold: a directed edge counts as passing through the
# circle center when |cross| / (|edge| * r) falls below this.
CENTRAL_CROSS_TOL = 1e-9

# Relative slack for configurations read from outside the program (files,
# recorded artifacts): their vertices must lie on their circle, and satisfy
# their linkage, within this multiple of the radius or edge length.
INPUT_TOL = 1e-6

# An edge counts as longer than the diameter, and so as no chord, when
# l / (2r) exceeds 1 by more than this.
OVER_DIAMETER_TOL = 1e-9


def _as_points(points) -> np.ndarray:
    try:
        pts = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as err:
        raise InvalidConfigurationError(f"expected an (n, 2) array of planar points: {err}") from err
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise InvalidConfigurationError(
            f"expected an (n, 2) array of planar points, got shape {pts.shape}"
        )
    if not np.all(np.isfinite(pts)):
        raise InvalidConfigurationError("points contain non-finite values")
    return pts


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Linkage:
    """Ordered edge lengths of a closed planar chain.

    Requires n >= 3, all lengths positive, and closability: every length
    strictly shorter than the sum of the others (equivalently
    ``2 max(l) < sum(l)``), otherwise no closed configuration exists.
    """

    lengths: np.ndarray

    def __post_init__(self):
        try:
            arr = np.asarray(self.lengths, dtype=float)
        except (TypeError, ValueError) as err:
            raise InvalidLinkageError(f"edge lengths must be numbers: {err}") from err
        if arr.ndim != 1 or arr.size < 3:
            raise InvalidLinkageError("a linkage needs at least 3 edge lengths")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise InvalidLinkageError("edge lengths must be positive and finite")
        if 2.0 * arr.max() >= arr.sum():
            raise InvalidLinkageError(
                "not closable: one edge is at least as long as all others combined"
            )
        object.__setattr__(self, "lengths", _readonly(arr))

    @property
    def n(self) -> int:
        return self.lengths.size

    @property
    def perimeter(self) -> float:
        return float(self.lengths.sum())

    @property
    def min_radius(self) -> float:
        """Smallest radius of any circle inscribing all edges as chords."""
        return float(self.lengths.max()) / 2.0

    def to_json_dict(self) -> dict:
        return {"lengths": [float(v) for v in self.lengths]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Linkage":
        if not isinstance(data, dict) or "lengths" not in data:
            raise InvalidLinkageError('linkage JSON must be {"lengths": [...]}')
        return cls(data["lengths"])


@dataclass(frozen=True)
class Configuration:
    """Ordered planar vertex list ``p_1..p_n`` (pinning not enforced here).

    Constraint and pinning conformance is checked explicitly by
    :func:`validate_configuration`, so files can be loaded and then reported
    against a linkage.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        if pts.shape[0] < 3:
            raise InvalidConfigurationError("a configuration needs at least 3 vertices")
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def edge_lengths(self) -> np.ndarray:
        return edge_lengths(self.points)

    def to_json_dict(self) -> dict:
        return {"points": [[float(x), float(y)] for x, y in self.points]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Configuration":
        if not isinstance(data, dict) or "points" not in data:
            raise InvalidConfigurationError('configuration JSON must be {"points": [[x, y], ...]}')
        return cls(data["points"])


@dataclass(frozen=True)
class CircleFit:
    """Circle through a configuration's vertices: center and radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        ctr = np.asarray(self.center, dtype=float).reshape(2)
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise InvalidConfigurationError("circle radius must be positive")
        object.__setattr__(self, "center", _readonly(ctr))
        object.__setattr__(self, "radius", float(self.radius))


@dataclass(frozen=True)
class OrientationString:
    """Per-edge signs: +1 when the circle center lies left of the directed edge."""

    eps: tuple

    def __post_init__(self):
        vals = tuple(int(v) for v in self.eps)
        if not vals or any(v not in (-1, 1) for v in vals):
            raise InvalidConfigurationError("orientation entries must be +1 or -1")
        object.__setattr__(self, "eps", vals)

    def __len__(self) -> int:
        return len(self.eps)

    def __iter__(self):
        return iter(self.eps)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.eps, dtype=float)

    @property
    def positive_count(self) -> int:
        """Number of +1 entries (the parity input of the Hessian sign rule)."""
        return sum(1 for v in self.eps if v > 0)

    def mirrored(self) -> "OrientationString":
        return OrientationString(tuple(-v for v in self.eps))


def edge_lengths(points) -> np.ndarray:
    pts = _as_points(points)
    return np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)


def signed_area(points) -> float:
    """Shoelace area of the closed vertex cycle.

    Positive for counterclockwise simple polygons; the closing edge
    ``p_n -> p_1`` is always included.
    """
    pts = _as_points(points)
    if pts.shape[0] < 3:
        raise InvalidConfigurationError("signed area needs at least 3 points")
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


@dataclass(frozen=True)
class Violation:
    """One failed validation check: ``kind`` is 'length' or 'pinning'."""

    kind: str
    index: int
    measured: float
    expected: float

    def __str__(self) -> str:
        return (
            f"{self.kind} violation at index {self.index}: "
            f"measured {self.measured:.12g}, expected {self.expected:.12g}"
        )


def validate_configuration(linkage: Linkage, points, tol: float = 1e-9) -> list:
    """Check edge lengths and pinning; return a list of violations (empty = valid).

    Lengths must satisfy ``| |p_i - p_{i+1}| - l_i | <= tol * l_i``; the pinned
    vertices must sit at ``(0, 0)`` and ``(0, l_1)`` within ``tol * l_1``.
    """
    pts = _as_points(points)
    if pts.shape[0] != linkage.n:
        raise InvalidConfigurationError(
            f"configuration has {pts.shape[0]} vertices, linkage has {linkage.n}"
        )
    violations = []
    l1 = float(linkage.lengths[0])
    d1 = float(np.hypot(*pts[0]))
    if d1 > tol * l1:
        violations.append(Violation("pinning", 1, d1, 0.0))
    d2 = float(np.hypot(pts[1, 0], pts[1, 1] - l1))
    if d2 > tol * l1:
        violations.append(Violation("pinning", 2, d2, 0.0))
    measured = edge_lengths(pts)
    for i, (m, l) in enumerate(zip(measured, linkage.lengths), start=1):
        if abs(m - l) > tol * l:
            violations.append(Violation("length", i, float(m), float(l)))
    return violations


def circumcircle(a, b, c) -> CircleFit:
    """Circle through three points; raises if they are (nearly) collinear."""
    a = np.asarray(a, dtype=float)
    u = np.asarray(b, dtype=float) - a
    v = np.asarray(c, dtype=float) - a
    cross = u[0] * v[1] - u[1] * v[0]
    scale = np.linalg.norm(u) * np.linalg.norm(v)
    if scale == 0.0 or abs(cross) <= 1e-12 * scale:
        raise DegenerateCircleError("first three points are collinear")
    uu, vv = float(u @ u), float(v @ v)
    cx = (v[1] * uu - u[1] * vv) / (2.0 * cross)
    cy = (u[0] * vv - v[0] * uu) / (2.0 * cross)
    center = a + np.array([cx, cy])
    return CircleFit(center=center, radius=float(np.hypot(cx, cy)))


def fit_circle(points, tol: float = 1e-9):
    """Fit the circle through the first three vertices and test the rest.

    Returns a :class:`CircleFit` when every remaining vertex lies on that
    circle within ``tol * r``, otherwise ``None`` (the configuration is not
    cyclic at this tolerance).
    """
    pts = _as_points(points)
    if pts.shape[0] < 3:
        raise InvalidConfigurationError("circle fitting needs at least 3 points")
    fit = circumcircle(pts[0], pts[1], pts[2])
    dist = np.linalg.norm(pts - fit.center, axis=1)
    if np.any(np.abs(dist - fit.radius) > tol * fit.radius):
        return None
    return fit


def edge_orientations(points, center) -> OrientationString:
    """Side of the circle center relative to each directed edge.

    ``eps_i = +1`` when the center is strictly left of ``p_i -> p_{i+1}``,
    ``-1`` when strictly right.  An edge whose supporting line passes through
    the center (normalized cross below :data:`CENTRAL_CROSS_TOL`) makes the
    configuration central and raises.
    """
    pts = _as_points(points)
    ctr = np.asarray(center, dtype=float).reshape(2)
    nxt = np.roll(pts, -1, axis=0)
    e = nxt - pts
    w = ctr[None, :] - pts
    cross = e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0]
    norm = np.linalg.norm(e, axis=1) * np.linalg.norm(w, axis=1)
    for i in range(pts.shape[0]):
        if norm[i] == 0.0 or abs(cross[i]) <= CENTRAL_CROSS_TOL * norm[i]:
            raise CentralConfigurationError(
                f"edge {i + 1} passes through the circle center", index=i + 1
            )
    return OrientationString(tuple(1 if c > 0 else -1 for c in cross))


def measure_half_angles(points, fit: CircleFit) -> np.ndarray:
    """Half-angles ``alpha_i = arcsin(l_i / (2r))`` of the inscribed edges.

    Each ``alpha_i`` lies in (0, pi/2]; the side of the center is carried
    separately by the orientation string.  An edge longer than the diameter
    (beyond :data:`OVER_DIAMETER_TOL`) cannot be a chord and raises.
    """
    pts = _as_points(points)
    r = fit.radius
    lengths = edge_lengths(pts)
    ratios = lengths / (2.0 * r)
    over = np.nonzero(ratios > 1.0 + OVER_DIAMETER_TOL)[0]
    if over.size:
        i = int(over[0])
        raise NotInscribableError(
            f"edge {i + 1} (length {lengths[i]:.12g}) exceeds the diameter {2 * r:.12g}"
        )
    return np.arcsin(np.clip(ratios, 0.0, 1.0))


def is_convex_positive(points) -> bool:
    """True for a strictly convex, positively oriented (ccw) polygon.

    Requires every turn to be a strict left turn and the total turning to be
    one full revolution, which rules out star polygons that are only locally
    convex; together they imply a positive area.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    total = 0.0
    for i in range(n):
        u = pts[(i + 1) % n] - pts[i]
        v = pts[(i + 2) % n] - pts[(i + 1) % n]
        cross = u[0] * v[1] - u[1] * v[0]
        if cross <= 0.0:
            return False
        total += math.atan2(cross, float(u @ v))
    return abs(total - 2.0 * math.pi) < 1e-6
