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

from .errors import DegenerateCircleError, InvalidConfigurationError, InvalidLinkageError

# The one threshold of "passes through the circle center": an edge, or in morse
# a subconfiguration's closing chord, does when its distance from the center
# over r (|cross| / (|edge| * r) here, |cos S| there) is at most this.
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


def _json_numbers(values, field: str) -> None:
    """Raise TypeError unless each of ``values`` is a JSON number, which
    ``json.loads`` reads as an int or a float: ``float()`` and numpy would
    also take a string such as "1.5" or a boolean, which are not numbers.
    Callers run it after their own conversion, whose refusals keep their
    texts."""
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise TypeError(f"{field}: expected a JSON number, got {type(bad).__name__}")


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
    def min_radius(self) -> float:
        """Smallest radius of any circle inscribing all edges as chords."""
        return float(self.lengths.max()) / 2.0

    def to_json_dict(self) -> dict:
        return {"lengths": [float(v) for v in self.lengths]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Linkage":
        if not isinstance(data, dict) or "lengths" not in data:
            raise InvalidLinkageError('linkage JSON must be {"lengths": [...]}')
        linkage = cls(data["lengths"])
        try:
            _json_numbers(data["lengths"], "lengths")
        except TypeError as err:
            raise InvalidLinkageError(str(err)) from None
        return linkage


@dataclass(frozen=True)
class Configuration:
    """Ordered planar vertex list ``p_1..p_n``; neither the pinning nor the
    edge lengths of a linkage are enforced here."""

    points: np.ndarray

    def __post_init__(self):
        pts = _as_points(self.points)
        if pts.shape[0] < 3:
            raise InvalidConfigurationError("a configuration needs at least 3 vertices")
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @classmethod
    def from_json_dict(cls, data: dict) -> "Configuration":
        if not isinstance(data, dict) or "points" not in data:
            raise InvalidConfigurationError('configuration JSON must be {"points": [[x, y], ...]}')
        config = cls(data["points"])
        try:
            _json_numbers([v for point in data["points"] for v in point], "points")
        except TypeError as err:
            raise InvalidConfigurationError(str(err)) from None
        return config


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
        vals = tuple(self.eps)
        # checked before the cast to int, which would truncate 1.7 to 1
        if not vals or any(v not in (-1, 1) for v in vals):
            raise InvalidConfigurationError("orientation entries must be +1 or -1")
        object.__setattr__(self, "eps", tuple(int(v) for v in vals))

    def __len__(self) -> int:
        return len(self.eps)

    def __iter__(self):
        return iter(self.eps)


def signed_area(points) -> float:
    """Shoelace area of the closed vertex cycle.

    Positive for counterclockwise simple polygons; the closing edge
    ``p_n -> p_1`` is always included.
    """
    pts = _as_points(points)
    if pts.shape[0] < 3:
        raise InvalidConfigurationError("signed area needs at least 3 points")
    return float(_signed_areas(pts[None])[0])


# ---------------------------------------------------------------------------
# Stacked kernels: the same quantities for a stack of configurations, shape
# (rows, n, 2), which the caller has validated.  signed_area is their
# one-row case.


def _dot_rows(a, b) -> np.ndarray:
    """Dot products of matching vectors along the last axis.  A stacked
    ``matmul`` of a row by a column makes the same BLAS call per row as
    ``np.dot`` of two vectors, so each value has the same digits; an
    elementwise product summed along the axis may not."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _refusals(mask: np.ndarray, make) -> np.ndarray:
    """The refusal column of a (rows, items) mask of failed checks: per row,
    None, or the text ``make(row, item)`` of its first failed check."""
    errors = np.full(mask.shape[0], None, dtype=object)
    for row in np.flatnonzero(mask.any(axis=1)).tolist():
        errors[row] = make(row, int(mask[row].argmax()))
    return errors


def _signed_areas(pts: np.ndarray) -> np.ndarray:
    """Shoelace areas of stacked vertex cycles."""
    x, y = pts[..., 0], pts[..., 1]
    return 0.5 * (_dot_rows(x, np.roll(y, -1, axis=-1)) - _dot_rows(np.roll(x, -1, axis=-1), y))


def _orientation_rows(pts: np.ndarray, centers: np.ndarray):
    """Orientation strings, an int array of rows of +-1 (+1 where the center
    lies strictly left of the directed edge), of stacked configurations about
    their centers, and per row the refusal text of its first central edge,
    whose line passes the center within :data:`CENTRAL_CROSS_TOL` (None if it
    has none)."""
    e = np.roll(pts, -1, axis=1) - pts
    w = centers[:, None, :] - pts
    cross = e[..., 0] * w[..., 1] - e[..., 1] * w[..., 0]
    norm = np.linalg.norm(e, axis=2) * np.linalg.norm(w, axis=2)
    central = (norm == 0.0) | (np.abs(cross) <= CENTRAL_CROSS_TOL * norm)
    errors = _refusals(central, lambda row, i: f"edge {i + 1} passes through the circle center")
    return np.where(cross > 0, 1, -1), errors


def _half_angle_rows(pts: np.ndarray, centers: np.ndarray, radii: np.ndarray):
    """Half-angles ``alpha_i = arcsin(l_i / (2r))`` of the edges of stacked
    configurations on their circles, and per row the refusal text of its
    first edge longer than the diameter (beyond :data:`OVER_DIAMETER_TOL`),
    which cannot be a chord.

    Each ``alpha_i`` lies in (0, pi/2]; the side of the center is carried
    separately by the orientation string.  It is computed as
    ``atan2(l_i / 2, h_i)``, with ``h_i`` the distance from the center to the
    edge midpoint, which keeps its digits near a diameter: there
    ``pi/2 - alpha_i`` is about ``h_i / r``, the quantity
    :data:`CENTRAL_CROSS_TOL` thresholds, where ``arcsin`` of a ratio within
    rounding of 1 returns pi/2.
    """
    nxt = np.roll(pts, -1, axis=1)
    chords = nxt - pts
    lengths = np.hypot(chords[..., 0], chords[..., 1])
    diameters = 2.0 * radii
    over = lengths / diameters[:, None] > 1.0 + OVER_DIAMETER_TOL
    errors = _refusals(over, lambda row, i: (
        f"edge {i + 1} (length {lengths[row, i]:.12g}) exceeds the diameter "
        f"{diameters[row]:.12g}"))
    offsets = 0.5 * (pts + nxt) - centers[:, None, :]
    return np.arctan2(0.5 * lengths, np.hypot(offsets[..., 0], offsets[..., 1])), errors


def _convex_rows(pts: np.ndarray) -> np.ndarray:
    """Per stacked configuration, whether it is a strictly convex, positively
    oriented (ccw) polygon.

    Requires every turn to be a strict left turn and the total turning to be
    one full revolution, which rules out star polygons that are only locally
    convex; together they imply a positive area.
    """
    u = np.roll(pts, -1, axis=1) - pts  # p_{i+1} - p_i
    v = np.roll(u, -1, axis=1)  # p_{i+2} - p_{i+1}
    cross = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    total = np.arctan2(cross, _dot_rows(u, v)).sum(axis=1)
    return np.all(cross > 0.0, axis=1) & (np.abs(total - 2.0 * math.pi) < 1e-6)


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


def fit_circle(points):
    """Fit the circle through the first three vertices and test the rest.

    Returns a :class:`CircleFit` when every remaining vertex lies on that
    circle within ``INPUT_TOL * r``, otherwise ``None`` (the configuration
    is not cyclic at this tolerance).
    """
    pts = _as_points(points)
    if pts.shape[0] < 3:
        raise InvalidConfigurationError("circle fitting needs at least 3 points")
    fit = circumcircle(pts[0], pts[1], pts[2])
    dist = np.linalg.norm(pts - fit.center, axis=1)
    if np.any(np.abs(dist - fit.radius) > INPUT_TOL * fit.radius):
        return None
    return fit

