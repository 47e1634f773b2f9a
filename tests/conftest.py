"""Shared helpers for building random linkages and valid configurations, the
edge-angle chart the oracle's derivatives are checked against, and the
constraint check at 1e-9 that configurations are held to."""

import math

import numpy as np
import pytest

from linkmorse import Configuration, Linkage, analyze_linkage, solver
from linkmorse.errors import InvalidConfigurationError, InvalidLinkageError
from linkmorse.geometry import _as_points


def edge_lengths(points) -> np.ndarray:
    """Lengths of the edges p_i -> p_{i+1}, the closing edge last."""
    pts = _as_points(points)
    return np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)


def constraint_violations(linkage: Linkage, points) -> list:
    """``(kind, index)`` of each constraint of the linkage that the points miss
    by more than 1e-9 relative: ``("pinning", 1)`` and ``("pinning", 2)`` for
    p_1 = (0, 0) and p_2 = (0, l_1), within 1e-9 l_1, then ``("length", i)``
    for each edge i off l_i by more than 1e-9 l_i.  An empty list means the
    configuration satisfies the linkage."""
    pts = _as_points(points)
    if pts.shape[0] != linkage.n:
        raise InvalidConfigurationError("configuration and linkage sizes differ")
    l1 = float(linkage.lengths[0])
    pins = [np.hypot(*pts[0]), np.hypot(pts[1, 0], pts[1, 1] - l1)]
    return ([("pinning", i) for i, d in enumerate(pins, start=1) if d > 1e-9 * l1]
            + [("length", i) for i, (m, l) in enumerate(zip(edge_lengths(pts), linkage.lengths),
                                                     start=1) if abs(m - l) > 1e-9 * l])


def random_linkage(rng, n, lo=0.5, hi=2.0, margin=0.98):
    """Closable random lengths, kept away from the degenerate boundary."""
    while True:
        lengths = rng.uniform(lo, hi, size=n)
        if 2.0 * lengths.max() < margin * lengths.sum():
            return Linkage(lengths)


@pytest.fixture(scope="session")
def random_tables():
    """``(linkage, analyze_linkage(linkage))`` for random lengths with
    n = 4..16 edges, from ``default_rng(3 + n)``: up to 37782 unflagged
    configurations at n = 16."""
    linkages = [random_linkage(np.random.default_rng(3 + n), n) for n in range(4, 17)]
    return [(linkage, analyze_linkage(linkage)) for linkage in linkages]


def pin_points(points):
    """Rigidly move a polygon into the pinned frame (p1 at origin, p2 on +y)."""
    pts = np.asarray(points, dtype=float) - np.asarray(points[0], dtype=float)
    v = pts[1]
    norm = float(np.hypot(*v))
    ang = 0.5 * math.pi - math.atan2(v[1], v[0])
    rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
    out = pts @ rot.T
    out[0] = (0.0, 0.0)
    out[1] = (0.0, norm)
    return out


def random_valid_configuration(rng, n, scale=1.0):
    """A random closed polygon and the linkage it realizes exactly.

    The lengths are measured from the final pinned coordinates, so the
    configuration satisfies its linkage with zero error.  Generic samples are
    not cyclic.
    """
    while True:
        pts = rng.uniform(-scale, scale, size=(n, 2))
        if np.hypot(*(pts[1] - pts[0])) < 0.3 * scale:
            continue
        pinned = pin_points(pts)
        lengths = edge_lengths(pinned)
        if lengths.min() < 0.1 * scale:
            continue
        try:
            linkage = Linkage(lengths)
        except InvalidLinkageError:
            continue
        return linkage, Configuration(pinned)


def edge_angles(points) -> np.ndarray:
    """Directions ``phi_k`` of the edges p_k -> p_{k+1}, the closing edge
    last: the oracle's chart, of which phi_2..phi_n are free."""
    pts = _as_points(points)
    e = np.roll(pts, -1, axis=0) - pts
    return np.arctan2(e[:, 1], e[:, 0])


def chain_points(lengths, phi) -> np.ndarray:
    """Vertices ``p_1 = 0``, ``p_{k+1} = p_k + l_k (cos phi_k, sin phi_k)``
    for k < n: the configuration of edge angles that close."""
    steps = np.asarray(lengths, dtype=float)[:, None] * np.stack([np.cos(phi), np.sin(phi)],
                                                                 axis=1)
    return np.concatenate([np.zeros((1, 2)), np.cumsum(steps[:-1], axis=0)])


def closure_values(lengths, phi) -> np.ndarray:
    """The closure ``g = sum_k l_k (cos phi_k, sin phi_k)``, zero on the
    configurations of the linkage: the finite-difference reference of the
    oracle's constraint matrix."""
    lengths = np.asarray(lengths, dtype=float)
    return np.array([float(lengths @ np.cos(phi)), float(lengths @ np.sin(phi))])


def chart_area(lengths, phi) -> float:
    """``A = 1/2 sum_{i<j} l_i l_j sin(phi_j - phi_i)`` by a double loop:
    the shoelace area on closed configurations, and the finite-difference
    reference of the oracle's area gradient and Hessian."""
    n = len(phi)
    return 0.5 * sum(float(lengths[i] * lengths[j] * math.sin(phi[j] - phi[i]))
                     for i in range(n) for j in range(i + 1, n))


def regular_polygon_points(n, winding=1, ccw=True):
    """Unit-edge regular polygon or star in the pinned frame.

    ``winding`` 1 gives the convex polygon, 2 the star (n = 5 pentagram).
    """
    step = 2.0 * math.pi * winding / n
    radius = 1.0 / (2.0 * math.sin(step / 2.0))
    sign = 1.0 if ccw else -1.0
    cx = math.sqrt(max(radius * radius - 0.25, 0.0))
    center = np.array([-sign * cx, 0.5])
    theta1 = math.atan2(-center[1], -center[0])
    theta = theta1 + sign * step * np.arange(n)
    pts = center[None, :] + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts[0] = (0.0, 0.0)
    pts[1] = (0.0, 1.0)
    return pts, center, radius


def root_row(linkage: Linkage, eps, theta):
    """Radius, half-angles, center and vertices of the root ``theta`` of the
    orientation string ``eps``, by the per-root kernels of the enumeration
    (``solver._root_geometry`` and ``solver._vertices``) on one row."""
    rows = np.array([eps], dtype=float)
    radius, alphas, center = solver._root_geometry(linkage, rows, np.array([theta]))
    points = solver._vertices(linkage, radius, center, rows, alphas)
    return float(radius[0]), alphas[0], center[0], points[0]
