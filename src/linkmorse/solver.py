"""Enumeration of cyclic configurations by root finding in the largest half-angle.

A cyclic configuration is fixed by its orientation string E, its winding
number k and its half-angles ``alpha_i``.  All of them follow from one
variable, ``theta = arcsin(r_min / r)``, the half-angle of the longest edge:
with ``rho_i = l_i / l_max``, ``alpha_i = arcsin(rho_i sin theta)`` and
``r = r_min / sin theta``.  The circle of radius r carries a closed inscribed
realization of the linkage exactly when

    F(theta) = sum_i eps_i * alpha_i(theta) - pi * k = 0,

with ``dF/dtheta = cot(theta) * delta`` where ``delta = sum_i eps_i tan(alpha_i)``.
``theta`` runs over ``(0, pi/2]`` and tends to 0 as r grows without bound, so
one grid of :data:`SAMPLES` points uniform in theta covers every radius: there
is no radius cap.  The solver samples F on that grid for one orientation
string and all its feasible windings at once, refines each sign change in
theta and rebuilds vertex coordinates from the root.  Double roots hide at
zeros of delta, the extrema of F; one is accepted when
``|F| <= RESIDUAL_TOL * (sum alpha_i + pi |k|)``, and a root is flagged
``delta_zero`` when ``|delta| < DEGENERACY_TOL * sum tan(alpha_i)``, so both
tests scale with the problem.  Only the strings with ``eps_1 = +1`` are
scanned: the mirror string ``(-E, -k)`` has ``F_{-E,-k} = -F_{E,k}`` exactly
in floating point, so it reuses the same roots, descriptors and flags.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import InconsistentDescriptorError
from .geometry import (
    CircleFit,
    Configuration,
    Linkage,
    OrientationString,
    _readonly,
)

# Relative gap keeping the scan strictly above the minimum radius, where the
# largest edge would be a diameter.
_RMIN_MARGIN = 1e-12

# Grid points of the scan, uniform in theta.
SAMPLES = 4096

# First grid point, standing in for theta = 0 (r = inf): F has the sign of its
# limit there, -k, or the sign of sum(eps * l) for k = 0.  It is also brentq's
# ``xtol``, so roots are refined to ROOT_RTOL relative however far out.
_FAR_ANGLE = 1e-200

# Relative accuracy of refined roots in theta, passed to brentq as ``rtol``
# (which must be at least 4 machine epsilons).
ROOT_RTOL = 1e-14

# Roots of one (E, k) pair closer than this (relative, in theta) are merged.
MERGE_RTOL = 1e-10

# Flag threshold for central edges, near-flipped edges and delta zeros
# (|delta| against sum tan(alpha)).
DEGENERACY_TOL = 1e-7

# |F| accepted at a double (delta-zero) root, relative to sum(alpha) + pi |k|.
RESIDUAL_TOL = 1e-12

# Allowed absolute defect of the angular closure sum(2 eps_i alpha_i) = 2 pi k
# when rebuilding vertices from a descriptor.
CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class DegeneracyFlags:
    """Near-degeneracy markers for one root; any true entry disables the
    closed-form Morse analysis for that configuration."""

    central: tuple
    near_flip: tuple
    delta_zero: bool

    @property
    def any(self) -> bool:
        return bool(self.delta_zero or any(self.central) or any(self.near_flip))

    def to_json_dict(self) -> dict:
        return {
            "central": [bool(v) for v in self.central],
            "near_flip": [bool(v) for v in self.near_flip],
            "delta_zero": bool(self.delta_zero),
        }


def _half_angles(linkage: Linkage, theta) -> np.ndarray:
    """Half-angles ``arcsin(rho_i sin theta)`` for a scalar theta (shape n) or
    an array of them (one row each).  The longest edges take theta itself:
    ``arcsin(sin theta)`` loses half the digits near pi/2."""
    rho = linkage.lengths / linkage.lengths.max()
    theta = np.asarray(theta, dtype=float)[..., None]
    return np.where(rho == 1.0, theta, np.arcsin(rho * np.sin(theta)))


@dataclass(frozen=True)
class CyclicDescriptor:
    """Complete combinatorial-metric identification of a cyclic configuration:
    circle radius, winding number, orientation string, half-angles, center."""

    radius: float
    winding: int
    eps: OrientationString
    alphas: np.ndarray
    center: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "winding", int(self.winding))
        object.__setattr__(self, "alphas", _readonly(np.asarray(self.alphas, dtype=float)))
        object.__setattr__(self, "center", _readonly(np.asarray(self.center, dtype=float).reshape(2)))
        if len(self.eps) != self.alphas.size:
            raise InconsistentDescriptorError("orientation string and half-angles disagree in length")

    @property
    def n(self) -> int:
        return len(self.eps)

    @property
    def circle(self) -> CircleFit:
        return CircleFit(center=self.center, radius=self.radius)

    def closure_defect(self) -> float:
        """Absolute defect of the angular closure sum(2 eps_i alpha_i) = 2 pi k."""
        total = 2.0 * float(self.eps.array @ self.alphas)
        return abs(total - 2.0 * math.pi * self.winding)

    @classmethod
    def from_angle(cls, linkage: Linkage, eps, winding: int, theta: float) -> "CyclicDescriptor":
        """Build the descriptor for a root angle ``theta`` in ``(0, pi/2]``:
        radius ``r_min / sin theta``, the half-angles, and the center placed
        left/right of the pinned first edge according to ``eps_1``."""
        eps = eps if isinstance(eps, OrientationString) else OrientationString(tuple(eps))
        alphas = _half_angles(linkage, theta)
        radius = linkage.min_radius / math.sin(theta)
        cx = radius * math.cos(alphas[0])
        center = np.array([-cx if eps.eps[0] > 0 else cx, float(linkage.lengths[0]) / 2.0])
        return cls(radius=radius, winding=winding, eps=eps, alphas=alphas, center=center)

    def mirrored(self) -> "CyclicDescriptor":
        """Reflection across the pinned edge: all signs and the winding flip."""
        return CyclicDescriptor(
            radius=self.radius,
            winding=-self.winding,
            eps=self.eps.mirrored(),
            alphas=self.alphas,
            center=self.center * np.array([-1.0, 1.0]),
        )


@dataclass(frozen=True)
class CyclicConfiguration:
    """One enumerated critical point: descriptor, vertex coordinates, flags."""

    descriptor: CyclicDescriptor
    configuration: Configuration
    flags: DegeneracyFlags


def _eps_array(eps) -> np.ndarray:
    if isinstance(eps, OrientationString):
        return eps.array
    return OrientationString(tuple(eps)).array


def f_value(linkage: Linkage, eps, k: int, theta: float) -> float:
    """Closure function ``sum_i eps_i alpha_i(theta) - pi k``."""
    return float(_eps_array(eps) @ _half_angles(linkage, theta)) - math.pi * k


def delta_at_angle(linkage: Linkage, eps, theta: float) -> float:
    """``delta = sum_i eps_i tan(alpha_i)`` at the angle theta; the theta
    derivative of :func:`f_value` is ``cot(theta) * delta``."""
    return float(_eps_array(eps) @ np.tan(_half_angles(linkage, theta)))


def degeneracy_flags(eps, alphas) -> DegeneracyFlags:
    """Deterministic near-degeneracy flags for (E, alpha) at :data:`DEGENERACY_TOL`:
    an edge within ``DEGENERACY_TOL * r`` of a diameter, a half-angle below it,
    or ``|delta|`` below it times ``sum tan(alpha)``."""
    alphas = np.asarray(alphas, dtype=float)
    tangents = np.tan(alphas)
    delta = float(_eps_array(eps) @ tangents)
    return DegeneracyFlags(central=tuple((2.0 - 2.0 * np.sin(alphas) <= DEGENERACY_TOL).tolist()),
                           near_flip=tuple((alphas < DEGENERACY_TOL).tolist()),
                           delta_zero=bool(abs(delta) < DEGENERACY_TOL * float(tangents.sum())))


def _angle_grid() -> np.ndarray:
    """The scan grid: :data:`SAMPLES` steps uniform in theta up to the angle
    at ``r_min (1 + _RMIN_MARGIN)``, the first point moved from 0 to
    :data:`_FAR_ANGLE`."""
    grid = np.linspace(0.0, math.asin(1.0 / (1.0 + _RMIN_MARGIN)), SAMPLES + 1)
    grid[0] = _FAR_ANGLE
    return grid


def _bracket_masks(values: np.ndarray):
    """Isolated exact zeros and sign changes along the last axis of a sampled
    table.  Runs of consecutive exact zeros mark a degenerate family (the
    function vanishes identically there) and yield no isolated roots; a sign
    change at sample ``i`` brackets a root between samples ``i`` and ``i + 1``."""
    pos, neg, zero = values > 0.0, values < 0.0, values == 0.0
    isolated = zero.copy()
    isolated[..., 1:] &= ~zero[..., :-1]
    isolated[..., :-1] &= ~zero[..., 1:]
    return isolated, (pos[..., :-1] & neg[..., 1:]) | (neg[..., :-1] & pos[..., 1:])


def _merge(thetas: list) -> list:
    merged = []
    for t in sorted(thetas):
        if not merged or abs(t - merged[-1]) > MERGE_RTOL * t:
            merged.append(t)
    return merged


def _scan_string(linkage: Linkage, grid: np.ndarray, alphas_tab: np.ndarray,
                 tangents_tab: np.ndarray, eps: OrientationString, ks: np.ndarray) -> list:
    """Merged root angles of F for one orientation string, one sorted list
    per winding number in ``ks``.

    The closure sums are tabulated once for the string and offset by
    ``pi k`` for every winding at once; sign changes are refined by
    bracketing.  Double roots (where F and delta vanish together) are
    recovered by locating the zeros of delta and testing |F| there.
    """
    e_arr = eps.array
    closures = alphas_tab @ e_arr
    # The first point stands in for r = inf.  On a wall (sum eps_i l_i = 0, to
    # RESIDUAL_TOL) F and delta both vanish in that limit, which is no
    # configuration, and their signs next to it are rounding: scan from the
    # second point.
    start = int(abs(closures[0]) <= RESIDUAL_TOL * alphas_tab[0].sum())
    grid, closures, deltas = grid[start:], closures[start:], tangents_tab[start:] @ e_arr
    zeros, changes = _bracket_masks(closures[None, :] - math.pi * ks[:, None])
    thetas = [[] for _ in ks]
    # divmod of flat indices: a 2-D np.nonzero costs about nine times more (numpy 2.4).
    for j, i in zip(*np.divmod(np.flatnonzero(zeros), zeros.shape[1])):
        thetas[j].append(float(grid[i]))
    for j, i in zip(*np.divmod(np.flatnonzero(changes), changes.shape[1])):
        k = int(ks[j])
        thetas[j].append(float(brentq(lambda t: f_value(linkage, eps, k, t), grid[i], grid[i + 1],
                                      xtol=_FAR_ANGLE, rtol=ROOT_RTOL)))

    # Double roots hide at interior extrema of F, i.e. zeros of delta.
    zeros, changes = _bracket_masks(deltas)
    extrema = [float(t) for t in grid[zeros]]
    extrema.extend(float(brentq(lambda t: delta_at_angle(linkage, eps, t), grid[i], grid[i + 1],
                                xtol=_FAR_ANGLE, rtol=ROOT_RTOL))
                   for i in np.flatnonzero(changes))
    for t in extrema:
        alphas = _half_angles(linkage, t)
        scale = alphas.sum() + math.pi * np.abs(ks)
        for j in np.nonzero(np.abs(float(e_arr @ alphas) - math.pi * ks) <= RESIDUAL_TOL * scale)[0]:
            thetas[j].append(t)

    return [_merge(ts) for ts in thetas]


def solve_radii(linkage: Linkage, eps, k: int) -> list:
    """All radii solving F = 0 for one (E, k) pair, with degeneracy flags.

    Returns ``[(r, DegeneracyFlags), ...]`` sorted by radius.  Sign changes of
    the sampled closure function are refined by bracketing in theta; double
    roots (where F and delta vanish together) are recovered by locating the
    zeros of delta and testing |F| there, and arrive flagged ``delta_zero``.
    """
    eps = eps if isinstance(eps, OrientationString) else OrientationString(tuple(eps))
    grid = _angle_grid()
    alphas = _half_angles(linkage, grid)
    (thetas,) = _scan_string(linkage, grid, alphas, np.tan(alphas), eps, np.array([k]))
    descs = [CyclicDescriptor.from_angle(linkage, eps, k, t) for t in reversed(thetas)]
    return [(d.radius, degeneracy_flags(eps, d.alphas)) for d in descs]


def reconstruct(linkage: Linkage, desc: CyclicDescriptor) -> Configuration:
    """Vertex coordinates on the descriptor's circle in the pinned frame.

    Successive vertex angles advance by ``2 eps_i alpha_i``; the pinned
    vertices are snapped exactly to ``(0,0)`` and ``(0, l_1)``.
    """
    if desc.closure_defect() > CLOSURE_TOL:
        raise InconsistentDescriptorError(
            f"angular closure defect {desc.closure_defect():.3e} exceeds {CLOSURE_TOL:.0e}"
        )
    if desc.n != linkage.n:
        raise InconsistentDescriptorError("descriptor size does not match the linkage")
    center = desc.center
    theta1 = math.atan2(-center[1], -center[0])
    steps = 2.0 * desc.eps.array * desc.alphas
    theta = theta1 + np.concatenate([[0.0], np.cumsum(steps[:-1])])
    pts = center[None, :] + desc.radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts[0] = (0.0, 0.0)
    pts[1] = (0.0, float(linkage.lengths[0]))
    return Configuration(points=pts)


def _feasible_windings(n: int, positives: int):
    """Winding numbers k compatible with an orientation string having
    ``positives`` entries equal to +1: the closure sum is confined to the
    open interval (-(n - e) pi/2, e pi/2), so -(n - e) < 2k < e."""
    lo = math.floor(-(n - positives) / 2.0)
    hi = math.ceil(positives / 2.0)
    for k in range(lo, hi + 1):
        if -(n - positives) < 2 * k < positives:
            yield k


def enumerate_cyclic(linkage: Linkage) -> list:
    """Every cyclic configuration of the linkage.

    Scans the 2^(n-1) orientation strings with ``eps_1 = +1`` against all
    their feasible winding numbers at once and reuses each string's roots for
    its mirror ``(-E, -k)``: ``F_{-E,-k} = -F_{E,k}`` holds exactly in
    floating point, so the mirror's brackets and refined roots are
    bit-identical.  Each root is flagged and described once; the mirror item
    takes :meth:`CyclicDescriptor.mirrored` and the same flags, since
    ``central`` and ``near_flip`` depend on the half-angles alone and
    ``delta_zero`` on ``|delta|``.  Both items are reconstructed; the rebuilt
    vertices keep the string's orientations, since ``reconstruct`` steps by
    ``2 eps_i alpha_i`` with ``alpha_i < pi/2`` on every edge not flagged
    central.  Results are sorted by (winding, orientation string, radius).

    Returns a list of :class:`CyclicConfiguration`.
    """
    n = linkage.n
    grid = _angle_grid()
    alphas_tab = _half_angles(linkage, grid)
    tangents_tab = np.tan(alphas_tab)
    items = []

    for tail in itertools.product((1, -1), repeat=n - 1):
        eps = OrientationString((1,) + tail)
        ks = np.array(list(_feasible_windings(n, eps.positive_count)), dtype=int)
        roots = _scan_string(linkage, grid, alphas_tab, tangents_tab, eps, ks)
        for k, thetas in zip(ks, roots):
            for t in thetas:
                desc = CyclicDescriptor.from_angle(linkage, eps, int(k), t)
                flags = degeneracy_flags(eps, desc.alphas)
                for d in (desc, desc.mirrored()):
                    items.append(CyclicConfiguration(d, reconstruct(linkage, d), flags))

    items.sort(key=lambda it: (it.descriptor.winding, it.descriptor.eps.eps, it.descriptor.radius))
    return items
