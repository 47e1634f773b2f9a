"""Enumeration of cyclic configurations by radius root finding.

For a fixed orientation string E and winding number k, a circle of radius r
carries a closed inscribed realization of the linkage exactly when

    F(r) = sum_i eps_i * arcsin(l_i / (2r)) - pi * k = 0,

with dF/dr = -delta / r where ``delta = sum_i eps_i tan(alpha_i)``.  The
solver samples F over a bracketing grid of r for one orientation string and
all its feasible windings at once, refines each sign change and rebuilds
vertex coordinates from the root.  Only the strings with ``eps_1 = +1`` are
scanned: the mirror string ``(-E, -k)`` has ``F_{-E,-k} = -F_{E,k}`` exactly
in floating point, so it reuses the same roots, descriptors and flags.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import (
    InconsistentDescriptorError,
    NotInscribableError,
    SingularDerivativeError,
    SolverDomainError,
)
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

# Grid points per spacing scheme of the radius scan.
SAMPLES = 4096

# Upper end of the radius scan as a multiple of the minimum radius.
CAP_FACTOR = 1e3

# Relative radius accuracy of refined roots, passed to brentq as ``rtol``
# (which must be at least 4 machine epsilons).
ROOT_RTOL = 1e-14

# Roots of one (E, k) pair closer than this (relative) are merged.
MERGE_RTOL = 1e-10

# Flag threshold for central edges, near-flipped edges and delta zeros.
DEGENERACY_TOL = 1e-7

# |F| accepted at a double (delta-zero) root.
RESIDUAL_TOL = 1e-9

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
    def from_radius(cls, linkage: Linkage, eps, winding: int, radius: float) -> "CyclicDescriptor":
        """Build the descriptor for a root radius: half-angles from the chord
        relation and the center placed left/right of the pinned first edge
        according to ``eps_1``."""
        eps = eps if isinstance(eps, OrientationString) else OrientationString(tuple(eps))
        ratios = linkage.lengths / (2.0 * radius)
        if np.any(ratios > 1.0 + 1e-12):
            raise NotInscribableError("radius below the minimum circumradius")
        alphas = np.arcsin(np.clip(ratios, 0.0, 1.0))
        half = float(linkage.lengths[0]) / 2.0
        cx = math.sqrt(max(radius * radius - half * half, 0.0))
        center = np.array([-cx if eps.eps[0] > 0 else cx, half])
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


def f_value(linkage: Linkage, eps, k: int, r: float) -> float:
    """Closure function ``sum_i eps_i arcsin(l_i / (2r)) - pi k``."""
    if r < linkage.min_radius:
        raise SolverDomainError(
            f"radius {r:.12g} below minimum circumradius {linkage.min_radius:.12g}"
        )
    e = _eps_array(eps)
    ratios = np.clip(linkage.lengths / (2.0 * r), 0.0, 1.0)
    return float(e @ np.arcsin(ratios)) - math.pi * k


def f_derivative(linkage: Linkage, eps, r: float) -> float:
    """Radius derivative of the closure function, ``-delta / r``.

    Each term differentiates to ``-l_i / (2 r^2 cos(alpha_i))``, which the
    chord relation turns into ``-tan(alpha_i) / r``; matches centered finite
    differences of :func:`f_value`.
    """
    if r <= linkage.min_radius:
        raise SolverDomainError(
            f"radius {r:.12g} must exceed the minimum circumradius {linkage.min_radius:.12g}"
        )
    e = _eps_array(eps)
    ratios = linkage.lengths / (2.0 * r)
    if np.any(1.0 - ratios <= 1e-15):
        raise SingularDerivativeError("an edge is (numerically) a diameter at this radius")
    tangents = ratios / np.sqrt(1.0 - ratios * ratios)
    return -float(e @ tangents) / r


def delta_at_radius(linkage: Linkage, eps, r: float) -> float:
    """``delta = sum_i eps_i tan(alpha_i)`` evaluated at radius r."""
    e = _eps_array(eps)
    ratios = np.clip(linkage.lengths / (2.0 * r), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        tangents = np.where(ratios < 1.0, ratios / np.sqrt(np.maximum(1.0 - ratios * ratios, 0.0)), np.inf)
    return float(e @ tangents)


def degeneracy_flags(linkage: Linkage, eps, r: float) -> DegeneracyFlags:
    """Deterministic near-degeneracy flags for (L, E, r) at :data:`DEGENERACY_TOL`."""
    lengths = linkage.lengths
    central = tuple(bool(2.0 * r - l <= DEGENERACY_TOL * r) for l in lengths)
    alphas = np.arcsin(np.clip(lengths / (2.0 * r), 0.0, 1.0))
    near_flip = tuple(bool(a < DEGENERACY_TOL) for a in alphas)
    delta = delta_at_radius(linkage, eps, r)
    return DegeneracyFlags(central=central, near_flip=near_flip,
                           delta_zero=bool(math.isfinite(delta) and abs(delta) < DEGENERACY_TOL))


def _radius_grid(linkage: Linkage) -> np.ndarray:
    """Bracketing grid: geometric spacing over the full range plus a grid
    uniform in the largest half-angle, which resolves the steep region just
    above the minimum radius."""
    r_min = linkage.min_radius
    lo = r_min * (1.0 + _RMIN_MARGIN)
    hi = r_min * CAP_FACTOR
    geometric = np.geomspace(lo, hi, SAMPLES)
    u = np.linspace(math.asin(r_min / hi), 0.5 * math.pi * (1.0 - _RMIN_MARGIN), SAMPLES)
    steep = r_min / np.sin(u[::-1])
    grid = np.clip(np.concatenate([geometric, steep]), lo, hi)
    return np.unique(grid)


def _angle_tables(linkage: Linkage, grid: np.ndarray):
    """Per-grid-point half-angles and their tangents for every edge; the
    grid stays above ``r_min``, so every ``l / 2r < 1`` and every tangent is finite."""
    ratios = linkage.lengths[None, :] / (2.0 * grid[:, None])
    return np.arcsin(ratios), ratios / np.sqrt(1.0 - ratios * ratios)


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


def _merge_radii(radii: list) -> list:
    merged = []
    for r in sorted(radii):
        if not merged or abs(r - merged[-1]) > MERGE_RTOL * r:
            merged.append(r)
    return merged


def _scan_string(linkage: Linkage, grid: np.ndarray, alphas_tab: np.ndarray,
                 tangents_tab: np.ndarray, eps: OrientationString, ks: np.ndarray) -> list:
    """Merged root radii of F for one orientation string, one sorted list per
    winding number in ``ks``.

    The closure sums are tabulated once for the string and offset by
    ``pi k`` for every winding at once; sign changes are refined by
    bracketing.  Double roots (where F and delta vanish together) are
    recovered by locating the zeros of delta and testing |F| there.
    """
    xtol = linkage.min_radius * 1e-15
    e_arr = eps.array
    f_tab = (alphas_tab @ e_arr)[None, :] - math.pi * ks[:, None]
    zeros, changes = _bracket_masks(f_tab)
    radii = [[] for _ in ks]
    # divmod of flat indices: a 2-D np.nonzero costs about nine times more (numpy 2.4).
    for j, i in zip(*np.divmod(np.flatnonzero(zeros), zeros.shape[1])):
        radii[j].append(float(grid[i]))
    for j, i in zip(*np.divmod(np.flatnonzero(changes), changes.shape[1])):
        k = int(ks[j])
        radii[j].append(float(brentq(lambda r: f_value(linkage, eps, k, r), grid[i], grid[i + 1],
                                     xtol=xtol, rtol=ROOT_RTOL)))

    # Double roots hide at interior extrema of F, i.e. zeros of delta.
    zeros, changes = _bracket_masks(tangents_tab @ e_arr)
    extrema = [float(r) for r in grid[zeros]]
    extrema.extend(float(brentq(lambda r: delta_at_radius(linkage, eps, r), grid[i], grid[i + 1],
                                xtol=xtol, rtol=ROOT_RTOL))
                   for i in np.flatnonzero(changes))
    for r in extrema:
        closure = f_value(linkage, eps, 0, r)
        for j in np.nonzero(np.abs(closure - math.pi * ks) <= RESIDUAL_TOL)[0]:
            radii[j].append(r)

    return [_merge_radii(rs) for rs in radii]


def solve_radii(linkage: Linkage, eps, k: int) -> list:
    """All radii solving F(r) = 0 for one (E, k) pair, with degeneracy flags.

    Returns ``[(r, DegeneracyFlags), ...]`` sorted by radius.  Sign changes of
    the sampled closure function are refined by bracketing; double roots
    (where F and delta vanish together) are recovered by locating the zeros
    of delta and testing |F| there, and arrive flagged ``delta_zero``.
    """
    eps = eps if isinstance(eps, OrientationString) else OrientationString(tuple(eps))
    grid = _radius_grid(linkage)
    alphas, tangents = _angle_tables(linkage, grid)
    (radii,) = _scan_string(linkage, grid, alphas, tangents, eps, np.array([k]))
    return [(r, degeneracy_flags(linkage, eps, r)) for r in radii]


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
    ``central`` and ``near_flip`` depend on r alone and ``delta_zero`` on
    ``|delta|``.  Both items are reconstructed; the rebuilt vertices keep the
    string's orientations, since ``reconstruct`` steps by
    ``2 eps_i alpha_i`` with ``alpha_i < pi/2`` on every edge not flagged
    central.  Results are sorted by (winding, orientation string, radius).

    Returns a list of :class:`CyclicConfiguration`.
    """
    n = linkage.n
    grid = _radius_grid(linkage)
    alphas_tab, tangents_tab = _angle_tables(linkage, grid)
    items = []

    for tail in itertools.product((1, -1), repeat=n - 1):
        eps = OrientationString((1,) + tail)
        ks = np.array(list(_feasible_windings(n, eps.positive_count)), dtype=int)
        roots = _scan_string(linkage, grid, alphas_tab, tangents_tab, eps, ks)
        for k, radii in zip(ks, roots):
            for r in radii:
                flags = degeneracy_flags(linkage, eps, r)
                desc = CyclicDescriptor.from_radius(linkage, eps, int(k), r)
                for d in (desc, desc.mirrored()):
                    items.append(CyclicConfiguration(d, reconstruct(linkage, d), flags))

    items.sort(key=lambda it: (it.descriptor.winding, it.descriptor.eps.eps, it.descriptor.radius))
    return items
