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
is no radius cap.

The scan runs once per linkage, over blocks of orientation strings, and
bounds the closure sums ``C = sum eps_i alpha_i`` coarse to fine by one
rule.  Every ``alpha_i`` is increasing and concave in theta, so on a cell
[a, b] C lies within a gap G of its chord, where G is the tangent gap of
the total ``T = sum alpha_i`` and so the same for every string
(:func:`_cell_gaps`).  These bounds, taken from every :data:`_STEP`-th grid
point, prove about 99% of the coarse cells free of any level ``pi k``: the
first cell, which reaches r = inf where C tends to the level 0, by a rule
of its own, unless the string lies near a wall (:func:`_coarse_cells`).
Only the other cells are tabulated at every grid point, a chunk of them
per matrix product, and each of their grid cells is bounded by the same
rule from its own ends.  A grid cell whose bound, widened past a slack,
meets a level is a candidate.  The sums only mark candidates: the exact
test runs on the values of :func:`_scan_rows` at both ends of each
candidate cell, those :func:`brentq` starts from, at every winding the
closure range admits at once: a sign change of ``C - pi k`` brackets a
root, and an exact zero is one.  F and delta are analytic in theta, and
vanish identically only on a string whose +1 and -1 edges carry the same
lengths; such a string has no root and is not scanned (see
:func:`_vanishing`).  A double root lies at a zero of delta, an extremum of
F, where F can touch a level between two samples without changing sign; one
is accepted when ``|F| <= RESIDUAL_TOL * (sum alpha_i + pi |k|)``, far
inside the widening, so the bound that holds C on the whole cell marks it,
and delta is only evaluated at the ends of candidate cells.  One call of
:func:`brentq`, a Brent's method over stacked rows of :func:`_scan_rows`,
refines every bracket of F and of delta at once, started from the values
at the ends that the sign tests read.  A root is flagged
``delta_zero`` when ``|delta| < DEGENERACY_TOL * sum tan(alpha_i)``, so
both tests scale with the problem.  Only the strings with ``eps_1 = +1``
are scanned: the mirror string ``(-E, -k)`` has ``F_{-E,-k} = -F_{E,k}``
exactly in floating point, so it reuses the same roots, descriptors and
flags.

The per-root tail is batched too: the roots' geometry, flags and closure
check are array operations, and one sort orders roots and mirrors into the
columns of one :class:`CyclicTable`, whose per-item objects are views of a
row, built only when a row is asked for.  The solver is the one module that
knows the pairing: :func:`_enumerate` returns each row's mirror row with
the table.  The scan covers ``2^(n-1)``
strings, so linkages with more than :data:`MAX_EDGES` edges are refused
before it starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InconsistentDescriptorError, InvalidLinkageError
from .geometry import (
    Configuration,
    Linkage,
    OrientationString,
    _dot_rows,
    _readonly,
)

# Relative gap keeping the scan strictly above the minimum radius, where the
# largest edge would be a diameter.
_RMIN_MARGIN = 1e-12

# Grid points of the scan, uniform in theta.
SAMPLES = 4096

# Grid samples per coarse cell of the scan: the cells are bounded from every
# _STEP-th sample, and only those that may hold a candidate are tabulated in
# full.
_STEP = 64

# Orientation strings per block of the scan: the block's coarse tables
# (strings x cells + 1) take at most 2^16 values (512 kB) whatever n is.  No
# table of the scan reaches 655 kB (the half-angles of kept cells, and the
# temporaries of their gaps, take 520 kB at n = 16): freeing one would raise
# the allocator's threshold for mapping memory.
_BLOCK = 2 ** 16 // (SAMPLES // _STEP + 1)

# Windows per chunk of the fine scan: a window holds one cell's samples, and
# a chunk at most 3 x 2^12 values (96 kB) in each of its three work arrays.
# Measured at n = 10 and 16 together (BENCH_scan.json): fewer cost time at
# n = 16, more make a call at n = 10 grow the heap past what the call before
# it left.
_WINDOWS = 182

# Relative allowance for rounding in the cell bounds, against the sum of the
# half-angles at the cell's upper end: far above the n machine epsilons
# (3.6e-15 at n = 16) by which rounding can move a sum of n terms, and above
# the 3e-13 by which a rounded arcsin input can move a half-angle near pi/2
# (see tests/test_solver.py::test_cell_bounds_hold_every_sample).
_BOUND_RTOL = 1e-12

# Widening of the cell bounds, coarse and fine alike, in units of pi: each
# bound is widened by twice it.  It is far above the rounding of C / pi, the
# last-bit gap between the sums that mark candidates and _scan_rows, and the
# |F| a double root may have (at most about 5e-11, see RESIDUAL_TOL), so a
# cell where _scan_rows' C - pi k vanishes or changes sign at its ends, or
# where F touches a level at a zero of delta, is a candidate.
_LEVEL_SLACK = 1e-9

# Largest number of edges enumerate_cyclic accepts.  The scan covers
# 2^(n-1) strings and the number of configurations grows about as fast:
# ``linkmorse enumerate -o``, which runs no analysis, on random lengths in
# [0.5, 2] took 0.2-0.4 s at n = 12, 0.4-0.6 s at n = 14 and 1.4-2.1 s at
# n = 16 (37796 configurations, 79 MB peak; 0.15-0.18 s of it
# enumerate_cyclic, 1.1-1.3 s writing the 88 MB artifact) on a 2-core
# x86-64 host with Python 3.11, import included (BENCH_columns.json).  Each
# edge more about doubles the scan and the configurations, and so the time.
MAX_EDGES = 16

# First grid point, standing in for theta = 0 (r = inf): F has the sign of its
# limit there, -k, or the sign of sum(eps * l) for k = 0.  It is also brentq's
# ``xtol``, so roots are refined to ROOT_RTOL relative however far out.
_FAR_ANGLE = 1e-200

# Relative accuracy of refined roots in theta, brentq's ``rtol`` (at least
# 4 machine epsilons, as scipy requires of it).
ROOT_RTOL = 1e-14

# Iterations after which brentq gives a bracket up, scipy's default.
_MAXITER = 100

# Flag threshold for central edges (cos alpha), near-flipped edges and delta
# zeros (|delta| against sum tan(alpha)).  verify recomputes arcsin(l / 2r)
# from a recorded r, which resolves cos alpha to 3e-16 / cos alpha, so it stays
# far above geometry.CENTRAL_CROSS_TOL, the refusal measured from the points.
DEGENERACY_TOL = 1e-7

# |F| accepted at a double (delta-zero) root, relative to sum(alpha) + pi |k|.
RESIDUAL_TOL = 1e-12

# Allowed absolute defect of the angular closure sum(2 eps_i alpha_i) = 2 pi k
# of a root before its vertices are rebuilt.
CLOSURE_TOL = 1e-9


@dataclass(frozen=True)
class DegeneracyFlags:
    """Near-degeneracy markers for one root, by the rule of :func:`_flag_rows`
    at :data:`DEGENERACY_TOL`: edge i is ``central`` when
    ``cos(alpha_i) <= DEGENERACY_TOL``, its distance from the center over r, and
    ``near_flip`` when ``alpha_i < DEGENERACY_TOL``; ``delta_zero`` holds when
    ``|delta| < DEGENERACY_TOL * sum tan(alpha)``.  Any true entry disables
    the closed-form Morse analysis for that configuration."""

    central: tuple
    near_flip: tuple
    delta_zero: bool

    @property
    def any(self) -> bool:
        return bool(self.delta_zero or any(self.central) or any(self.near_flip))


def _ratios(linkage: Linkage) -> np.ndarray:
    """``rho_i = l_i / l_max``."""
    return linkage.lengths / linkage.lengths.max()


def _half_angles(rho: np.ndarray, theta) -> np.ndarray:
    """Half-angles ``arcsin(rho_i sin theta)`` for a scalar theta (shape n) or
    an array of them (one row each).  The longest edges take theta itself:
    ``arcsin(sin theta)`` loses half the digits near pi/2."""
    theta = np.asarray(theta, dtype=float)[..., None]
    alphas = rho * np.sin(theta)
    np.arcsin(alphas, out=alphas)
    np.copyto(alphas, theta, where=rho == 1.0)
    return alphas


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
        if not float(self.winding).is_integer():
            raise InconsistentDescriptorError(f"winding {self.winding} is not an integer")
        object.__setattr__(self, "winding", int(self.winding))
        object.__setattr__(self, "alphas", _readonly(np.asarray(self.alphas, dtype=float)))
        object.__setattr__(self, "center", _readonly(np.asarray(self.center, dtype=float).reshape(2)))
        if len(self.eps) != self.alphas.size:
            raise InconsistentDescriptorError("orientation string and half-angles disagree in length")


@dataclass(frozen=True)
class CyclicConfiguration:
    """One enumerated critical point: descriptor, vertex coordinates, flags.
    A view of one row of a :class:`CyclicTable`."""

    descriptor: CyclicDescriptor
    configuration: Configuration
    flags: DegeneracyFlags


class _Table:
    """Dataclass columns of equal length, one row per item, made read-only.

    ``len()``, iteration, integer and slice indexing work as on a list: an
    integer gives the row view that ``_row`` builds on demand, and a slice a
    table of the same class over those rows.
    """

    def __post_init__(self):
        for field in fields(self):
            getattr(self, field.name).flags.writeable = False

    def __len__(self) -> int:
        return len(getattr(self, fields(self)[0].name))

    def __iter__(self):
        return map(self._row, range(len(self)))

    def __getitem__(self, key):
        if isinstance(key, slice):
            return replace(self, **{f.name: getattr(self, f.name)[key] for f in fields(self)})
        return self._row(range(len(self))[key])


@dataclass(frozen=True)
class CyclicTable(_Table):
    """Every cyclic configuration of a linkage, one row each, as read-only
    columns: the orientation strings ``eps`` (int rows of +-1), windings
    ``k``, radii, half-angles ``alphas``, centers, vertices ``points`` of
    shape (rows, n, 2), the :class:`DegeneracyFlags` masks ``central``,
    ``near_flip`` and ``delta_zero``, and ``flagged``, whether a row has any
    of them.  The mirror ``(-E, -k)`` of every row is a row too, with the
    same radius, half-angles and flags and the center reflected across the
    pinned edge.  An integer index gives the row's
    :class:`CyclicConfiguration` view.
    """

    eps: np.ndarray
    k: np.ndarray
    radius: np.ndarray
    alphas: np.ndarray
    center: np.ndarray
    points: np.ndarray
    central: np.ndarray
    near_flip: np.ndarray
    delta_zero: np.ndarray
    flagged: np.ndarray

    def _row(self, j: int) -> CyclicConfiguration:
        desc = CyclicDescriptor(radius=self.radius[j], winding=int(self.k[j]),
                                eps=OrientationString(tuple(self.eps[j].tolist())),
                                alphas=self.alphas[j], center=self.center[j])
        flags = DegeneracyFlags(central=tuple(self.central[j].tolist()),
                                near_flip=tuple(self.near_flip[j].tolist()),
                                delta_zero=bool(self.delta_zero[j]))
        return CyclicConfiguration(desc, Configuration(points=self.points[j]), flags)


def _scan_rows(theta: np.ndarray, rho: np.ndarray, eps: np.ndarray, k, delta) -> np.ndarray:
    """``F = sum_i eps_i alpha_i(theta) - pi k`` of each row (one angle,
    string and winding per row), or ``delta = sum_i eps_i tan(alpha_i)``
    where ``delta`` is True: those rows take k = 0, and ``- pi * 0.0``
    leaves delta bit for bit."""
    values = _half_angles(rho, theta)
    values[delta] = np.tan(values[delta])
    return _dot_rows(eps, values) - math.pi * k


def _closures_and_deltas(rho: np.ndarray, theta: np.ndarray, eps: np.ndarray):
    """``C = sum_i eps_i alpha_i`` and ``delta`` of each row, bit for bit as
    :func:`_scan_rows` gives F at k = 0 and delta, from one set of
    half-angles: the tangents overwrite them, so the largest array of the
    scan is made once."""
    values = _half_angles(rho, theta)
    closure = _dot_rows(eps, values)
    return closure, _dot_rows(eps, np.tan(values, out=values))


def brentq(f, a: np.ndarray, b: np.ndarray, fa: np.ndarray, fb: np.ndarray,
           args=()) -> np.ndarray:
    """Roots of ``f`` in the brackets ``[a_j, b_j]``, all refined at once by
    Brent's method, from the values ``fa`` and ``fb`` of ``f`` at their ends.

    Both callers hold those values already, so ``f`` is never evaluated at a
    bracket's end.  ``f(x, *rows)`` is evaluated on stacked rows: ``x``
    holds one point per bracket still open and ``rows`` the matching rows of
    each array in ``args``; once no bracket is open, it is not called again.
    Every bracket takes the steps of scipy's ``brentq`` (its C
    ``brentq.c``: inverse quadratic or linear interpolation, else bisection)
    with ``xtol`` :data:`_FAR_ANGLE`, ``rtol`` :data:`ROOT_RTOL` and at most
    :data:`_MAXITER` iterations, so each root has the same digits as a
    scipy call on that bracket alone.  One call refines every root of F and
    zero of delta of an enumeration in theta, another the delta zeros of a
    deformation path in time (see :mod:`linkmorse.deform`).  Like scipy,
    raises ``ValueError`` for a NaN value of ``f``, given or evaluated, or
    for a bracket whose ends have the same sign, and ``RuntimeError`` for a
    bracket not converged after :data:`_MAXITER` iterations.
    """
    def checked(x, fx):
        fx = np.asarray(fx, dtype=float)
        if np.isnan(fx).any():
            raise ValueError(f"the function value at x={x[np.isnan(fx)][0]} is NaN; "
                             "solver cannot continue")
        return fx

    xa, xb = np.array(a, dtype=float), np.array(b, dtype=float)
    fa, fb = checked(xa, fa), checked(xb, fb)
    roots = np.where(fa == 0.0, xa, xb)
    open_ = np.flatnonzero((fa != 0.0) & (fb != 0.0))
    if (np.signbit(fa[open_]) == np.signbit(fb[open_])).any():
        raise ValueError("f(a) and f(b) must have different signs")
    # The variables of brentq.c, one row each, one column per open bracket:
    # the previous and the current point, the contrapoint xblk across the
    # root from xcur, their values of f, and the last two steps.
    state = np.zeros((8, open_.size))
    state[0], state[1], state[3], state[4] = xa[open_], xb[open_], fa[open_], fb[open_]
    xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = state
    for _ in range(_MAXITER):
        # fpre is never 0 here, and a zero fcur ends the bracket below
        # whatever this step does, so comparing sign bits suffices
        new = np.signbit(fpre) != np.signbit(fcur)
        step = xcur - xpre
        for row, value in ((xblk, xpre), (fblk, fpre), (spre, step), (scur, step)):
            np.copyto(row, value, where=new)
        # xcur becomes the point with the smaller |f|: xpre and xblk take
        # the old xcur, xcur the old xblk
        np.copyto(state[:6], state[[1, 2, 1, 4, 5, 4]], where=np.abs(fblk) < np.abs(fcur))

        delta = (_FAR_ANGLE + ROOT_RTOL * np.abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        done = (fcur == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            roots[open_[done]] = xcur[done]
            going = ~done
            open_, state, delta, sbis = open_[going], state[:, going], delta[going], sbis[going]
            xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = state
        if not open_.size:
            break

        # Interpolate through the last two points when the previous one is
        # the contrapoint, else extrapolate through all three.  The step is
        # computed on every bracket and dropped where it is not taken, so a
        # division by zero there is no error, as in the C code.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            stry = np.where(xpre == xblk, -fcur * (xcur - xpre) / (fcur - fpre),
                            -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2.0 * np.abs(stry) < np.minimum(np.abs(spre), 3.0 * np.abs(sbis) - delta)))
        state[6], state[7] = np.where(short, scur, sbis), np.where(short, stry, sbis)
        state[0], state[3] = xcur, fcur
        # sbis is never 0 on an open bracket, so its sign picks +-delta
        xcur += np.where(np.abs(scur) > delta, scur, np.copysign(delta, sbis))
        state[4] = checked(xcur, f(xcur, *(arg[open_] for arg in args)))
    if open_.size:
        raise RuntimeError(f"failed to converge after {_MAXITER} iterations")
    return roots


def _flag_rows(eps: np.ndarray, alphas: np.ndarray):
    """The :class:`DegeneracyFlags` of stacked strings and half-angles, as
    masks: ``central`` and ``near_flip`` of shape (rows, n), ``delta_zero``."""
    tangents = np.tan(alphas)
    return (np.cos(alphas) <= DEGENERACY_TOL, alphas < DEGENERACY_TOL,
            np.abs(_dot_rows(eps, tangents)) < DEGENERACY_TOL * tangents.sum(axis=1))


def _closure_defects(eps: np.ndarray, alphas: np.ndarray, winding) -> np.ndarray:
    """``|sum 2 eps_i alpha_i - 2 pi k|`` of each row."""
    return np.abs(2.0 * (eps * alphas).sum(axis=1) - 2.0 * math.pi * np.asarray(winding))


def _root_geometry(linkage: Linkage, eps: np.ndarray, thetas: np.ndarray):
    """Radii ``r_min / sin theta``, half-angles and centers of the roots
    ``thetas`` of the strings ``eps`` (one row each).  The center lies at
    distance ``r cos(alpha_1)`` left of the pinned edge for ``eps_1 = +1``
    and right of it otherwise."""
    alphas = _half_angles(_ratios(linkage), thetas)
    radius = linkage.min_radius / np.sin(thetas)
    cx = radius * np.cos(alphas[:, 0])
    center = np.stack([np.where(eps[:, 0] > 0, -cx, cx),
                       np.full(thetas.size, float(linkage.lengths[0]) / 2.0)], axis=1)
    return radius, alphas, center


def _vertices(linkage: Linkage, radius: np.ndarray, center: np.ndarray,
              eps: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Vertex coordinates, shape (rows, n, 2), of stacked descriptors on their
    circles in the pinned frame.  Successive vertex angles advance by
    ``2 eps_i alpha_i``; the pinned vertices are snapped exactly to ``(0,0)``
    and ``(0, l_1)``."""
    # math.atan2, not np.arctan2: the two differ in the last bit on some
    # inputs, and the vertices would move with it.
    first = np.array([math.atan2(-y, -x) for x, y in center.tolist()])
    # In place: the temporaries of one stacked expression, each as large as
    # the angles or the points, set the peak memory of enumerate_cyclic.
    angles = 2.0 * eps * alphas
    np.cumsum(angles[:, :-1], axis=1, out=angles[:, 1:])
    angles[:, 0] = 0.0
    angles += first[:, None]
    pts = np.empty(alphas.shape + (2,))
    np.cos(angles, out=pts[..., 0])
    np.sin(angles, out=pts[..., 1])
    pts *= radius[:, None, None]
    pts += center[:, None, :]
    pts[:, 0] = (0.0, 0.0)
    pts[:, 1] = (0.0, float(linkage.lengths[0]))
    return pts


def _angle_grid() -> np.ndarray:
    """The scan grid: :data:`SAMPLES` steps uniform in theta up to the angle
    at ``r_min (1 + _RMIN_MARGIN)``, the first point moved from 0 to
    :data:`_FAR_ANGLE`."""
    grid = np.linspace(0.0, math.asin(1.0 / (1.0 + _RMIN_MARGIN)), SAMPLES + 1)
    grid[0] = _FAR_ANGLE
    return grid


def _vanishing(lengths: np.ndarray, strings: np.ndarray) -> np.ndarray:
    """Strings whose +1 and -1 edges carry the same multiset of lengths: on
    them sum(eps_i alpha_i) and delta vanish identically."""
    _, group = np.unique(lengths, return_inverse=True)
    return ~(strings @ np.eye(group.max() + 1)[group]).any(axis=1)


def _sign_change(here, after, level):
    """Cells across which the values at their ends minus the level change sign."""
    return ((here < level) & (after > level)) | ((here > level) & (after < level))


def _cell_gaps(theta: np.ndarray, alphas: np.ndarray, widen: float) -> np.ndarray:
    """Half-width G of each cell's second-order bound (see :func:`_bounds`),
    from the half-angles ``alphas`` at the points ``theta`` (one row each),
    the cells' ends along the last axis of ``theta``: the coarse points, or
    the samples of each window.  Every ``alpha_i`` is increasing and concave
    in theta, so on a cell [a, b] of width h each lies between its chord and
    its tangents, and the tangent gaps of P and of N, both non-negative, add
    up to that of the total T: the gap of ``C = P - N`` over its chord is at
    most ``G = min(T(a) + T'(a) h - T(b), T(b) - T'(b) h - T(a))``, where
    ``T' = sum tan(alpha_i) / tan(theta)``, which is ``sum rho_i cos theta /
    cos alpha_i`` without a cosine.  G is widened by ``widen`` and by
    :data:`_BOUND_RTOL` of T(b), for the rounding of the sums."""
    slope = np.tan(alphas).sum(axis=-1) / np.tan(theta)
    total, h = alphas.sum(axis=-1), np.diff(theta, axis=-1)
    gap = np.minimum(total[..., :-1] + slope[..., :-1] * h - total[..., 1:],
                     total[..., 1:] - slope[..., 1:] * h - total[..., :-1])
    return gap + widen + _BOUND_RTOL * total[..., 1:]


def _bounds(a: np.ndarray, b: np.ndarray, gaps: np.ndarray, lo=None, hi=None):
    """Bounds ``(lo, hi)`` on the closure sums C over cells [a, b], from C at
    their ends ``a`` and ``b`` and their half-widths ``gaps`` from
    :func:`_cell_gaps`: ``[min(C(a), C(b)) - G, max(C(a), C(b)) + G]``, into
    ``lo`` and ``hi`` if given."""
    lo, hi = np.minimum(a, b, out=lo), np.maximum(a, b, out=hi)
    return np.subtract(lo, gaps, out=lo), np.add(hi, gaps, out=hi)


def _meets_level(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Cells whose bound [lo, hi] holds a level ``pi k``, computed in place."""
    return (np.ceil(np.divide(lo, math.pi, out=lo), out=lo)
            <= np.floor(np.divide(hi, math.pi, out=hi), out=hi))


def _coarse_cells(coarse: np.ndarray, rows: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Coarse cells (cells x strings) of the strings ``rows`` whose bound
    meets a level, from the half-angles ``coarse`` at the coarse points (one
    row each) and the cells' ``gaps``.

    The first cell (0, b] reaches r = inf, where C tends to 0, so its bound
    always holds the level 0.  The far-cell rule drops it where C and delta
    keep the strict sign of ``s_0 = sum eps_i rho_i`` on the whole cell.
    With ``u = sin theta``, ``alpha_i / u - rho_i`` and ``tan(alpha_i) / u -
    rho_i`` are power series in u with non-negative coefficients, and
    ``alpha_i <= tan(alpha_i)``, so on the cell both lie in ``[0,
    tan(alpha_i(b)) / sin b - rho_i]``: ``C / u`` and ``delta / u`` lie
    within ``R = sum_i tan(alpha_i(b)) / sin b - sum_i rho_i`` of s_0.  A
    string with ``|s_0| > R``, tested times ``sin b`` as ``|sum eps_i sin
    alpha_i(b)| > sum_i (tan alpha_i(b) - sin alpha_i(b))``, therefore has
    no root and no zero of delta there, and C meets no other level, since
    ``|C| <= n b < pi`` (b is about 0.0245).  The rule holds for ``b <
    pi/2``.  The test's
    slack, :data:`_BOUND_RTOL` of ``sum sin alpha_i(b)``, is far above the
    rounding of both sides and of the F and delta of :func:`_scan_rows` on
    the cell: each is a sum of n terms of a few ulps each, off by at most
    ``(n + 4)`` machine epsilons of ``sin theta sum rho_i`` (4.4e-15 at
    n = 16), and the margin the test leaves scales with ``sin theta``
    along the whole cell."""
    ends = coarse @ rows.T
    kept = _meets_level(*_bounds(ends[:-1], ends[1:], gaps[:, None]))
    sines = np.sin(coarse[1])
    reach = (np.tan(coarse[1]) - sines).sum() + _BOUND_RTOL * sines.sum()
    kept[0] &= np.abs(rows @ sines) <= reach
    return kept


def _windows(table: np.ndarray, eps: np.ndarray, slots: np.ndarray, out: np.ndarray):
    """Fill ``out[p]`` with the sums ``eps[p] . table[slots[p]]`` over the
    window at slot ``slots[p]`` of a table of windows, the samples of one
    cell, both ends included.  Rows come sorted by slot, and one matrix
    product serves each slot.  The sums only mark candidates, so the order
    in which a product sums the edges, which BLAS picks by its shape, does
    not matter."""
    ends = (np.flatnonzero(slots[1:] != slots[:-1]) + 1).tolist()
    for lo, hi in zip([0] + ends, ends + [slots.size]):
        np.matmul(eps[lo:hi], table[slots[lo]].T, out=out[lo:hi])


def _window_candidates(table, gaps, rows, offset: int, kept, slot, work):
    """Candidate cells of the kept coarse cells of a block of strings
    (``kept``: flat indices ``cell * len(rows) + row``), chunk by chunk of
    windows: per chunk, the row (plus ``offset``) and the first sample of
    each grid cell whose bound meets a level.  ``slot`` maps a coarse cell
    to its window in ``table`` and in ``gaps``, the grid cells'
    half-widths, and ``work`` holds the closure sums and the bounds of a
    chunk."""
    values, lo, hi = work
    chunk = len(values)
    cell, row = np.divmod(kept, len(rows))
    for first in range(0, cell.size, chunk):
        cells, string = cell[first:first + chunk], row[first:first + chunk]
        slots, m = slot[cells], cells.size
        _windows(table, rows[string], slots, values[:m])
        bound = _bounds(values[:m, :-1], values[:m, 1:], gaps[slots], lo[:m], hi[:m])
        j, col = np.divmod(np.flatnonzero(_meets_level(*bound)), _STEP)
        yield string[j] + offset, cells[j] * _STEP + col


def _tabulate(rho: np.ndarray, grid: np.ndarray, strings: np.ndarray):
    """Candidate cells of every string on the grid, as a pair of arrays: the
    row and the cell's first sample.

    One bound rule marks them, coarse to fine (:func:`_bounds`).  The
    closure sums at every :data:`_STEP`-th sample and the gaps of the coarse
    cells, computed once, bound each string's coarse cells, a block of
    strings at a time.  Only a coarse cell whose widened bound meets a
    level ``pi k``, and that the far-cell rule of :func:`_coarse_cells`
    does not drop, is tabulated at every sample, both ends included: a
    window is its cell's samples.  Each grid cell of a window is bounded
    the same way, from the closure sums at its ends and its own gap, and is
    a candidate when that bound meets a level.  A bound holds C on its
    whole cell, so a cell left out at either resolution holds no root of F,
    and no zero of delta near enough to a level to be a double root.
    Half-angles and gaps are computed on kept cells alone, one row per
    window for every string, and the work arrays hold the windows a block
    keeps, :data:`_WINDOWS` at most.  A block that keeps no cell has no
    candidate, and neither has a scan where no block keeps one.
    """
    coarse = _half_angles(rho, grid[::_STEP])
    widen = 2.0 * _LEVEL_SLACK * math.pi
    gaps = _cell_gaps(grid[::_STEP], coarse, widen)
    # Each block's kept coarse cells as flat indices, 8 bytes per kept cell.
    # The far-cell rule keeps the first cell of the strings near a wall,
    # where roots lie at any radius, among them every wall string of _scan.
    used, blocks = np.zeros(len(gaps), dtype=bool), []
    for start in range(0, len(strings), _BLOCK):
        rows = strings[start:start + _BLOCK]
        kept = np.flatnonzero(_coarse_cells(coarse, rows, gaps))
        used[kept // len(rows)] = True
        if kept.size:
            blocks.append((start, kept))
    # The table of kept cells: a window per cell some string keeps, at the
    # cell's slot, its samples, both ends included, and the gaps of its grid
    # cells.
    slot, index = np.cumsum(used) - 1, np.flatnonzero(used)[:, None] * _STEP + np.arange(_STEP + 1)
    table = _half_angles(rho, grid[index])
    gaps = _cell_gaps(grid[index], table, widen)
    # Work arrays reused by every chunk of windows, sized by the windows a
    # block keeps (see _BLOCK and _WINDOWS).
    size = min(max((kept.size for _, kept in blocks), default=0), _WINDOWS)
    work = np.empty((size, _STEP + 1)), np.empty((size, _STEP)), np.empty((size, _STEP))
    found = [(np.zeros(0, dtype=int),) * 2]
    for start, kept in blocks:
        found.extend(_window_candidates(table, gaps, strings[start:start + _BLOCK], start, kept,
                                        slot, work))
    return tuple(np.concatenate(v) for v in zip(*found))


def _merge(row: np.ndarray, k: np.ndarray, theta: np.ndarray):
    """Sort roots by (row, k, theta) and drop each root equal to the one
    before it.  Two rules can find one root, say an exact zero of F at a
    sample that is also a zero of delta, and they give the same theta; two
    distinct roots are kept however close they lie."""
    order = np.lexsort((theta, k, row))
    row, k, theta = row[order], k[order], theta[order]
    keep = np.ones(row.size, dtype=bool)
    keep[1:] = (row[1:] != row[:-1]) | (k[1:] != k[:-1]) | (theta[1:] != theta[:-1])
    return row[keep].astype(int), k[keep].astype(int), theta[keep]


def _scan(linkage: Linkage, strings: np.ndarray):
    """The roots of F, each once, for the orientation strings ``strings``
    (rows of +-1), at every winding the closure range admits.

    No winding needs a filter.  The grid stops at ``r_min (1 +
    _RMIN_MARGIN)``, so each ``alpha_i`` lies in ``(0, pi/2 - 1.4e-6]``, and
    a string with e entries +1 has its closure sum strictly inside
    ``(-(n - e) pi/2, e pi/2)``, a margin far above the rounding of a sum of
    n terms.  An exact zero or a strict sign change of ``C - pi k`` puts
    ``pi k`` in that range, and so does a double root, within
    :data:`RESIDUAL_TOL` of ``pi k`` (at most about 5e-11), so each has a
    winding with ``-(n - e) < 2k < e``.

    The sums of :func:`_tabulate` only mark candidate cells: every decision
    reads :func:`_scan_rows` values at their ends, those :func:`brentq`
    starts from.

    Returns arrays ``(row, k, theta)`` sorted by row, then k, then theta.
    """
    # A string whose +1 and -1 edges carry the same lengths has F = -pi k and
    # delta = 0 for every theta, which yields no root.  It is not scanned: its
    # sums would leave rounding residues of either sign, not exact zeros.
    scanned = np.flatnonzero(~_vanishing(linkage.lengths, strings))
    strings = strings[scanned]
    rho = _ratios(linkage)
    grid = _angle_grid()
    row, i = _tabulate(rho, grid, strings)

    # On a wall (sum eps_i l_i = 0 to RESIDUAL_TOL) F and delta vanish at
    # r = inf, the first point, where their signs are rounding and no
    # configuration lies: a wall string's scan starts at the second point, and
    # its first cell is dropped.
    first = _half_angles(rho, grid[0])
    wall = np.abs(strings @ first) <= RESIDUAL_TOL * first.sum()
    keep = (i > 0) | ~wall[row]
    row, i = row[keep], i[keep]
    # F (at k = 0) and delta at both ends of each candidate cell.
    ends = np.stack([i, i + 1])
    closure, deltas = _closures_and_deltas(rho, grid[ends], strings[row])
    rows = np.broadcast_to(row, ends.shape)

    # Roots of F: exact zeros at the level nearest either end, and sign
    # changes across the cell for every level from floor(C / pi) at the
    # lower end to floor(C / pi) + 1 at the upper end.  A zero on the end
    # two cells share is found twice, and _merge keeps it once.
    k = np.rint(closure / math.pi)
    zero = closure == math.pi * k
    found = [(rows[zero], k[zero], grid[ends[zero]])]
    here, after = closure
    lo = np.floor(np.minimum(here, after) / math.pi)
    hi = np.floor(np.maximum(here, after) / math.pi) + 1.0
    # Each bracket carries F at its ends, the values the sign test read, for
    # brentq to start from.
    brackets = [(row[:0], lo[:0], i[:0], here[:0], after[:0])]  # typed empty arrays
    for step in range(int(np.max(hi - lo, initial=-1.0)) + 1):
        k = lo + step
        level = math.pi * k
        change = _sign_change(here, after, level)
        brackets.append((row[change], k[change], i[change],
                         here[change] - level[change], after[change] - level[change]))
    # Double roots hide at interior extrema of F, i.e. zeros of delta, whose
    # sign changes are refined with the closure brackets as delta rows.
    change = _sign_change(*deltas, 0.0)
    brackets.append((row[change], np.zeros(int(change.sum())), i[change],
                     deltas[0][change], deltas[1][change]))
    row, k, i, fa, fb = (np.concatenate(v) for v in zip(*brackets))
    delta = np.arange(row.size) >= row.size - int(change.sum())
    roots = brentq(lambda t, e, kk, d: _scan_rows(t, rho, e, kk, d), grid[i], grid[i + 1],
                   fa, fb, args=(strings[row], k, delta))
    found.append((row[~delta], k[~delta], roots[~delta]))

    # Each zero of delta, exact at a cell's end or refined, is tested against
    # the level nearest to F there.
    zero = deltas == 0.0
    row = np.concatenate([rows[zero], row[delta]])
    theta = np.concatenate([grid[ends[zero]], roots[delta]])
    alphas = _half_angles(rho, theta)
    closure = _dot_rows(strings[row], alphas)
    k = np.rint(closure / math.pi)
    scale = alphas.sum(axis=1) + math.pi * np.abs(k)
    double = np.abs(closure - math.pi * k) <= RESIDUAL_TOL * scale
    found.append((row[double], k[double], theta[double]))

    row, k, theta = _merge(*(np.concatenate(v) for v in zip(*found)))
    return scanned[row], k, theta


def _enumerate(linkage: Linkage):
    """The :class:`CyclicTable` of :func:`enumerate_cyclic` and, per row, the
    row of its mirror ``(-E, -k)``: an involution with no fixed point."""
    n = linkage.n
    if n > MAX_EDGES:
        raise InvalidLinkageError(
            f"{n} edges exceed the enumeration budget of {MAX_EDGES}: "
            f"the scan covers 2^(n-1) orientation strings")
    bits = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 2, -1, -1)) & 1
    strings = np.concatenate([np.ones((bits.shape[0], 1)), 1.0 - 2.0 * bits], axis=1)
    rows, ks, thetas = _scan(linkage, strings)

    eps = strings[rows]
    radius, alphas, center = _root_geometry(linkage, eps, thetas)
    defects = _closure_defects(eps, alphas, ks)
    if defects.size and defects.max() > CLOSURE_TOL:
        raise InconsistentDescriptorError(
            f"angular closure defect {defects.max():.3e} exceeds {CLOSURE_TOL:.0e}")
    # Pair 2j is root j and pair 2j + 1 its mirror.  A string's code reads
    # its +1 entries as bits, eps_1 the highest, so codes sort as strings do,
    # and a mirror's code is the complement of its root's.
    code = (eps > 0) @ (1 << np.arange(n - 1, -1, -1))
    order = np.lexsort((np.repeat(radius, 2), np.stack([code, 2 ** n - 1 - code], axis=1).ravel(),
                        np.stack([ks, -ks], axis=1).ravel()))
    root, sign = order >> 1, 1 - 2 * (order & 1)
    central, near_flip, delta_zero = (mask[root] for mask in _flag_rows(eps, alphas))
    eps, ks, center = eps[root].astype(int) * sign[:, None], ks[root] * sign, center[root]
    radius, alphas = radius[root], alphas[root]
    center[:, 0] *= sign
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    table = CyclicTable(eps=eps, k=ks, radius=radius, alphas=alphas, center=center,
                        points=_vertices(linkage, radius, center, eps, alphas),
                        central=central, near_flip=near_flip, delta_zero=delta_zero,
                        flagged=delta_zero | central.any(axis=1) | near_flip.any(axis=1))
    return table, rank[order ^ 1]


def enumerate_cyclic(linkage: Linkage) -> CyclicTable:
    """Every cyclic configuration of the linkage.

    Scans the 2^(n-1) orientation strings with ``eps_1 = +1`` at every
    winding the closure range admits (see :func:`_scan`) and reuses each
    string's roots for its mirror ``(-E, -k)``: ``F_{-E,-k} = -F_{E,k}``
    holds exactly in floating point, so the mirror's brackets and refined
    roots are bit-identical.  Each root is flagged and described once; its
    mirror row takes the negated string and winding, the center reflected
    across the pinned edge, and the same radius, half-angles and flags,
    since ``central`` and ``near_flip`` depend on the half-angles alone and
    ``delta_zero`` on ``|delta|``.  Every row thus has its mirror in the
    table, and no two rows share (winding, orientation string, radius): the
    rows are sorted by that key, root and mirror rows in one sort.  The
    vertices of every row are rebuilt; they keep the string's orientations,
    since they step by ``2 eps_i alpha_i`` with ``alpha_i < pi/2`` on every
    edge: the grid stops short of the minimum radius (see :func:`_scan`).

    Raises :class:`InvalidLinkageError` for more than :data:`MAX_EDGES`
    edges.  Returns a :class:`CyclicTable`.
    """
    return _enumerate(linkage)[0]
