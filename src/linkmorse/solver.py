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
tabulates the closure sums ``C = sum eps_i alpha_i`` and the deltas ``D``
coarse to fine.  Every ``alpha_i`` increases with theta, so with P the sum
over the +1 edges and N over the -1 edges, C = P - N lies in
[P(a) - N(b), P(b) - N(a)] on a cell [a, b].  These bounds, taken from every
:data:`_STEP`-th grid point, prove about 90% of the cells free of any level
``pi k``; only the other cells are tabulated at every grid point, C and D
alike, a chunk of them per matrix product.  A level ``pi k`` can only be
crossed in a cell where ``floor(C / pi)`` changes or next to a sample within
a slack of a level, so one pass over the tabulated cells picks these
candidate cells, and the exact test runs on them alone, for all feasible
windings at once: a sign change of ``C - pi k`` brackets a root, an isolated
exact zero is one, and a run of exact zeros (a family on which F vanishes
identically) yields none.  The bounds are widened past the slack, so the
candidates are those of the whole table.  A string whose +1 and -1 edges
carry the same lengths is such a family for every winding and is not
scanned.  Double roots hide at zeros of delta, the extrema of F; one is
accepted when ``|F| <= RESIDUAL_TOL * (sum alpha_i + pi |k|)``, far inside
the widening, so no cell left out holds one.  One call of :func:`brentq`, a
Brent's method over stacked rows of :func:`_scan_rows`, refines every
bracket of F and of delta at once.  A root is flagged
``delta_zero`` when ``|delta| < DEGENERACY_TOL * sum tan(alpha_i)``, so both
tests scale with the problem.  Only the strings with ``eps_1 = +1`` are
scanned: the mirror string ``(-E, -k)`` has ``F_{-E,-k} = -F_{E,k}`` exactly
in floating point, so it reuses the same roots, descriptors and flags.

The per-root tail is batched too: half-angles, radii, centers, flags, the
closure check and the vertices of every root and its mirror are array
operations over all roots of the linkage, and they are returned as the
columns of one :class:`CyclicTable`; the per-item objects are views of a
row, built only when a row is asked for.  The scan covers ``2^(n-1)``
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
# (strings x cells + 1) take at most 2^16 values (512 kB) whatever n is.
_BLOCK = 2 ** 16 // (SAMPLES // _STEP + 1)

# Windows per chunk of the fine scan: a window holds one cell's samples, one
# more on each side and a NaN after them, and a chunk with its spare window
# (see _windows) at most 2^16 values (512 kB), however many cells a block
# keeps.
_WINDOWS = 2 ** 16 // (_STEP + 3) - 1

# Relative allowance for rounding in the cell bounds, against the sum over
# all edges of the table bounded: far above the n machine epsilons (3.6e-15
# at n = 16) by which rounding can move a sum of n terms.
_BOUND_RTOL = 1e-12

# Distance, in units of pi, within which a sample of C counts as near a level
# pi k.  It is far above the rounding of C / pi, so a sign change of C - pi k
# across a cell where floor(C / pi) stays the same has an endpoint this near.
_LEVEL_SLACK = 1e-9

# Largest number of edges enumerate_cyclic accepts.  The scan covers
# 2^(n-1) strings and the number of configurations grows about as fast:
# ``linkmorse enumerate -o`` on random lengths in [0.5, 2] took 0.3-0.7 s at
# n = 12, 0.6-0.7 s at n = 14 and 2.9-3.7 s at n = 16 (37796
# configurations, 117 MB peak; 1.5-1.9 s of it analyze_linkage, 0.7 s of
# that the oracle) on a 2-core x86-64 host with Python 3.11
# (BENCH_oracle.json).  Each edge more about doubles the scan and the
# configurations, and so the time.
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

# Roots of one (E, k) pair closer than this (relative, in theta) are merged.
MERGE_RTOL = 1e-10

# Flag threshold for central edges, near-flipped edges and delta zeros
# (|delta| against sum tan(alpha)).
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
    ``2 - 2 sin(alpha_i) <= DEGENERACY_TOL`` (``cos(alpha_i) <~ 3.2e-4``) and
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
    alphas = np.arcsin(rho * np.sin(theta))
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
    of them.  An integer index gives the row's :class:`CyclicConfiguration`
    view.
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


def brentq(f, a: np.ndarray, b: np.ndarray, args=()) -> np.ndarray:
    """Roots of ``f`` in the brackets ``[a_j, b_j]``, all refined at once by
    Brent's method.

    ``f(x, *rows)`` is evaluated on stacked rows: ``x`` holds one point per
    bracket still open and ``rows`` the matching rows of each array in
    ``args``.  Every bracket takes the steps of scipy's ``brentq`` (its C
    ``brentq.c``: inverse quadratic or linear interpolation, else bisection)
    with ``xtol`` :data:`_FAR_ANGLE`, ``rtol`` :data:`ROOT_RTOL` and at most
    :data:`_MAXITER` iterations, so each root has the same digits as a
    scipy call on that bracket alone.  One call refines every root of F and
    zero of delta of an enumeration in theta, another the delta zeros of a
    deformation path in time (see :mod:`linkmorse.deform`).  Like scipy,
    raises ``ValueError`` for a NaN
    value of ``f`` or for a bracket whose ends have the same sign, and
    ``RuntimeError`` for a bracket not converged after :data:`_MAXITER`
    iterations.
    """
    def evaluate(x, open_):
        fx = np.asarray(f(x, *(arg[open_] for arg in args)), dtype=float)
        if np.isnan(fx).any():
            raise ValueError(f"the function value at x={x[np.isnan(fx)][0]} is NaN; "
                             "solver cannot continue")
        return fx

    xa, xb = np.array(a, dtype=float), np.array(b, dtype=float)
    fa = evaluate(xa, slice(None))
    fb = evaluate(xb, slice(None))
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
        if not open_.size:
            break
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
        state[4] = evaluate(xcur, open_)
    if open_.size:
        raise RuntimeError(f"failed to converge after {_MAXITER} iterations")
    return roots


def _flag_rows(eps: np.ndarray, alphas: np.ndarray):
    """The :class:`DegeneracyFlags` of stacked strings and half-angles, as
    masks: ``central`` and ``near_flip`` of shape (rows, n), ``delta_zero``."""
    tangents = np.tan(alphas)
    delta = (eps * tangents).sum(axis=1)
    return (2.0 - 2.0 * np.sin(alphas) <= DEGENERACY_TOL, alphas < DEGENERACY_TOL,
            np.abs(delta) < DEGENERACY_TOL * tangents.sum(axis=1))


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
    steps = 2.0 * eps * alphas
    angles = first[:, None] + np.concatenate(
        [np.zeros((first.size, 1)), np.cumsum(steps[:, :-1], axis=1)], axis=1)
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=2)
    pts = center[:, None, :] + radius[:, None, None] * unit
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


def _winding_bounds(n: int, positives):
    """Least and greatest winding number k compatible with an orientation
    string having ``positives`` entries equal to +1 (an int or an array): the
    closure sum is confined to the open interval (-(n - e) pi/2, e pi/2), so
    -(n - e) < 2k < e."""
    return -(n - positives) // 2 + 1, (positives + 1) // 2 - 1


def _vanishing(lengths: np.ndarray, strings: np.ndarray) -> np.ndarray:
    """Strings whose +1 and -1 edges carry the same multiset of lengths: on
    them sum(eps_i alpha_i) and delta vanish identically."""
    _, group = np.unique(lengths, return_inverse=True)
    return ~(strings @ np.eye(group.max() + 1)[group]).any(axis=1)


def _level_cells(closures: np.ndarray, levels: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """Samples of a block of closure sums next to which a level ``pi k`` may
    be met: where ``floor(C / pi)`` changes before the next sample, or where
    this sample or the next lies within :data:`_LEVEL_SLACK` of a level.
    ``levels`` and ``floors`` are work arrays of the block's shape."""
    np.multiply(closures, 1.0 / math.pi, out=levels)
    np.floor(levels, out=floors)
    fraction = np.subtract(levels, floors, out=levels)
    cells = (fraction <= _LEVEL_SLACK) | (fraction >= 1.0 - _LEVEL_SLACK)
    cells[:, :-1] |= cells[:, 1:]
    cells[:, :-1] |= floors[:, :-1] != floors[:, 1:]
    return cells


def _sign_cells(deltas: np.ndarray) -> np.ndarray:
    """Samples of a block of deltas that are not of one strict sign, or whose
    sign differs from the next sample's."""
    pos, neg = deltas > 0.0, deltas < 0.0
    cells = ~(pos | neg)
    cells[:, :-1] |= (pos[:, :-1] & neg[:, 1:]) | (neg[:, :-1] & pos[:, 1:])
    return cells


def _isolated_zero(i, prev, here, after, level, last: int):
    """Candidate samples where the table equals the level and its neighbours
    along the row do not: a run of exact zeros is a family on which the
    function vanishes identically, which yields no root."""
    return ((here == level) & ((i == 0) | (prev != level))
            & ((i == last) | (after != level)))


def _sign_change(here, after, level):
    """Candidate cells across which the table minus the level changes sign."""
    return ((here < level) & (after > level)) | ((here > level) & (after < level))


def _bounds(coarse: np.ndarray, positive: np.ndarray, widen: float):
    """Bounds ``(lo, hi)``, one row per coarse cell and one column per
    string, on the sums ``P - N`` of a table over each cell, where P sums
    the +1 edges of the string and N the -1 edges.  ``coarse`` holds the
    table at the coarse points (one row each) and ``positive`` the +1 edges
    of each string (one column each, 1.0 or 0.0).  P and N increase with
    theta, so over a cell [a, b] ``P - N`` lies in [P(a) - N(b), P(b) - N(a)].
    The bounds are widened by ``widen`` and by :data:`_BOUND_RTOL` of the
    sum over all edges at b, for the rounding of the sums."""
    partial = coarse @ positive
    total = coarse.sum(axis=1)
    margin = widen + _BOUND_RTOL * total[1:]
    ends = partial[:-1] + partial[1:]
    return ends - (total[1:] + margin)[:, None], ends - (total[:-1] - margin)[:, None]


def _meets_level(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Cells whose bound [lo, hi] holds a level ``pi k``."""
    return np.ceil(lo / math.pi) <= np.floor(hi / math.pi)


def _windows(table: np.ndarray, eps: np.ndarray, cells: np.ndarray, out: np.ndarray):
    """Fill ``out[p, :-1]`` with the sums ``eps[p] . table[i]`` over the
    window of samples ``i = cells[p] * _STEP - 1 ... (cells[p] + 1) * _STEP``
    of a table padded with one sample before the first.  Rows come sorted by
    cell, and one matrix product serves each cell.

    ``eps`` and ``out`` carry one spare row after the last window.  A product
    of one row would run BLAS's matrix-vector kernel, which sums the edges in
    another order than the matrix kernel, so a cell kept by one string takes
    two rows: the next cell's first row, which that cell's product then
    overwrites, or the spare one.  Every window thus holds the sums the
    matrix kernel gives, edge by edge in order, whoever keeps the cell."""
    ends = (np.flatnonzero(cells[1:] != cells[:-1]) + 1).tolist()
    for lo, hi in zip([0] + ends, ends + [cells.size]):
        first, hi = int(cells[lo]) * _STEP, max(hi, lo + 2)
        np.matmul(eps[lo:hi], table[first:first + _STEP + 2].T, out=out[lo:hi, :-1])


def _window_candidates(table, rows, offset: int, kept, wall, marks, work):
    """Candidate samples of the kept cells (``kept``: cells x strings) of a
    block of strings, chunk by chunk of windows, as tuples of the row (plus
    ``offset``), the sample and the values before, at and after it.
    ``marks`` picks the candidates of a table of windows."""
    last = kept.shape[0] - 1
    cell, row = np.divmod(np.flatnonzero(kept), kept.shape[1])
    for first in range(0, cell.size, _WINDOWS):
        cells, string = cell[first:first + _WINDOWS], row[first:first + _WINDOWS]
        _windows(table, rows[np.append(string, 0)], cells, work)
        values = work[:cells.size]
        values[(cells == 0) & wall[string], 1] = np.nan
        marked = marks(values[:, :-1])
        # A window's first sample belongs to the cell before it and its
        # last to the next, except at the end of the grid.
        marked[:, 0] = False
        marked[cells < last, -1] = False
        j, col = np.divmod(np.flatnonzero(marked), _STEP + 2)
        at, flat = j * (_STEP + 3) + col, values.ravel()
        yield (string[j] + offset, cells[j] * _STEP + col - 1,
               flat[at - 1], flat[at], flat[at + 1])


def _tabulate(rho: np.ndarray, grid: np.ndarray, strings: np.ndarray):
    """Candidate samples of the closure sums and of the deltas of every
    string on the grid, as tuples of the row, the sample and the values
    before, at and after it (NaN past either end of the grid).

    Both tables are built coarse to fine, a block of strings at a time.  The
    closure sums over the +1 edges at every :data:`_STEP`-th sample bound
    each string's cells (:func:`_bounds`).  Only a cell whose widened bound
    meets a level ``pi k``, and the first cell, is tabulated at every
    sample, with one more on each side, in both tables.  A cell left out
    holds no closure candidate, and no zero of delta near enough to a level
    to be a double root.
    """
    alphas_tab = _half_angles(rho, np.concatenate([[np.nan], grid]))
    tangents_tab = np.tan(alphas_tab)
    wall_tol = RESIDUAL_TOL * alphas_tab[1].sum()
    # Work tables reused by every chunk of windows, each of at most 2^16
    # values (512 kB) whatever n is and however many cells are kept: freeing
    # a larger array would raise the allocator's threshold for mapping memory
    # and change the cost of later allocations in the process.  A window's
    # last column stays NaN, the value after the grid's last sample.
    work = np.empty((_WINDOWS + 1, _STEP + 3))
    work[:, -1] = np.nan
    levels, floors = np.empty((_WINDOWS, _STEP + 2)), np.empty((_WINDOWS, _STEP + 2))
    def level_marks(values):
        return _level_cells(values, levels[:len(values)], floors[:len(values)])
    closures, deltas = [], []
    for start in range(0, len(strings), _BLOCK):
        rows = strings[start:start + _BLOCK]
        # The first point stands in for r = inf.  On a wall (sum eps_i l_i = 0,
        # to RESIDUAL_TOL) F and delta both vanish in that limit, which is no
        # configuration, and their signs next to it are rounding: NaN there
        # is neither a zero nor a sign, so such a string's scan starts at the
        # second point.
        wall = np.abs(rows @ alphas_tab[1]) <= wall_tol
        # A closure sum within _LEVEL_SLACK pi of a level marks a candidate:
        # the bounds are widened by twice that, far more than the rounding of
        # C / pi or a double root's RESIDUAL_TOL (at most about 5e-11).
        kept = _meets_level(*_bounds(alphas_tab[1::_STEP], (rows > 0.0).T.astype(float),
                                     2.0 * _LEVEL_SLACK * math.pi))
        # the first cell holds a wall's NaN, which no bound sees
        kept[0] = True
        closures.extend(_window_candidates(alphas_tab, rows, start, kept, wall, level_marks, work))
        deltas.extend(_window_candidates(tangents_tab, rows, start, kept, wall, _sign_cells, work))
    none = (np.zeros(0, dtype=int),) * 2 + (np.zeros(0),) * 3
    return tuple([np.concatenate(v) for v in zip(none, *cands)] for cands in (closures, deltas))


def _merge(row: np.ndarray, k: np.ndarray, theta: np.ndarray):
    """Sort roots by (row, k, theta) and drop each root closer than
    :data:`MERGE_RTOL` (relative) to the last one kept for its (row, k)."""
    order = np.lexsort((theta, k, row))
    row, k, theta = row[order], k[order], theta[order]
    keep, kept = [], None
    for j, root in enumerate(zip(row.tolist(), k.tolist(), theta.tolist())):
        if kept is None or root[:2] != kept[:2] or abs(root[2] - kept[2]) > MERGE_RTOL * root[2]:
            keep.append(j)
            kept = root
    return row[keep].astype(int), k[keep].astype(int), theta[keep]


def _scan(linkage: Linkage, strings: np.ndarray, k_lo: np.ndarray, k_hi: np.ndarray):
    """Merged roots of F for the orientation strings ``strings`` (rows of
    +-1) and the windings ``k_lo <= k <= k_hi`` of each row.

    Returns arrays ``(row, k, theta)`` sorted by row, then k, then theta.
    """
    # A string whose +1 and -1 edges carry the same lengths has F = -pi k and
    # delta = 0 for every theta, which yields no root.  It is not scanned: a
    # matrix product would leave rounding residues of either sign in its
    # tables, not exact zeros.
    scanned = np.flatnonzero(~_vanishing(linkage.lengths, strings))
    strings, k_lo, k_hi = strings[scanned], k_lo[scanned], k_hi[scanned]
    rho = _ratios(linkage)
    grid = _angle_grid()
    last = grid.size - 1
    level_cells, sign_cells = _tabulate(rho, grid, strings)

    # Roots of F: exact zeros at the level nearest a candidate sample, and
    # sign changes across the cell to the next sample for every level from
    # floor(C / pi) at the lower end to floor(C / pi) + 1 at the upper end.
    row, i, prev, here, after = level_cells
    k = np.rint(here / math.pi)
    zero = _isolated_zero(i, prev, here, after, math.pi * k, last)
    zero &= (k >= k_lo[row]) & (k <= k_hi[row])
    found = [(row[zero], k[zero], grid[i[zero]])]
    known = (i < last) & ~np.isnan(here)
    row, i, here, after = row[known], i[known], here[known], after[known]
    lo = np.floor(np.minimum(here, after) / math.pi)
    hi = np.floor(np.maximum(here, after) / math.pi) + 1.0
    brackets = [(row[:0], lo[:0], i[:0])]  # typed empty arrays if there is no step
    for step in range(int(np.max(hi - lo, initial=-1.0)) + 1):
        k = lo + step
        change = _sign_change(here, after, math.pi * k)
        change &= (k <= hi) & (k >= k_lo[row]) & (k <= k_hi[row])
        brackets.append((row[change], k[change], i[change]))
    # Double roots hide at interior extrema of F, i.e. zeros of delta, whose
    # sign changes are refined with the closure brackets as delta rows.
    d_row, d_i, d_prev, d_here, d_after = sign_cells
    change = (d_i < last) & _sign_change(d_here, d_after, 0.0)
    brackets.append((d_row[change], np.zeros(int(change.sum())), d_i[change]))
    row, k, i = (np.concatenate(v) for v in zip(*brackets))
    delta = np.arange(row.size) >= row.size - int(change.sum())
    roots = brentq(lambda t, e, kk, d: _scan_rows(t, rho, e, kk, d), grid[i], grid[i + 1],
                   args=(strings[row], k, delta))
    found.append((row[~delta], k[~delta], roots[~delta]))

    # Each zero of delta is tested against the level nearest to F there.
    zero = _isolated_zero(d_i, d_prev, d_here, d_after, 0.0, last)
    row = np.concatenate([d_row[zero], row[delta]])
    theta = np.concatenate([grid[d_i[zero]], roots[delta]])
    alphas = _half_angles(rho, theta)
    closure = (strings[row] * alphas).sum(axis=1)
    k = np.rint(closure / math.pi)
    scale = alphas.sum(axis=1) + math.pi * np.abs(k)
    double = ((k >= k_lo[row]) & (k <= k_hi[row])
              & (np.abs(closure - math.pi * k) <= RESIDUAL_TOL * scale))
    found.append((row[double], k[double], theta[double]))

    row, k, theta = _merge(*(np.concatenate(v) for v in zip(*found)))
    return scanned[row], k, theta


def _pairs(roots: np.ndarray, mirrors: np.ndarray) -> np.ndarray:
    """Rows of ``roots`` and ``mirrors`` interleaved: root j, then its mirror."""
    return np.stack([roots, mirrors], axis=1).reshape(-1, *roots.shape[1:])


def enumerate_cyclic(linkage: Linkage) -> CyclicTable:
    """Every cyclic configuration of the linkage.

    Scans the 2^(n-1) orientation strings with ``eps_1 = +1`` against all
    their feasible winding numbers at once and reuses each string's roots for
    its mirror ``(-E, -k)``: ``F_{-E,-k} = -F_{E,k}`` holds exactly in
    floating point, so the mirror's brackets and refined roots are
    bit-identical.  Each root is flagged and described once; its mirror row
    takes the negated string and winding, the center reflected across the
    pinned edge, and the same half-angles and flags, since ``central`` and
    ``near_flip`` depend on the half-angles alone and ``delta_zero`` on
    ``|delta|``.  The vertices of every row are rebuilt; they keep the
    string's orientations, since they step by ``2 eps_i alpha_i`` with
    ``alpha_i < pi/2`` on every edge not flagged central.  Rows are sorted
    by (winding, orientation string, radius), a root before its mirror
    where all three tie.

    Raises :class:`InvalidLinkageError` for more than :data:`MAX_EDGES`
    edges.  Returns a :class:`CyclicTable`.
    """
    n = linkage.n
    if n > MAX_EDGES:
        raise InvalidLinkageError(
            f"{n} edges exceed the enumeration budget of {MAX_EDGES}: "
            f"the scan covers 2^(n-1) orientation strings")
    bits = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 2, -1, -1)) & 1
    strings = np.concatenate([np.ones((bits.shape[0], 1)), 1.0 - 2.0 * bits], axis=1)
    positives = n - bits.sum(axis=1)
    rows, ks, thetas = _scan(linkage, strings, *_winding_bounds(n, positives))

    eps = strings[rows]
    radius, alphas, center = _root_geometry(linkage, eps, thetas)
    defects = _closure_defects(eps, alphas, ks)
    if defects.size and defects.max() > CLOSURE_TOL:
        raise InconsistentDescriptorError(
            f"angular closure defect {defects.max():.3e} exceeds {CLOSURE_TOL:.0e}")
    flags = [_pairs(mask, mask) for mask in _flag_rows(eps, alphas)]
    eps, ks = _pairs(eps, -eps).astype(int), _pairs(ks, -ks)
    radius, alphas = _pairs(radius, radius), _pairs(alphas, alphas)
    center = _pairs(center, center * np.array([-1.0, 1.0]))
    # lexsort is stable and its last key sorts first
    order = np.lexsort((radius, *eps.T[::-1], ks))
    eps, ks, radius, alphas, center = (col[order] for col in (eps, ks, radius, alphas, center))
    central, near_flip, delta_zero = (mask[order] for mask in flags)
    return CyclicTable(eps=eps, k=ks, radius=radius, alphas=alphas, center=center,
                       points=_vertices(linkage, radius, center, eps, alphas),
                       central=central, near_flip=near_flip, delta_zero=delta_zero,
                       flagged=delta_zero | central.any(axis=1) | near_flip.any(axis=1))
