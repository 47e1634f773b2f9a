"""Closed-form Hessian sign and Morse index of the signed area.

At a generic cyclic configuration with orientation string ``eps``, ``e``
positive entries, winding ``k`` and ``delta = sum_i eps_i tan(alpha_i)``,
the Morse index is the paper's explicit formula
``mu = e - 1 - 2 k - [delta < 0]`` (:func:`morse_index`).  Its parity is
the sign of the Hessian determinant, ``-d * (-1)**e`` with
``d = sign(delta)`` (:func:`determinant_sign`).  It reads a descriptor
``(eps, k, alpha)`` alone (:func:`_closed_form_rows`): ``analyze_linkage``
passes the scan's, and :func:`closed_form` and ``verify`` measure them from
points on a circle (:func:`_measured_rows`), which first refuses a central
edge and an edge longer than the diameter.  Otherwise only a small
``|delta|`` refuses it.

Its proof path is the sequence of these determinant signs over the nested
subconfigurations ``(p_1..p_3), ..., (p_1..p_n)``, each closed by the chord
back to ``p_1`` and seeded with +1 for the triangle: ``mu`` is its number of
sign changes.  For ``P_i`` with ``4 <= i < n`` let ``S``, ``T`` and ``P`` be
the sums over its first ``i - 1`` edges of ``eps * alpha``,
``eps * tan(alpha)`` and ``[eps > 0]``.  The closing chord spans the central
angle ``2 S``, so it has ``eps_c * tan(alpha_c) = -tan(S)`` and
``eps_c = +1`` iff ``(-S) mod pi < pi/2``; hence

    h_i = -sign(T - tan S) * (-1)**(P + [(-S) mod pi < pi/2]).

Its length is ``2 r |sin S|``, its distance from the center ``r |cos S|``: it
vanishes at ``S = 0`` and is a diameter at ``S = pi/2`` (mod pi); these and
a small prefix ``|delta|`` refuse the sequence alone.  ``P_n`` closes with
its own last edge and uses the full sums.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .geometry import (
    CENTRAL_CROSS_TOL,
    CircleFit,
    Configuration,
    _dot_rows,
    _half_angle_rows,
    _orientation_rows,
    _refusals,
)

# |delta| below this multiple of sum(tan(alpha)) counts as degenerate: the
# index formula and the sign rule are undefined on the delta = 0 boundary.
DELTA_REL_TOL = 1e-9

# A closing chord vanishes when 2 |sin S|, its length over r, is at most this:
# a refusal of the sign sequence alone.
CHORD_TOL = 1e-9


def determinant_sign(d: int, e: int) -> int:
    """The sign rule ``-d * (-1)**e`` for ``d = sign(delta)`` and ``e``
    positive orientations."""
    return -d * (-1) ** e


def morse_index(eps: np.ndarray, k, delta) -> np.ndarray:
    """The Morse index by the paper's explicit formula (see the module
    docstring) of stacked orientation strings ``eps`` (rows of +-1),
    windings ``k`` and ``delta = sum_i eps_i tan(alpha_i)``: it holds where
    the full polygon's checks pass."""
    return (eps > 0).sum(axis=1) - 1 - 2 * k - (delta < 0)


def _delta_text(value, scale) -> str:
    return f"|delta| = {abs(value):.3e} below {DELTA_REL_TOL:.1e} * {scale:.3e}"


def _sign_rows(eps: np.ndarray, alphas: np.ndarray):
    """Sign data of stacked orientation strings and half-angles (rows of n).

    Returns ``(delta, h_sign, sequences, polygon, prefix)``: the full
    polygon's ``delta`` and determinant sign per row; the sign sequences of
    P_3 .. P_n, one row each, read off prefix sums as in the module
    docstring, with that sign last (n = 3 has the seed alone); and two
    refusal columns (None where the checks pass): the full
    polygon's, ``|delta|`` below :data:`DELTA_REL_TOL` times
    ``sum tan(alpha)`` (a central edge is the caller's to refuse first), and
    the first degenerate P_i, 4 <= i < n.
    """
    n = eps.shape[1]
    tans = np.tan(alphas)
    value = _dot_rows(eps, tans)
    full = determinant_sign(np.where(value > 0.0, 1, -1), (eps > 0.0).sum(axis=1))
    scale = tans.sum(axis=1)
    small = np.abs(value) < DELTA_REL_TOL * scale
    polygon = _refusals(small[:, None], lambda row, i: _delta_text(value[row], scale[row]))
    first = slice(2, n - 2)  # sums over the first i - 1 edges, i = 4 .. n - 1
    s = np.cumsum(eps * alphas, axis=1)[:, first]
    tan_s = np.tan(s)
    values = np.cumsum(eps * tans, axis=1)[:, first] - tan_s
    scales = np.cumsum(tans, axis=1)[:, first] + np.abs(tan_s)
    vanishing = 2.0 * np.abs(np.sin(s)) <= CHORD_TOL
    diameter = np.abs(np.cos(s)) <= CENTRAL_CROSS_TOL

    def refuse(row, j):
        i = j + 4
        if vanishing[row, j]:
            return f"chord p_{i} -> p_1 has vanishing length"
        if diameter[row, j]:
            return f"chord p_{i} -> p_1 is a diameter"
        return f"subconfiguration P_{i}: {_delta_text(values[row, j], scales[row, j])}"

    prefix = _refusals(vanishing | diameter | (np.abs(values) < DELTA_REL_TOL * scales), refuse)
    positives = np.cumsum(eps > 0.0, axis=1)[:, first] + (np.mod(-s, math.pi) < 0.5 * math.pi)
    sequences = [np.ones((eps.shape[0], 1), dtype=int)]
    if n > 3:
        sequences += [determinant_sign(np.where(values > 0.0, 1, -1), positives), full[:, None]]
    return value, full, np.concatenate(sequences, axis=1), polygon, prefix


class ClosedForm(NamedTuple):
    """The closed form of stacked configurations, as columns.

    ``eps`` holds the orientation strings (int rows of +-1) and ``k`` the
    windings it read; ``delta``, ``positives`` (``e``), ``h_sign`` and
    ``index``, by :func:`morse_index`, are the full polygon's sign data, and
    ``h_sequence`` the rows of sign sequences, the index's proof path.  Three
    object columns give per row the refusal (None where there is none) of a
    measured central edge, which leaves no measured string; the first
    refusal of the full polygon, which leaves no sign data; and the first
    refusal of all, which leaves no ``h_sequence``.
    """

    eps: np.ndarray
    k: np.ndarray
    delta: np.ndarray
    positives: np.ndarray
    h_sign: np.ndarray
    h_sequence: np.ndarray
    index: np.ndarray
    central: np.ndarray
    sign_errors: np.ndarray
    errors: np.ndarray


def _closed_form_rows(eps: np.ndarray, k, alphas: np.ndarray, central=None,
                      over=None) -> ClosedForm:
    """The :class:`ClosedForm` of stacked descriptors: orientation strings
    ``eps`` (int rows of +-1), windings ``k`` and half-angles ``alphas``.

    The refusals apply in this order: ``central`` and ``over``, the refusal
    columns of a measurement's central edges and edges longer than the
    diameter (None: the descriptors come with none), and a small
    ``|delta|``, which leave no sign data, then the first degenerate
    subconfiguration, which leaves no sequence.
    """
    value, h_sign, sequences, polygon, prefix = _sign_rows(eps, alphas)
    causes = np.stack(np.broadcast_arrays(central, over, polygon, prefix), axis=1)
    refused = np.not_equal(causes, None)
    return ClosedForm(
        eps=eps, k=k, delta=value, positives=(eps > 0).sum(axis=1), h_sign=h_sign,
        h_sequence=sequences, index=morse_index(eps, k, value), central=causes[:, 0],
        sign_errors=_refusals(refused[:, :3], lambda row, i: causes[row, i]),
        errors=_refusals(refused, lambda row, i: causes[row, i]))


def _measured_rows(points: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> ClosedForm:
    """:func:`_closed_form_rows` of stacked configurations, shape (rows, n, 2),
    on their circles, after the orientation strings, half-angles and
    windings ``rint(eps . alpha / pi)`` they measure; a central edge (a
    diameter among them) and an edge longer than the diameter refuse first.
    """
    sides, central = _orientation_rows(points, centers)
    alphas, over = _half_angle_rows(points, centers, radii)
    k = np.rint(_dot_rows(sides, alphas) / math.pi).astype(int)
    return _closed_form_rows(sides, k, alphas, central, over)


def closed_form(config: Configuration, fit: CircleFit) -> ClosedForm:
    """The :class:`ClosedForm` of one cyclic configuration on its circle:
    row 0 of :func:`_measured_rows`, each field that row's entry.

    Orientations and half-angles are measured once, from the points and the
    circle.  The sign data and the index hold where ``sign_errors`` is None,
    the sequence where ``errors`` is; otherwise that text says why not.
    """
    form = _measured_rows(config.points[None], fit.center[None], np.array([fit.radius]))
    return ClosedForm(*(column[0] for column in form))
