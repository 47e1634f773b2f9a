"""Closed-form Hessian sign and Morse index of the signed area.

At a generic cyclic configuration with orientation string ``eps``, ``e``
positive entries, winding ``k`` and ``delta = sum_i eps_i tan(alpha_i)``,
the Morse index is the paper's explicit formula
``mu = e - 1 - 2 k - [delta < 0]``.  Its parity is the sign of the Hessian
determinant, ``-d * (-1)**e`` with ``d = sign(delta)``
(:func:`determinant_sign`).  Only the full polygon's checks refuse it: a
central edge, an edge longer than the diameter, a small ``|delta|``.

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


def _delta_text(value, scale) -> str:
    return f"|delta| = {abs(value):.3e} below {DELTA_REL_TOL:.1e} * {scale:.3e}"


def _sign_rows(eps: np.ndarray, alphas: np.ndarray):
    """Sign data of stacked orientation strings and half-angles (rows of n).

    Returns ``(delta, sequences, polygon, prefix)``: the full polygon's
    ``delta`` per row; the sign sequences of P_3 .. P_n, one row each, read
    off prefix sums as in the module docstring, with the full polygon's sign
    last; and two refusal columns (None where the checks pass): the full
    polygon's, ``|delta|`` below :data:`DELTA_REL_TOL` times
    ``sum tan(alpha)`` (a central edge is the caller's to refuse first), and
    the first degenerate P_i, 4 <= i < n.
    """
    n = eps.shape[1]
    tans = np.tan(alphas)
    value = _dot_rows(eps, tans)
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
        full = determinant_sign(np.where(value > 0.0, 1, -1), (eps > 0.0).sum(axis=1))
        sequences += [determinant_sign(np.where(values > 0.0, 1, -1), positives), full[:, None]]
    return value, np.concatenate(sequences, axis=1), polygon, prefix


class ClosedForm(NamedTuple):
    """:func:`closed_form` of stacked configurations, as columns.

    ``eps`` holds the measured orientation strings (int rows of +-1) and
    ``k`` the measured windings ``rint(eps . alpha / pi)``; ``delta``,
    ``positives`` (``e``), ``h_sign`` and ``index``, ``e - 1 - 2 k -
    [delta < 0]``, are the full polygon's sign data, and ``h_sequence`` the
    rows of sign sequences, the index's proof path.  Three object columns
    give per row the refusal (None where there is none) of a central edge,
    which leaves no measured string; the first refusal of the full polygon,
    which leaves no sign data; and the first refusal of all, which leaves
    no ``h_sequence``.
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


def _closed_form_rows(points: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> ClosedForm:
    """:func:`closed_form` of each stacked configuration, shape (rows, n, 2),
    on its circle, after the orientation string and the winding it
    measures, as :class:`ClosedForm` columns.

    The refusals apply in this order: a central edge (a diameter among
    them), an edge longer than the diameter and a small ``|delta|``, which
    leave no sign data, then the first degenerate subconfiguration, which
    leaves no sequence.
    """
    sides, central = _orientation_rows(points, centers)
    alphas, over = _half_angle_rows(points, centers, radii)
    strings = sides.astype(float)
    value, sequences, polygon, prefix = _sign_rows(strings, alphas)
    positives = (sides > 0).sum(axis=1)
    k = np.rint(_dot_rows(strings, alphas) / math.pi).astype(int)
    d = np.where(value > 0.0, 1, -1)
    causes = np.stack([central, over, polygon, prefix], axis=1)
    refused = np.not_equal(causes, None)
    return ClosedForm(
        eps=sides, k=k, delta=value, positives=positives, h_sign=determinant_sign(d, positives),
        h_sequence=sequences, index=positives - 1 - 2 * k - (d < 0), central=central,
        sign_errors=_refusals(refused[:, :3], lambda row, i: causes[row, i]),
        errors=_refusals(refused, lambda row, i: causes[row, i]))


def closed_form(config: Configuration, fit: CircleFit) -> ClosedForm:
    """The :class:`ClosedForm` of one cyclic configuration on its circle:
    row 0 of :func:`_closed_form_rows`, each field that row's entry.

    Orientations and half-angles are measured once, from the points and the
    circle.  The sign data and the index hold where ``sign_errors`` is None,
    the sequence where ``errors`` is; otherwise that text says why not.
    """
    form = _closed_form_rows(config.points[None], fit.center[None], np.array([fit.radius]))
    return ClosedForm(*(column[0] for column in form))
