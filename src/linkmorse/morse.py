"""Closed-form Hessian sign and Morse index of the signed area.

At a generic cyclic configuration the sign of the Hessian determinant of the
signed area is ``-d * (-1)**e`` where ``d = sign(delta)``,
``delta = sum_i eps_i tan(alpha_i)``, and ``e`` counts the positive entries
of the orientation string.  The Morse index is the number of sign changes in
the sequence of these determinant signs taken over the nested
subconfigurations ``(p_1..p_3), (p_1..p_4), ..., (p_1..p_n)``, each closed by
the chord back to ``p_1`` and seeded with +1 for the triangle.

The sequence depends on the combinatorics ``eps`` and the metric
characterization ``alpha`` alone.  For ``P_i`` with ``4 <= i < n`` let
``S``, ``T`` and ``P`` be the sums over its first ``i - 1`` edges of
``eps * alpha``, ``eps * tan(alpha)`` and ``[eps > 0]``.  The closing chord
spans the central angle ``2 S``, so it has ``eps_c * tan(alpha_c) = -tan(S)``
and ``eps_c = +1`` iff ``(-S) mod pi < pi/2``; hence

    h_i = -sign(T - tan S) * (-1)**(P + [(-S) mod pi < pi/2]).

Its length is ``2 r |sin S|``: it vanishes at ``S = 0`` and is a diameter at
``S = pi/2`` (mod pi), and both are refused.  ``P_n`` closes with its own last
edge and uses the full sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CentralConfigurationError,
    InvalidConfigurationError,
    LinkmorseError,
    NonGenericError,
    VanishingChordError,
)
from .geometry import (
    CircleFit,
    Configuration,
    OrientationString,
    edge_orientations,
    fit_circle,
    measure_half_angles,
)

# |delta| below this multiple of sum(tan(alpha)) counts as degenerate: the
# determinant sign rule is undefined on the delta = 0 boundary.
DELTA_REL_TOL = 1e-9

# Relative slack for chord degeneracy tests (vanishing or diametral chords),
# and the distance below pi/2 at which a half-angle makes its edge a diameter.
CHORD_TOL = 1e-9


def determinant_sign(d: int, e: int) -> int:
    """The sign rule ``-d * (-1)**e`` for ``d = sign(delta)`` and ``e``
    positive orientations."""
    return -d * (-1) ** e


@dataclass(frozen=True)
class SignReport:
    """Determinant-sign data of one closed cyclic polygon."""

    delta: float
    d: int
    e: int

    @property
    def h_sign(self) -> int:
        return determinant_sign(self.d, self.e)

    def to_json_dict(self) -> dict:
        return {"delta": float(self.delta), "d": self.d, "e": self.e, "h_sign": self.h_sign}


@dataclass(frozen=True)
class MorseReport:
    """Subconfiguration sign sequence; the Morse index counts its sign changes."""

    h_sequence: tuple

    @property
    def index(self) -> int:
        seq = self.h_sequence
        return sum(1 for a, b in zip(seq, seq[1:]) if a != b)

    def to_json_dict(self) -> dict:
        return {"h_sequence": list(self.h_sequence), "index": self.index}


def delta(alphas, eps) -> float:
    """``sum_i eps_i tan(alpha_i)`` for half-angles strictly below pi/2."""
    al = np.asarray(alphas, dtype=float)
    eps = eps if isinstance(eps, OrientationString) else OrientationString(tuple(eps))
    if al.size != len(eps):
        raise InvalidConfigurationError("half-angle and orientation lengths differ")
    too_close = np.nonzero(al >= 0.5 * math.pi - CHORD_TOL)[0]
    if too_close.size:
        raise CentralConfigurationError(
            f"edge {int(too_close[0]) + 1} is (numerically) a diameter",
            index=int(too_close[0]) + 1,
        )
    return float(eps.array @ np.tan(al))


def sign_report(alphas, eps) -> SignReport:
    """Determinant-sign report with a scale-aware genericity guard on delta."""
    eps = eps if isinstance(eps, OrientationString) else OrientationString(tuple(eps))
    value = delta(alphas, eps)
    scale = float(np.sum(np.tan(np.asarray(alphas, dtype=float))))
    if abs(value) < DELTA_REL_TOL * scale:
        raise NonGenericError(f"|delta| = {abs(value):.3e} below {DELTA_REL_TOL:.1e} * {scale:.3e}")
    return SignReport(delta=value, d=1 if value > 0.0 else -1, e=eps.positive_count)


def subconfig_sign_sequence(config: Configuration, fit: CircleFit) -> tuple:
    """Determinant signs of the nested subconfigurations P_3 .. P_n, from the
    orientations and half-angles measured once from the points and the circle.
    """
    return _sign_sequence(edge_orientations(config.points, fit.center),
                          measure_half_angles(config.points, fit))


def _sign_sequence(eps: OrientationString, alphas: np.ndarray) -> tuple:
    """Sign sequence of P_3 .. P_n from prefix sums of ``(eps, alpha)``.

    Entry 0 is +1 by convention.  For 4 <= i < n the closing chord of P_i is
    read off the sums over its first i - 1 edges (see the module docstring);
    entry n is the full polygon's sign.  Degeneracies are reported with the
    offending subconfiguration index attached.
    """
    n = len(eps)
    e, tans = eps.array, np.tan(alphas)
    first = slice(2, n - 2)  # sums over the first i - 1 edges, i = 4 .. n - 1
    s = np.cumsum(e * alphas)[first]
    sin_s, tan_s = np.abs(np.sin(s)), np.tan(s)
    values = np.cumsum(e * tans)[first] - tan_s
    scales = np.cumsum(tans)[first] + np.abs(tan_s)
    vanishing = 2.0 * sin_s <= CHORD_TOL
    diameter = 2.0 * (1.0 - sin_s) <= CHORD_TOL
    diameter_edge = np.maximum.accumulate(alphas)[first] >= 0.5 * math.pi - CHORD_TOL
    small = np.abs(values) < DELTA_REL_TOL * scales
    bad = np.flatnonzero(vanishing | diameter | diameter_edge | small)
    if bad.size:
        j = int(bad[0])
        i = j + 4
        if vanishing[j]:
            raise VanishingChordError(f"chord p_{i} -> p_1 has vanishing length", index=i)
        if diameter[j]:
            raise CentralConfigurationError(f"chord p_{i} -> p_1 is a diameter", index=i)
        if diameter_edge[j]:
            delta(alphas, eps)  # raises, naming the first edge that is a diameter
        raise NonGenericError(f"subconfiguration P_{i}: |delta| = {abs(values[j]):.3e} "
                              f"below {DELTA_REL_TOL:.1e} * {scales[j]:.3e}", index=i)
    positives = np.cumsum(e > 0.0)[first] + (np.mod(-s, math.pi) < 0.5 * math.pi)
    signs = [1] + determinant_sign(np.where(values > 0.0, 1, -1), positives).tolist()
    if n > 3:
        try:
            signs.append(sign_report(alphas, eps).h_sign)
        except NonGenericError as err:
            raise NonGenericError(f"subconfiguration P_{n}: {err}", index=n) from err
    return tuple(signs)


def morse_index(config: Configuration, fit: CircleFit | None = None) -> MorseReport:
    """Morse index of the signed area at a generic cyclic configuration.

    The index equals the number of adjacent sign changes in the
    subconfiguration sequence, always within [0, n - 3].
    """
    if fit is None:
        fit = fit_circle(config.points)
        if fit is None:
            raise InvalidConfigurationError("configuration is not cyclic; no circumcircle fits")
    return MorseReport(subconfig_sign_sequence(config, fit))


def closed_form(config: Configuration, fit: CircleFit):
    """``(signs, morse, error)``: the full-polygon :class:`SignReport`, the
    :class:`MorseReport` and the error text of one cyclic configuration.

    Orientations and half-angles are measured once, from the points and the
    circle.  On a :class:`LinkmorseError` the reports not yet computed are
    None and ``error`` says why; ``signs`` survives alone when only the
    subconfiguration sequence is degenerate.
    """
    signs = None
    try:
        eps = edge_orientations(config.points, fit.center)
        alphas = measure_half_angles(config.points, fit)
        signs = sign_report(alphas, eps)
        return signs, MorseReport(_sign_sequence(eps, alphas)), None
    except LinkmorseError as err:
        return signs, None, str(err)
