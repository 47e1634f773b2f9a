"""Closed-form Hessian sign and Morse index of the signed area.

At a generic cyclic configuration the sign of the Hessian determinant of the
signed area is ``-d * (-1)**e`` where ``d = sign(delta)``,
``delta = sum_i eps_i tan(alpha_i)``, and ``e`` counts the positive entries
of the orientation string.  The Morse index is the number of sign changes in
the sequence of these determinant signs taken over the nested
subconfigurations ``(p_1..p_3), (p_1..p_4), ..., (p_1..p_n)``, each closed by
the chord back to ``p_1`` and seeded with +1 for the triangle.
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

# Relative slack for chord degeneracy tests (vanishing or diametral chords,
# chords through the center), and the distance below pi/2 at which a
# half-angle makes its edge a diameter.
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


def hessian_sign(eps, delta_value: float, tol: float = 0.0) -> int:
    """Hessian determinant sign ``-sign(delta) * (-1)**e``.

    ``tol`` is an absolute floor on |delta| below which the configuration is
    declared non-generic (the sign rule has no value on the boundary).
    """
    eps = eps if isinstance(eps, OrientationString) else OrientationString(tuple(eps))
    if abs(delta_value) <= tol or delta_value == 0.0:
        raise NonGenericError(f"delta = {delta_value:.3e} is on the degeneracy boundary")
    return determinant_sign(1 if delta_value > 0.0 else -1, eps.positive_count)


def sign_report(alphas, eps) -> SignReport:
    """Determinant-sign report with a scale-aware genericity guard on delta."""
    eps = eps if isinstance(eps, OrientationString) else OrientationString(tuple(eps))
    value = delta(alphas, eps)
    scale = float(np.sum(np.tan(np.asarray(alphas, dtype=float))))
    if abs(value) < DELTA_REL_TOL * scale:
        raise NonGenericError(f"|delta| = {abs(value):.3e} below {DELTA_REL_TOL:.1e} * {scale:.3e}")
    return SignReport(delta=value, d=1 if value > 0.0 else -1, e=eps.positive_count)


def closing_chord(config: Configuration, fit: CircleFit, i: int):
    """Length, orientation, and half-angle of the chord ``p_i -> p_1`` that
    closes the subconfiguration ``(p_1, ..., p_i)``.

    Valid for 3 <= i <= n - 1.  Raises when the chord vanishes (consecutive
    subconfiguration endpoints coincide) or runs through the center.
    """
    n = config.n
    if not 3 <= i <= n - 1:
        raise InvalidConfigurationError(f"chord index must satisfy 3 <= i <= {n - 1}, got {i}")
    a = config.points[i - 1]
    b = config.points[0]
    chord = b - a
    length = float(np.hypot(*chord))
    r = fit.radius
    if length <= CHORD_TOL * r:
        raise VanishingChordError(f"chord p_{i} -> p_1 has vanishing length", index=i)
    if abs(length - 2.0 * r) <= CHORD_TOL * r:
        raise CentralConfigurationError(f"chord p_{i} -> p_1 is a diameter", index=i)
    w = fit.center - a
    cross = chord[0] * w[1] - chord[1] * w[0]
    if abs(cross) <= CHORD_TOL * length * r:
        raise CentralConfigurationError(f"chord p_{i} -> p_1 runs through the center", index=i)
    eps = 1 if cross > 0.0 else -1
    alpha = math.asin(min(length / (2.0 * r), 1.0))
    return length, eps, alpha


def subconfig_sign_sequence(config: Configuration, fit: CircleFit) -> tuple:
    """Determinant signs of the nested subconfigurations P_3 .. P_n.

    Entry 0 is +1 by convention.  For 4 <= i < n the subconfiguration closes
    with the chord ``p_i -> p_1``; for i = n the actual last edge already
    closes the polygon and no chord is added.  Degeneracies are reported with
    the offending subconfiguration index attached.
    """
    return _sign_sequence(config, fit, edge_orientations(config.points, fit.center),
                          measure_half_angles(config.points, fit))


def _sign_sequence(config: Configuration, fit: CircleFit, eps_full: OrientationString,
                   alphas_full: np.ndarray) -> tuple:
    n = config.n
    signs = [1]
    for i in range(4, n + 1):
        if i < n:
            _, chord_eps, chord_alpha = closing_chord(config, fit, i)
            eps_i = tuple(eps_full.eps[: i - 1]) + (chord_eps,)
            alphas_i = np.append(alphas_full[: i - 1], chord_alpha)
        else:
            eps_i = eps_full.eps
            alphas_i = alphas_full
        try:
            report = sign_report(alphas_i, eps_i)
        except NonGenericError as err:
            raise NonGenericError(f"subconfiguration P_{i}: {err}", index=i) from err
        signs.append(report.h_sign)
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
        return signs, MorseReport(_sign_sequence(config, fit, eps, alphas)), None
    except LinkmorseError as err:
        return signs, None, str(err)
