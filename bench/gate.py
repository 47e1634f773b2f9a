"""Per-linkage correctness gate, independent of the program's own checks.

For a generic linkage (no signed subset sum of the lengths is zero) the
planar polygon space is a closed manifold of dimension n - 3 on which the
signed area is a Morse function whose critical points are the cyclic
configurations.  Farber and Schuetz (*Homology of planar polygon spaces*,
Geom. Dedicata 125, 2007) give its Betti numbers by counting short subsets:

    b_i = a_i + a_{n-3-i},

where ``a_i`` is the number of short subsets of size i + 1 that contain a
fixed longest edge (a subset is short when its lengths sum to less than the
rest).  A complete enumeration with per-index counts ``c_m`` must then meet
``sum (-1)^m c_m = chi`` and the Morse inequalities ``c_m >= b_m``.  A
missing pair of roots breaks one of them, so a faster enumeration that loses
roots fails this gate instead of counting as a win.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

# A signed subset sum within this share of the perimeter counts as zero:
# the linkage lies on a wall, where the polygon space is singular.
WALL_RTOL = 1e-12

# Radii of a configuration and its mirror image agree to this relative gap.
MIRROR_RTOL = 1e-9


class Critical(NamedTuple):
    """What the gate needs to know about one reported critical point."""

    eps: tuple
    k: int
    r: float
    index: int | None
    flagged: bool
    agree: bool | None


def betti_numbers(lengths) -> tuple:
    """Farber-Schuetz Betti numbers ``(b_0, ..., b_{n-3})`` of a generic
    planar polygon space, by counting short subsets."""
    lengths = [float(v) for v in lengths]
    n = len(lengths)
    total = math.fsum(lengths)
    top = max(range(n), key=lambda i: lengths[i])
    others = [i for i in range(n) if i != top]
    a = [0] * (n - 2)
    for extra in range(n - 2):
        for combo in itertools.combinations(others, extra):
            part = math.fsum([lengths[top]] + [lengths[j] for j in combo])
            if 2.0 * part < total:
                a[extra] += 1
    return tuple(a[i] + a[n - 3 - i] for i in range(n - 2))


def euler_characteristic(betti) -> int:
    return sum((-1) ** i * b for i, b in enumerate(betti))


def is_wall(lengths) -> bool:
    """True when some signed subset sum of the lengths is zero."""
    lengths = [float(v) for v in lengths]
    scale = WALL_RTOL * math.fsum(lengths)
    head, rest = lengths[0], lengths[1:]
    for signs in itertools.product((1.0, -1.0), repeat=len(rest)):
        if abs(math.fsum([head] + [s * v for s, v in zip(signs, rest)])) <= scale:
            return True
    return False


def _mirror_problem(criticals) -> str | None:
    """Every (E, k, r) must come with its mirror image (-E, -k, r)."""
    radii: dict = {}
    for c in criticals:
        radii.setdefault((tuple(c.eps), int(c.k)), []).append(float(c.r))
    for (eps, k), rs in radii.items():
        mirror = radii.get((tuple(-v for v in eps), -k), [])
        if len(mirror) != len(rs) or any(
                abs(a - b) > MIRROR_RTOL * a for a, b in zip(sorted(rs), sorted(mirror))):
            return f"mirror pairing broken at E={eps}, k={k}"
    return None


class Failure(NamedTuple):
    """Why a linkage's output failed the gate.  ``wrong`` is False when the
    program declined to answer (flagged configurations on a generic
    linkage), True when it answered wrongly."""

    problem: str
    wrong: bool


def check(lengths, criticals, betti=None, wall=None) -> Failure | None:
    """Gate one linkage's reported critical points; None when they pass.

    A wall linkage passes only when something is flagged (a refusal is
    decided by the caller); unflagged, its count is a miscount.  On a
    generic linkage, flagged configurations fail the op as a refusal: the
    counts are then incomplete, so only the checks that flags cannot excuse
    run (formula/oracle agreement and mirror pairing).  Without flags every
    record needs an index, and the counts must meet the Euler characteristic
    and the Morse inequalities.
    """
    if wall is None:
        wall = is_wall(lengths)
    if wall:
        if any(c.flagged for c in criticals):
            return None
        return Failure(f"wall linkage neither refused nor flagged "
                       f"({len(criticals)} configurations)", wrong=True)
    wrong = []
    if any(c.agree is False for c in criticals):
        wrong.append("formula and oracle disagree")
    mirror = _mirror_problem(criticals)
    if mirror:
        wrong.append(mirror)
    flagged = sum(1 for c in criticals if c.flagged)
    if flagged:
        problems = [f"{flagged} flagged configurations"] + wrong
        return Failure("; ".join(problems), wrong=bool(wrong))
    if betti is None:
        betti = betti_numbers(lengths)
    counts = [0] * len(betti)
    for c in criticals:
        if c.index is not None and 0 <= c.index < len(betti):
            counts[c.index] += 1
    unindexed = len(criticals) - sum(counts)
    if unindexed:
        wrong.append(f"{unindexed} configurations without a valid index")
    chi = euler_characteristic(betti)
    alternating = euler_characteristic(counts)
    if alternating != chi:
        wrong.append(f"sum (-1)^m c_m = {alternating} != chi = {chi}")
    wrong += [f"c_{m} = {c_m} < b_{m} = {b_m}"
              for m, (c_m, b_m) in enumerate(zip(counts, betti)) if c_m < b_m]
    return Failure("; ".join(wrong), wrong=True) if wrong else None
