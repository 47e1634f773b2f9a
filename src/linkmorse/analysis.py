"""Pipeline gluing enumeration, the sign formulas, and the numerical oracle.

One :class:`ConfigurationAnalysis` per enumerated cyclic configuration holds
the descriptor, coordinates, degeneracy flags, signed area, closed-form
Morse data (when the configuration is generic enough for the formulas), the
oracle verdict, and their agreement.

The analysis is an array computation over a stack of configurations: the
points of a chunk of them, shape (rows, n, 2), go through the stacked
kernels of ``geometry`` (area, convexity), ``morse`` (the closed form) and
``oracle`` (the numerical verdict) once, and a row refused by a check keeps
its own refusal.  One kernel, :func:`_analyze_rows`, serves both
:func:`analyze_linkage`, which passes its unflagged configurations, and
:func:`verify_enumeration`, which parses the fields of each outside record,
checks them as one stack and passes the records that pass; both compare
formula and oracle by one rule, :func:`_agreement`.  JSON encoding and
decoding of enumeration artifacts lives here too; :func:`write_enumeration`
writes an artifact record by record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigurationError, LinkmorseError
from .geometry import (
    INPUT_TOL,
    Configuration,
    Linkage,
    _as_points,
    _convex_rows,
    _dot_rows,
    _refusals,
    _signed_areas,
)
from .morse import MorseReport, SignReport, _closed_form_rows
from .oracle import OracleVerdict, _verdict_rows
from .solver import (
    CLOSURE_TOL,
    DEGENERACY_TOL,
    ROOT_RTOL,
    CyclicDescriptor,
    DegeneracyFlags,
    _flag_rows,
    enumerate_cyclic,
)

# Residual above which an allegedly cyclic configuration is not accepted as a
# critical point during verification.
CRITICALITY_TOL = 1e-8

# Work-array budget of the stacked analysis, in float64 entries.  A chunk of
# configurations takes _CHUNK // m^2 rows, m = 2(n - 2) free coordinates, so
# each of the oracle's (rows, m, m) arrays takes at most 512 kB whatever n
# is, as solver._BLOCK bounds the scan's tables.
_CHUNK = 2 ** 16


@dataclass(frozen=True)
class ConfigurationAnalysis:
    """Everything computed about one enumerated configuration."""

    descriptor: CyclicDescriptor
    configuration: Configuration
    flags: DegeneracyFlags
    area: float
    convex: bool
    signs: SignReport | None
    morse: MorseReport | None
    morse_error: str | None
    oracle: OracleVerdict | None
    oracle_error: str | None

    @property
    def index(self) -> int | None:
        """Morse index: the closed-form value when available, otherwise the
        oracle count of negative eigenvalues (used for configurations whose
        subconfiguration sequence is degenerate)."""
        if self.morse is not None:
            return self.morse.index
        if self.oracle is not None and self.oracle.is_morse:
            return self.oracle.index
        return None

    @property
    def index_source(self) -> str | None:
        if self.morse is not None:
            return "formula"
        if self.oracle is not None and self.oracle.is_morse:
            return "oracle"
        return None

    @property
    def agree(self) -> bool | None:
        return _agreement(self.signs, self.morse, self.oracle)


def _agreement(signs, morse, verdict) -> bool | None:
    """Formula against oracle: the determinant sign always, the index too
    when its formula applies.  None when either side has no sign."""
    if signs is None or verdict is None or not verdict.is_morse:
        return None
    return signs.h_sign == verdict.det_sign and (morse is None or morse.index == verdict.index)


def _chunks(items: list, n: int):
    """Consecutive slices of ``items`` of at most ``_CHUNK // m^2`` rows,
    ``m = 2(n - 2)`` free coordinates."""
    step = max(1, _CHUNK // (2 * (n - 2)) ** 2)
    for start in range(0, len(items), step):
        yield items[start:start + step]


def _analyze_rows(points, centers, radii, flagged) -> list:
    """Per stacked configuration, shape (rows, n, 2), on its circle:
    ``(eps, signs, morse, error, verdict)``.  An unflagged row gets
    :func:`morse._closed_form_rows`, its measured orientation string first; a
    flagged (near-degenerate) one, where the closed form does not hold, gets
    Nones.  Every row gets the oracle's verdict or its NonRegularPointError."""
    live = np.flatnonzero(~flagged).tolist()
    closed = {j: (eps, *rest) for j, (eps, _, *rest)
              in zip(live, _closed_form_rows(points[live], centers[live], radii[live]))}
    return [closed.get(j, (None,) * 4) + (verdict,)
            for j, verdict in enumerate(_verdict_rows(points))]


def analyze_linkage(linkage: Linkage) -> list:
    """Enumerate all cyclic configurations and analyze them, a chunk of
    configurations at a time as one stack of points.  Flagged items skip the
    closed form and the oracle, whose comparison would be meaningless on the
    degeneracy boundary."""
    # a flagged item reads as refused by both sides
    flagged = (None, None, None, "flagged non-generic", LinkmorseError("flagged non-generic"))
    out = []
    for chunk in _chunks(enumerate_cyclic(linkage), linkage.n):
        points = np.stack([item.configuration.points for item in chunk])
        live = [j for j, item in enumerate(chunk) if not item.flags.any]
        descs = [chunk[j].descriptor for j in live]
        results = dict(zip(live, _analyze_rows(
            points[live], np.array([d.center for d in descs]).reshape(-1, 2),
            np.array([d.radius for d in descs]), np.zeros(len(live), dtype=bool))))
        for j, (item, area, convex) in enumerate(zip(chunk, _signed_areas(points).tolist(),
                                                     _convex_rows(points).tolist())):
            _, signs, morse, morse_error, verdict = results.get(j, flagged)
            refused = isinstance(verdict, LinkmorseError)
            out.append(ConfigurationAnalysis(
                descriptor=item.descriptor, configuration=item.configuration, flags=item.flags,
                area=area, convex=convex, signs=signs, morse=morse, morse_error=morse_error,
                oracle=None if refused else verdict,
                oracle_error=str(verdict) if refused else None))
    return out


def index_summary(analyses: list) -> str:
    """Human-readable count per Morse index, e.g.
    '14 configurations: index 0 x2, index 1 x10, index 2 x2'."""
    counts: dict = {}
    flagged = 0
    unknown = 0
    for a in analyses:
        if a.flags.any:
            flagged += 1
        idx = a.index
        if idx is None:
            if not a.flags.any:
                unknown += 1
            continue
        counts[idx] = counts.get(idx, 0) + 1
    parts = [f"index {m} x{counts[m]}" for m in sorted(counts)]
    text = f"{len(analyses)} configurations"
    if parts:
        text += ": " + ", ".join(parts)
    if flagged:
        text += f" ({flagged} flagged)"
    if unknown:
        text += f" ({unknown} without index)"
    return text


# ---------------------------------------------------------------------------
# JSON artifacts


def record_dict(analysis: ConfigurationAnalysis) -> dict:
    """The wire record of one configuration."""
    desc = analysis.descriptor
    return {
        "eps": list(desc.eps.eps),
        "k": desc.winding,
        "r": float(desc.radius),
        "center": [float(v) for v in desc.center],
        "points": [[float(x), float(y)] for x, y in analysis.configuration.points],
        "area": float(analysis.area),
        "flags": analysis.flags.to_json_dict(),
    }


def enumeration_dict(linkage: Linkage, analyses: list, seed: int | None = None) -> dict:
    """Envelope around the record array: linkage, seed, and the solver's
    tolerances are recorded so runs are reproducible from the artifact alone."""
    return {
        "lengths": [float(v) for v in linkage.lengths],
        "seed": seed,
        "tolerances": {
            "root_rtol": ROOT_RTOL,
            "degeneracy": DEGENERACY_TOL,
            "closure": CLOSURE_TOL,
        },
        "configurations": [record_dict(a) for a in analyses],
    }


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def write_enumeration(stream, linkage: Linkage, analyses, seed: int | None = None) -> None:
    """Write the artifact of ``analyses`` to ``stream`` record by record: the
    text of ``dump_json(enumeration_dict(linkage, analyses, seed))``, without
    holding the envelope or the whole text."""
    head, tail = dump_json(enumeration_dict(linkage, [], seed)).rsplit("[]", 1)
    stream.write(head + "[")
    sep = "\n"
    for analysis in analyses:
        record = json.dumps(record_dict(analysis), indent=2)
        stream.write(sep + "    " + record.replace("\n", "\n    "))
        sep = ",\n"
    stream.write(("]" if sep == "\n" else "\n  ]") + tail)


def load_enumeration(text: str):
    """Parse an enumeration artifact back to (linkage, records)."""
    data = json.loads(text)
    if not isinstance(data, dict) or "lengths" not in data or "configurations" not in data:
        raise LinkmorseError("enumeration JSON must carry 'lengths' and 'configurations'")
    linkage = Linkage(data["lengths"])
    records = data["configurations"]
    if not isinstance(records, list):
        raise LinkmorseError("'configurations' must be an array")
    return linkage, records


# ---------------------------------------------------------------------------
# Verification of an enumeration artifact


@dataclass(frozen=True)
class VerificationRow:
    """Per-record verification outcome."""

    residual: float | None
    inertia: tuple | None
    det_sign: int | None
    index: int | None
    formula_index: int | None
    agree: bool
    flagged: bool
    note: str | None

    def to_json_dict(self) -> dict:
        return {
            "residual": self.residual,
            "inertia": None if self.inertia is None else list(self.inertia),
            "det_sign": self.det_sign,
            "index": self.index,
            "formula_index": self.formula_index,
            "agree": self.agree,
            "flagged": self.flagged,
            "note": self.note,
        }


def _fail(note: str) -> VerificationRow:
    return VerificationRow(residual=None, inertia=None, det_sign=None, index=None,
                           formula_index=None, agree=False, flagged=False, note=note)


def _json_eps(values) -> tuple:
    """``eps`` read from JSON: JSON integers (not 1.7, which int() truncates), each +-1."""
    eps = tuple(values)
    if not all(type(v) is int for v in eps):
        raise TypeError("orientation entries must be JSON integers")
    if not eps or any(v not in (-1, 1) for v in eps):
        raise InvalidConfigurationError("orientation entries must be +1 or -1")
    return eps


def _json_winding(value) -> int:
    """``k`` read from JSON: a JSON integer, not a number such as -1.5, Infinity or true."""
    if type(value) is not int:
        raise TypeError(f"k must be a JSON integer, got {type(value).__name__}")
    return value


def _parse_record(n: int, record):
    """The stack rows ``(points, center, radius, eps, winding, flags)`` of an
    outside record, or its failing row: malformed when it is not an object or
    a field is missing or mistyped (``k`` and ``eps`` take JSON integers only).
    An ``eps`` or flags of another length than n stack as zeros or NaN, which
    fail their checks in :func:`_check_rows`."""
    if not isinstance(record, dict):
        return _fail(f"malformed record: expected an object, got {type(record).__name__}")
    try:
        points = _as_points(record["points"])
        if points.shape[0] < 3:
            raise InvalidConfigurationError("a configuration needs at least 3 vertices")
        raw = record["flags"]
        central, near_flip = tuple(raw.get("central", [])), tuple(raw.get("near_flip", []))
        delta_zero = bool(raw.get("delta_zero"))
        center = np.asarray(record["center"], dtype=float).reshape(2)
        radius = float(record["r"])
        eps = _json_eps(record["eps"])
        winding = _json_winding(record["k"])
    except LinkmorseError as err:
        return _fail(str(err))
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        return _fail(f"malformed record: {type(err).__name__}: {err}")
    if points.shape[0] != n:
        return _fail(f"configuration has {points.shape[0]} vertices, linkage has {n}")
    flags = [math.nan] * (2 * n)
    if len(central) == len(near_flip) == n:
        # an entry matches a recomputed flag when it equals it, as JSON 0 and 1 do
        flags = [1.0 if v == True else 0.0 if v == False else math.nan  # noqa: E712
                 for v in central + near_flip]
    return (points, center, radius, np.array(eps, dtype=float) if len(eps) == n else np.zeros(n),
            winding, flags + [float(delta_zero)])


def _check_rows(linkage: Linkage, points, centers, radii, eps, windings, recorded):
    """Per stacked record, the note of its first failing check (None when it
    passes them all), and whether its recomputed flags have a true entry.

    The checks, in this order: the pinning of p_1 and p_2 and the edge
    lengths, within :data:`INPUT_TOL`; a positive radius; every point on the
    recorded circle within ``INPUT_TOL * r`` (a non-finite deviation fails);
    an orientation string of n entries; the flags recomputed by ``_flag_rows``
    from the half-angles ``arcsin(l / 2r)`` equal to the recorded ones; and
    the winding equal to ``rint(eps . alpha / pi)``.
    """
    n, lengths = linkage.n, linkage.lengths
    l1 = float(lengths[0])
    # pinned p_1 and p_2 off (0, 0) and (0, l_1), then the edge lengths
    expected = np.concatenate([[0.0, 0.0], lengths])
    # a record that fails a check can leave inf or NaN in the later ones
    with np.errstate(all="ignore"):
        measured = np.concatenate([
            np.hypot(points[:, :1, 0], points[:, :1, 1]),
            np.hypot(points[:, 1:2, 0], points[:, 1:2, 1] - l1),
            np.linalg.norm(np.roll(points, -1, axis=1) - points, axis=2)], axis=1)
        dist = np.linalg.norm(points - centers[:, None, :], axis=2)
        worst = np.abs(dist - radii[:, None]).max(axis=1)
        alphas = np.arcsin(np.clip(lengths / (2.0 * radii[:, None]), 0.0, 1.0))
        central, near_flip, delta_zero = _flag_rows(eps, alphas)
        closure = np.rint(_dot_rows(eps, alphas) / math.pi)
    flags = np.concatenate([central, near_flip, delta_zero[:, None]], axis=1)
    failed = np.concatenate([
        np.abs(measured - expected) > INPUT_TOL * np.concatenate([[l1, l1], lengths]),
        np.stack([~(radii > 0.0), ~np.isfinite(worst) | (worst > INPUT_TOL * radii),
                  ~eps.any(axis=1), (flags != recorded).any(axis=1),
                  closure != np.array(windings, dtype=object)], axis=1)], axis=1)

    def note(row, i):
        if i < n + 2:
            kind, index = ("pinning", i + 1) if i < 2 else ("length", i - 1)
            return (f"constraint violations: {kind} violation at index {index}: "
                    f"measured {measured[row, i]:.12g}, expected {expected[i]:.12g}")
        if i == n + 2:
            return f"recorded radius {float(radii[row])} is not positive"
        if i == n + 3:
            return f"points deviate from the recorded circle by {worst[row]:.3e}"
        if i == n + 4:
            return "orientation string and half-angles disagree in length"
        if i == n + 5:
            return "recorded flags disagree with the recorded radius and orientation string"
        return (f"recorded winding {windings[row]} disagrees with the closure sum "
                f"(winding {int(closure[row])})")

    return _refusals(failed, note), flags.any(axis=1)


def _verification_row(recorded, flagged, measured, signs, morse, error, verdict):
    """The row of a record that passed its checks, from its ``eps``, flag and
    :func:`_analyze_rows` result: the oracle checks its criticality, and an
    unflagged record's analysis is compared with the record and itself."""
    if isinstance(verdict, LinkmorseError):
        return _fail(str(verdict))
    if verdict.residual > CRITICALITY_TOL:
        return _fail(f"criticality residual {verdict.residual:.3e} exceeds {CRITICALITY_TOL:.1e}")
    if flagged:
        return VerificationRow(residual=verdict.residual, inertia=None, det_sign=None, index=None,
                               formula_index=None, agree=True, flagged=True,
                               note="flagged, excluded")
    oracle_side = dict(residual=verdict.residual, inertia=verdict.inertia,
                       det_sign=verdict.det_sign, index=verdict.index, flagged=False)
    if not verdict.is_morse:
        return VerificationRow(formula_index=None, agree=False,
                               note="oracle found a zero eigenvalue", **oracle_side)
    # a central edge leaves no measured string, and its refusal is the error
    if measured is not None and measured != recorded:
        return _fail("recorded orientation string disagrees with the geometry")
    if signs is None:
        return _fail(error)
    agree = _agreement(signs, morse, verdict)
    if morse is None:
        note = f"index formula not applicable ({error})" if agree else "determinant sign disagrees"
        return VerificationRow(formula_index=None, agree=agree, note=note, **oracle_side)
    return VerificationRow(formula_index=morse.index, agree=agree,
                           note=None if agree else "formula and oracle disagree", **oracle_side)


def verify_enumeration(linkage: Linkage, records: list):
    """Check each outside record, re-analyse it, and compare; returns
    (rows, summary line, all_ok).

    The fields of each record are parsed on their own, then checked as one
    stack by :func:`_check_rows`, which detects tampered points, r, center,
    winding and flags.  The records that pass are analysed a chunk at a time:
    each must be critical and reproduce the recorded orientation string, and
    the closed form's determinant sign must agree with the oracle's always,
    its index where the formula applies.  Flagged records are reported but
    exempt from the agreement requirement.
    """
    n = linkage.n
    rows = [_parse_record(n, record) for record in records]
    parsed = [j for j, row in enumerate(rows) if not isinstance(row, VerificationRow)]
    if parsed:
        points, centers, radii, eps, windings, recorded = zip(*(rows[j] for j in parsed))
        points, centers, radii, eps, recorded = map(np.array, (points, centers, radii, eps,
                                                               recorded))
        notes, flagged = _check_rows(linkage, points, centers, radii, eps, windings, recorded)
        for j, note in zip(parsed, notes):
            if note is not None:
                rows[j] = _fail(note)
        live = [i for i, note in enumerate(notes) if note is None]
        for chunk in _chunks(live, n):
            analysed = _analyze_rows(points[chunk], centers[chunk], radii[chunk], flagged[chunk])
            for i, string, flag, result in zip(chunk, map(tuple, eps[chunk].tolist()),
                                               flagged[chunk].tolist(), analysed):
                rows[parsed[i]] = _verification_row(string, flag, *result)
    flagged = sum(1 for r in rows if r.flagged)
    good = sum(1 for r in rows if r.agree and not r.flagged)
    ok = all(r.agree for r in rows)
    summary = f"{good}/{len(rows) - flagged} agree ({flagged} flagged)"
    return rows, summary, ok
