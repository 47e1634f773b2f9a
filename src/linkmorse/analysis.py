"""Pipeline gluing enumeration, the sign formulas, and the numerical oracle.

One :class:`ConfigurationAnalysis` per enumerated cyclic configuration holds
the descriptor, coordinates, degeneracy flags, signed area, closed-form
Morse data (when the configuration is generic enough for the formulas), the
oracle verdict, and their agreement.

The analysis is an array computation over a stack of configurations: the
points of a chunk of them, shape (rows, n, 2), go through the stacked
kernels of ``geometry`` (area, convexity), ``morse`` (the closed form) and
``oracle`` (the numerical verdict) once.  A row refused by a check keeps
its own refusal, and a flagged row skips the closed form and the oracle.
Chunks bound the work arrays whatever n is.  :func:`verify_enumeration`
analyses the records that pass its per-record checks the same way.  JSON encoding and decoding
of enumeration artifacts lives here too; :func:`write_enumeration` writes
an artifact record by record.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import LinkmorseError
from .geometry import (
    INPUT_TOL,
    Configuration,
    Linkage,
    OrientationString,
    _convex_rows,
    _orientation_rows,
    _signed_areas,
    validate_configuration,
)
from .morse import MorseReport, SignReport, _closed_form_rows
from .oracle import OracleVerdict, _verdict_rows
from .solver import (
    CLOSURE_TOL,
    DEGENERACY_TOL,
    ROOT_RTOL,
    CyclicConfiguration,
    CyclicDescriptor,
    DegeneracyFlags,
    degeneracy_flags,
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
        """Formula against oracle: the determinant sign always, the index too
        when its formula applies.  None when either side has no sign."""
        if self.signs is None or self.oracle is None or not self.oracle.is_morse:
            return None
        return (self.signs.h_sign == self.oracle.det_sign
                and (self.morse is None or self.morse.index == self.oracle.index))


def _chunks(items: list, n: int):
    """Consecutive slices of ``items`` of at most ``_CHUNK // m^2`` rows,
    ``m = 2(n - 2)`` free coordinates."""
    step = max(1, _CHUNK // (2 * (n - 2)) ** 2)
    for start in range(0, len(items), step):
        yield items[start:start + step]


def _analyze_rows(items: list) -> list:
    """:class:`ConfigurationAnalysis` of each item of one chunk, as array
    operations over the stack of its points.  Flagged (near-degenerate)
    items skip the closed form and the oracle: the closed-form results only
    hold generically and the oracle comparison would be meaningless on the
    degeneracy boundary."""
    points = np.stack([item.configuration.points for item in items])
    areas = _signed_areas(points).tolist()
    convex = _convex_rows(points).tolist()
    live = [j for j, item in enumerate(items) if not item.flags.any]
    closed, verdicts = [], []
    if live:
        stack = points[live]
        descs = [items[j].descriptor for j in live]
        closed = _closed_form_rows(stack, np.array([d.center for d in descs]),
                                   np.array([d.radius for d in descs]))
        verdicts = _verdict_rows(stack)
    results = dict(zip(live, zip(closed, verdicts)))
    out = []
    for j, item in enumerate(items):
        signs = morse = oracle = None
        morse_error = oracle_error = "flagged non-generic"
        if j in results:
            (signs, morse, morse_error), verdict = results[j]
            if isinstance(verdict, LinkmorseError):
                oracle_error = str(verdict)
            else:
                oracle, oracle_error = verdict, None
        out.append(ConfigurationAnalysis(
            descriptor=item.descriptor, configuration=item.configuration, flags=item.flags,
            area=areas[j], convex=convex[j], signs=signs, morse=morse, morse_error=morse_error,
            oracle=oracle, oracle_error=oracle_error))
    return out


def analyze_linkage(linkage: Linkage) -> list:
    """Enumerate all cyclic configurations and analyze them, a chunk of
    configurations at a time as one stack of points."""
    items = enumerate_cyclic(linkage)
    return [result for chunk in _chunks(items, linkage.n) for result in _analyze_rows(chunk)]


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


def _check_record(linkage: Linkage, record):
    """The :class:`CyclicConfiguration` of an outside record that passes every
    check needing no analysis, or its failing row."""
    if not isinstance(record, dict):
        return _fail(f"malformed record: expected an object, got {type(record).__name__}")
    try:
        config = Configuration(record["points"])
        raw_flags = record["flags"]
        recorded = DegeneracyFlags(central=tuple(raw_flags.get("central", [])),
                                   near_flip=tuple(raw_flags.get("near_flip", [])),
                                   delta_zero=bool(raw_flags.get("delta_zero")))
        center = np.asarray(record["center"], dtype=float).reshape(2)
        radius = float(record["r"])
        eps = OrientationString(tuple(record["eps"]))
        winding = int(record["k"])
    except LinkmorseError as err:
        return _fail(str(err))
    except (AttributeError, KeyError, TypeError, ValueError) as err:
        return _fail(f"malformed record: {type(err).__name__}: {err}")
    try:
        violations = validate_configuration(linkage, config.points, tol=INPUT_TOL)
        if violations:
            return _fail(f"constraint violations: {violations[0]}")
        if not radius > 0.0:
            return _fail(f"recorded radius {radius} is not positive")
        dist = np.linalg.norm(config.points - center[None, :], axis=1)
        worst = float(np.max(np.abs(dist - radius)))
        if worst > INPUT_TOL * radius:
            return _fail(f"points deviate from the recorded circle by {worst:.3e}")
        # half-angles from the chord relation
        alphas = np.arcsin(np.clip(linkage.lengths / (2.0 * radius), 0.0, 1.0))
        desc = CyclicDescriptor(radius=radius, winding=winding, eps=eps,
                                alphas=alphas, center=center)
        flags = degeneracy_flags(eps, alphas)
    except LinkmorseError as err:
        return _fail(str(err))
    if flags != recorded:
        return _fail("recorded flags disagree with the recorded radius and orientation string")
    closure = int(np.rint(eps.array @ alphas / math.pi))
    if closure != winding:
        return _fail(f"recorded winding {winding} disagrees with the closure sum "
                     f"(winding {closure})")
    return CyclicConfiguration(desc, config, flags)


def _compared_rows(items: list) -> list:
    """Rows of records that passed their own checks, one chunk: the oracle
    checks the criticality of each, and an unflagged one's analysis is
    compared with the record and with itself."""
    points = np.stack([item.configuration.points for item in items])
    measured, central = _orientation_rows(points, np.array([item.descriptor.center
                                                            for item in items]))
    # a flagged record has no analysis, only its criticality checked
    flagged = [j for j, item in enumerate(items) if item.flags.any]
    verdicts = dict(zip(flagged, _verdict_rows(points[flagged]))) if flagged else {}
    rows = []
    for j, (item, result) in enumerate(zip(items, _analyze_rows(items))):
        verdict = verdicts.get(j, result.oracle)
        if verdict is None or isinstance(verdict, LinkmorseError):
            rows.append(_fail(result.oracle_error if verdict is None else str(verdict)))
            continue
        oracle_side = dict(residual=verdict.residual, inertia=verdict.inertia,
                           det_sign=verdict.det_sign, index=verdict.index, flagged=False)
        if verdict.residual > CRITICALITY_TOL:
            rows.append(_fail(f"criticality residual {verdict.residual:.3e} "
                              f"exceeds {CRITICALITY_TOL:.1e}"))
        elif item.flags.any:
            rows.append(VerificationRow(residual=verdict.residual, inertia=None, det_sign=None,
                                        index=None, formula_index=None, agree=True,
                                        flagged=True, note="flagged, excluded"))
        elif not verdict.is_morse:
            rows.append(VerificationRow(formula_index=None, agree=False,
                                        note="oracle found a zero eigenvalue", **oracle_side))
        elif central[j] is not None:
            rows.append(_fail(str(central[j])))
        elif tuple(measured[j].tolist()) != item.descriptor.eps.eps:
            rows.append(_fail("recorded orientation string disagrees with the geometry"))
        elif result.signs is None:
            rows.append(_fail(result.morse_error))
        elif result.morse is None:
            note = f"index formula not applicable ({result.morse_error})" if result.agree \
                else "determinant sign disagrees"
            rows.append(VerificationRow(formula_index=None, agree=result.agree, note=note,
                                        **oracle_side))
        else:
            rows.append(VerificationRow(
                formula_index=result.morse.index, agree=result.agree,
                note=None if result.agree else "formula and oracle disagree", **oracle_side))
    return rows


def verify_enumeration(linkage: Linkage, records: list):
    """Check each outside record, re-analyse it, and compare; returns
    (rows, summary line, all_ok).

    Each record is checked on its own first.  Its points must satisfy the
    linkage constraints and lie on the recorded circle (tamper detection for
    r and center), its winding must be that of its closure sum, and the
    degeneracy flags recomputed from the recorded radius and string must
    equal the recorded ones.  The records that pass are analysed a chunk at
    a time.  Each must be critical and reproduce the recorded orientation
    string; flagged records are reported but exempt from the agreement
    requirement.  Everything else is read off the record's
    :class:`ConfigurationAnalysis`, whose ``agree`` compares the determinant
    sign always and the index where its formula applies.  A record that is
    not an object, or has a missing or mistyped field, fails as malformed.
    """
    rows = [_check_record(linkage, record) for record in records]
    live = [j for j, row in enumerate(rows) if isinstance(row, CyclicConfiguration)]
    for chunk in _chunks(live, linkage.n):
        for j, row in zip(chunk, _compared_rows([rows[j] for j in chunk])):
            rows[j] = row
    flagged = sum(1 for r in rows if r.flagged)
    good = sum(1 for r in rows if r.agree and not r.flagged)
    ok = all(r.agree for r in rows)
    summary = f"{good}/{len(rows) - flagged} agree ({flagged} flagged)"
    return rows, summary, ok
