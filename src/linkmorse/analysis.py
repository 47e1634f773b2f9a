"""Pipeline gluing enumeration, the sign formulas, and the numerical oracle.

One :class:`ConfigurationAnalysis` per enumerated cyclic configuration holds
the descriptor, coordinates, degeneracy flags, signed area, closed-form
Morse data (when the configuration is generic enough for the formulas), the
oracle verdict, and their agreement.  JSON encoding/decoding of enumeration
artifacts lives here too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import LinkmorseError
from .geometry import (
    INPUT_TOL,
    Configuration,
    Linkage,
    OrientationString,
    edge_orientations,
    is_convex_positive,
    signed_area,
    validate_configuration,
)
from .morse import MorseReport, SignReport, closed_form
from .oracle import OracleVerdict, criticality_residual, oracle_index
from .solver import (
    CLOSURE_TOL,
    DEGENERACY_TOL,
    ROOT_RTOL,
    CyclicConfiguration,
    CyclicDescriptor,
    DegeneracyFlags,
    enumerate_cyclic,
)

# Residual above which an allegedly cyclic configuration is not accepted as a
# critical point during verification.
CRITICALITY_TOL = 1e-8


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


def analyze_configuration(linkage: Linkage, item: CyclicConfiguration) -> ConfigurationAnalysis:
    """Run the sign formulas and the oracle on one enumerated configuration.

    Flagged (near-degenerate) configurations skip both: the closed-form
    results only hold generically and the oracle comparison would be
    meaningless on the degeneracy boundary.
    """
    desc, config, flags = item.descriptor, item.configuration, item.flags
    area = signed_area(config.points)
    convex = is_convex_positive(config.points)
    signs = morse = oracle = None
    morse_error = oracle_error = None
    if flags.any:
        morse_error = oracle_error = "flagged non-generic"
    else:
        signs, morse, morse_error = closed_form(config, desc.circle)
        try:
            oracle = oracle_index(config, linkage)
        except LinkmorseError as err:
            oracle_error = str(err)
    return ConfigurationAnalysis(
        descriptor=desc, configuration=config, flags=flags, area=area, convex=convex,
        signs=signs, morse=morse, morse_error=morse_error,
        oracle=oracle, oracle_error=oracle_error,
    )


def analyze_linkage(linkage: Linkage) -> list:
    """Enumerate all cyclic configurations and analyze each."""
    return [analyze_configuration(linkage, item) for item in enumerate_cyclic(linkage)]


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


def verify_record(linkage: Linkage, record: dict) -> VerificationRow:
    """Check one outside record, re-analyse it, and compare.

    The points must satisfy the linkage constraints, lie on the recorded
    circle (tamper detection for r and center), be critical, and reproduce
    the recorded orientation string.  Flagged records are reported but exempt
    from the agreement requirement.  Everything else is read off
    :func:`analyze_configuration` of the record, whose ``agree`` compares the
    determinant sign always and the index where its formula applies.  A
    record that is not an object, or has a missing or mistyped field, fails
    as malformed.
    """
    if not isinstance(record, dict):
        return _fail(f"malformed record: expected an object, got {type(record).__name__}")
    try:
        config = Configuration(record["points"])
        raw_flags = record.get("flags", {})
        flags = DegeneracyFlags(central=tuple(raw_flags.get("central", [])),
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
        if flags.any:
            _, residual = criticality_residual(config, linkage)
            if residual > CRITICALITY_TOL:
                return _fail(f"criticality residual {residual:.3e} exceeds {CRITICALITY_TOL:.1e}")
            return VerificationRow(residual=residual, inertia=None, det_sign=None,
                                   index=None, formula_index=None, agree=True,
                                   flagged=True, note="flagged, excluded")
        # half-angles from the chord relation, as the solver builds them
        alphas = np.arcsin(np.clip(linkage.lengths / (2.0 * radius), 0.0, 1.0))
        desc = CyclicDescriptor(radius=radius, winding=winding, eps=eps,
                                alphas=alphas, center=center)
        result = analyze_configuration(linkage, CyclicConfiguration(desc, config, flags))
        verdict = result.oracle
        if verdict is None:
            return _fail(result.oracle_error)
        if verdict.residual > CRITICALITY_TOL:
            return _fail(f"criticality residual {verdict.residual:.3e} exceeds {CRITICALITY_TOL:.1e}")
        oracle_side = dict(residual=verdict.residual, inertia=verdict.inertia,
                           det_sign=verdict.det_sign, index=verdict.index, flagged=False)
        if not verdict.is_morse:
            return VerificationRow(formula_index=None, agree=False,
                                   note="oracle found a zero eigenvalue", **oracle_side)
        if edge_orientations(config.points, center) != eps:
            return _fail("recorded orientation string disagrees with the geometry")
        if result.signs is None:
            return _fail(result.morse_error)
        agree = result.agree
        if result.morse is None:
            note = f"index formula not applicable ({result.morse_error})" if agree \
                else "determinant sign disagrees"
            return VerificationRow(formula_index=None, agree=agree, note=note, **oracle_side)
        return VerificationRow(formula_index=result.morse.index, agree=agree,
                               note=None if agree else "formula and oracle disagree", **oracle_side)
    except LinkmorseError as err:
        return _fail(str(err))


def verify_enumeration(linkage: Linkage, records: list):
    """Verify every record; returns (rows, summary line, all_ok)."""
    rows = [verify_record(linkage, rec) for rec in records]
    flagged = sum(1 for r in rows if r.flagged)
    good = sum(1 for r in rows if r.agree and not r.flagged)
    ok = all(r.agree for r in rows)
    summary = f"{good}/{len(rows) - flagged} agree ({flagged} flagged)"
    return rows, summary, ok
