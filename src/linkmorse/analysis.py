"""Pipeline gluing enumeration, the sign formulas, and the numerical oracle.

:func:`analyze_linkage` adds to the columns of the enumeration the signed
area, convexity, closed-form Morse data (when the configuration is generic
enough for the formulas), the oracle verdict, and their agreement, as one
:class:`AnalysisTable`; a :class:`ConfigurationAnalysis` is a view of one
of its rows, built on demand.

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
formats an artifact from the columns, a chunk of records at a time.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields

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
from .morse import _closed_form_rows
from .oracle import _verdict_rows
from .solver import (
    CLOSURE_TOL,
    DEGENERACY_TOL,
    ROOT_RTOL,
    CyclicDescriptor,
    CyclicTable,
    DegeneracyFlags,
    _flag_rows,
    enumerate_cyclic,
)

# Residual above which an allegedly cyclic configuration is not accepted as a
# critical point during verification.
CRITICALITY_TOL = 1e-8

# Work-array budget of the stacked analysis, in float64 entries.  A chunk of
# configurations takes _CHUNK // n^2 rows, so each of the oracle's (rows, n, n)
# Hessians over the edge angles takes at most 512 kB whatever n is, as
# solver._BLOCK and solver._WINDOWS bound the scan's tables.
_CHUNK = 2 ** 16

# The refusal of both sides on a flagged (near-degenerate) configuration.
_FLAGGED = "flagged non-generic"

# index_source by code: no index, the oracle's, the formula's.
_INDEX_SOURCES = np.array([None, "oracle", "formula"], dtype=object)


@dataclass(frozen=True)
class ConfigurationAnalysis:
    """One enumerated configuration and its Morse index: a view of one row
    of an :class:`AnalysisTable`, whose columns hold the closed-form and
    oracle data.

    ``index`` is the Morse index: the closed-form value when available,
    otherwise the oracle count of negative eigenvalues (used for
    configurations whose subconfiguration sequence is degenerate), None
    when neither has one, and ``index_source`` says which; ``agree`` is
    :func:`_agreement`'s verdict.
    """

    descriptor: CyclicDescriptor
    configuration: Configuration
    flags: DegeneracyFlags
    area: float
    convex: bool
    index: int | None
    index_source: str | None
    agree: bool | None


@dataclass(frozen=True)
class AnalysisTable(CyclicTable):
    """The columns of :class:`CyclicTable` and, per row, the analysis.

    ``area`` and ``convex``; the closed form: ``signed`` (whether the sign
    data exists), ``delta``, ``positives``, ``h_sign``, ``h_sequence``,
    ``formula_index`` and ``morse_error``; the oracle: ``multipliers``,
    ``residual``, ``inertia``, ``det_sign``, ``oracle_index`` and
    ``oracle_error``; and ``index``, ``index_source`` and ``agree``.  Error
    texts, ``index_source`` and ``agree`` are object columns holding None
    where a row has no value; a missing index is -1, and a row refused by
    a side holds NaN or 0 in that side's numeric columns.  An integer index
    gives the row's :class:`ConfigurationAnalysis` view.
    """

    area: np.ndarray
    convex: np.ndarray
    signed: np.ndarray
    delta: np.ndarray
    positives: np.ndarray
    h_sign: np.ndarray
    h_sequence: np.ndarray
    formula_index: np.ndarray
    morse_error: np.ndarray
    multipliers: np.ndarray
    residual: np.ndarray
    inertia: np.ndarray
    det_sign: np.ndarray
    oracle_index: np.ndarray
    oracle_error: np.ndarray
    index: np.ndarray
    index_source: np.ndarray
    agree: np.ndarray

    def _row(self, j: int) -> ConfigurationAnalysis:
        item = super()._row(j)
        index = int(self.index[j])
        return ConfigurationAnalysis(
            descriptor=item.descriptor, configuration=item.configuration, flags=item.flags,
            area=float(self.area[j]), convex=bool(self.convex[j]),
            index=None if index < 0 else index, index_source=self.index_source[j],
            agree=self.agree[j])


def _refused_columns(rows: int, n: int) -> dict:
    """The analysis columns of ``rows`` flagged configurations, on which
    both sides refused."""
    return dict(
        signed=np.zeros(rows, dtype=bool), delta=np.full(rows, np.nan),
        positives=np.zeros(rows, dtype=int), h_sign=np.zeros(rows, dtype=int),
        h_sequence=np.zeros((rows, n - 2), dtype=int),
        formula_index=np.full(rows, -1), morse_error=np.full(rows, _FLAGGED, dtype=object),
        multipliers=np.full((rows, 2), np.nan), residual=np.full(rows, np.nan),
        inertia=np.zeros((rows, 3), dtype=int), det_sign=np.zeros(rows, dtype=int),
        oracle_index=np.full(rows, -1), oracle_error=np.full(rows, _FLAGGED, dtype=object),
        index=np.full(rows, -1), index_source=np.full(rows, None, dtype=object),
        agree=np.full(rows, None, dtype=object))


def _agreement(cols: dict):
    """Formula against oracle, per row of analysis columns: the determinant
    sign always, the index too when its formula applies; None when either
    side has no sign.  Returns the ``agree``, ``index`` and ``index_source``
    columns."""
    formula = cols["signed"] & (cols["morse_error"] == None)  # noqa: E711
    morse = (cols["oracle_error"] == None) & (cols["inertia"][:, 1] == 0)  # noqa: E711
    both = cols["signed"] & morse
    agree = np.full(both.size, None, dtype=object)
    agree[both] = ((cols["h_sign"] == cols["det_sign"])
                   & (~formula | (cols["formula_index"] == cols["oracle_index"])))[both].tolist()
    index = np.where(formula, cols["formula_index"], np.where(morse, cols["oracle_index"], -1))
    return agree, index, _INDEX_SOURCES[np.where(formula, 2, morse.astype(int))]


def _chunks(items, n: int):
    """Consecutive slices of ``items`` of at most ``_CHUNK // n^2`` rows."""
    step = max(1, _CHUNK // n ** 2)
    for start in range(0, len(items), step):
        yield items[start:start + step]


def _analyze_rows(points, centers, radii, flagged):
    """The analysis of stacked configurations, shape (rows, n, 2), on their
    circles: the orientation strings the closed form measures (a row of
    zeros where it measures none), and a dict of :class:`AnalysisTable`
    columns but area and convexity.  An unflagged row gets
    :func:`morse._closed_form_rows`; a flagged (near-degenerate) one, where
    the closed form does not hold, is refused as flagged.  Every row gets
    the oracle's verdict or its NonRegularPointError."""
    rows, n = points.shape[:2]
    cols = _refused_columns(rows, n)
    measured = np.zeros((rows, n), dtype=int)
    live = np.flatnonzero(~flagged)
    form = _closed_form_rows(points[live], centers[live], radii[live])
    unmeasured = np.array([cause is not None for cause in form.central], dtype=bool)
    measured[live] = np.where(unmeasured[:, None], 0, form.eps)
    signed = np.array([cause is None for cause in form.sign_errors], dtype=bool)
    formula = np.array([cause is None for cause in form.errors], dtype=bool)
    cols["signed"][live], cols["morse_error"][live] = signed, form.errors
    # a refused side keeps the NaN, 0 and -1 of _refused_columns
    for name, value, ok in (("delta", form.delta, signed), ("positives", form.positives, signed),
                            ("h_sign", form.h_sign, signed), ("formula_index", form.index, formula),
                            ("h_sequence", form.h_sequence, formula)):
        cols[name][live[ok]] = value[ok]
    (cols["multipliers"], cols["residual"], cols["inertia"], cols["det_sign"],
     errors) = _verdict_rows(points)
    regular = np.array([error is None for error in errors], dtype=bool)
    cols["oracle_index"] = np.where(regular, cols["inertia"][:, 0], -1)
    cols["oracle_error"] = np.array([None if error is None else str(error) for error in errors],
                                    dtype=object)
    cols["agree"], cols["index"], cols["index_source"] = _agreement(cols)
    return measured, cols


def analyze_linkage(linkage: Linkage) -> AnalysisTable:
    """Enumerate all cyclic configurations and analyze them, a chunk of
    configurations at a time as one stack of points.  Flagged rows skip the
    closed form and the oracle, whose comparison would be meaningless on the
    degeneracy boundary, and read as refused by both sides.  Returns an
    :class:`AnalysisTable` in the order of :func:`enumerate_cyclic`."""
    table = enumerate_cyclic(linkage)
    cols = _refused_columns(len(table), linkage.n)
    for rows in _chunks(np.flatnonzero(~table.flagged), linkage.n):
        _, chunk = _analyze_rows(table.points[rows], table.center[rows], table.radius[rows],
                                 np.zeros(rows.size, dtype=bool))
        for name, value in chunk.items():
            cols[name][rows] = value
    return AnalysisTable(**{f.name: getattr(table, f.name) for f in fields(table)},
                         area=_signed_areas(table.points), convex=_convex_rows(table.points),
                         **cols)


def index_summary(analyses: AnalysisTable) -> str:
    """Human-readable count per Morse index, e.g.
    '14 configurations: index 0 x2, index 1 x10, index 2 x2'."""
    counts = np.bincount(analyses.index[analyses.index >= 0])
    parts = [f"index {m} x{c}" for m, c in enumerate(counts.tolist()) if c]
    text = f"{len(analyses)} configurations"
    if parts:
        text += ": " + ", ".join(parts)
    flagged = int(analyses.flagged.sum())
    unknown = int((~analyses.flagged & (analyses.index < 0)).sum())
    if flagged:
        text += f" ({flagged} flagged)"
    if unknown:
        text += f" ({unknown} without index)"
    return text


# ---------------------------------------------------------------------------
# JSON artifacts

# Values formatted per chunk of artifact records: the chunk's text is a few
# MB whatever the number of records.
_WRITE_CHUNK = 2 ** 15

# The JSON text of False and True, indexed by the bytes of a mask.
_JSON_BOOLS = np.array(["false", "true"], dtype=object)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


@functools.lru_cache(maxsize=None)
def _record_template(n: int) -> str:
    """The text ``json.dumps(record, indent=2)`` gives a wire record of n
    edges nested in the envelope's list, with a ``{}`` field for each value,
    in the order eps, k, r, center, points, area, central, near_flip,
    delta_zero."""
    value = "\0"
    record = {"eps": [value] * n, "k": value, "r": value, "center": [value] * 2,
              "points": [[value] * 2] * n, "area": value,
              "flags": {"central": [value] * n, "near_flip": [value] * n, "delta_zero": value}}
    text = json.dumps(record, indent=2).replace("{", "{{").replace("}", "}}")
    return "    " + text.replace(json.dumps(value), "{}").replace("\n", "\n    ")


def _nonfinite_refusal(analyses: AnalysisTable):
    """The refusal of the first record with a NaN or infinite value, None
    when every written float is finite: JSON has no text for them."""
    bad = [(name, ~np.isfinite(column).all(axis=tuple(range(1, column.ndim))))
           for name, column in (("r", analyses.radius), ("center", analyses.center),
                                ("points", analyses.points), ("area", analyses.area))]
    worst = [(int(mask.argmax()), order, name) for order, (name, mask) in enumerate(bad)
             if mask.any()]
    if worst:
        row, _, name = min(worst)
        return LinkmorseError(f"record {row}: field {name!r} is not finite")
    return None


def write_enumeration(stream, linkage: Linkage, analyses: AnalysisTable,
                      seed: int | None = None) -> None:
    """Write the enumeration artifact of ``analyses`` to ``stream``: the
    envelope ``dump_json`` gives the linkage, the seed, the solver's
    tolerances and the wire record of every row, so runs are reproducible
    from the artifact alone.

    The records are formatted from the columns by one template, a chunk of
    :data:`_WRITE_CHUNK` values at a time, so the whole text is never held:
    ``str.format`` writes a Python float as ``float.__repr__``, json's own
    float encoder.  Raises :class:`LinkmorseError` before writing anything
    when a record holds a NaN or infinite value, which JSON cannot carry.
    """
    refusal = _nonfinite_refusal(analyses)
    if refusal is not None:
        raise refusal
    n, rows = linkage.n, len(analyses)
    head, tail = dump_json({
        **linkage.to_json_dict(),
        "seed": seed,
        "tolerances": {"root_rtol": ROOT_RTOL, "degeneracy": DEGENERACY_TOL,
                       "closure": CLOSURE_TOL},
        "configurations": [],
    }).rsplit("[]", 1)
    stream.write(head + "[")
    template = _record_template(n)
    step = max(1, _WRITE_CHUNK // (5 * n + 6))
    for start in range(0, rows, step):
        part = slice(start, start + step)
        # the values of each record in the template's order, as Python objects
        numbers = [analyses.eps[part], analyses.k[part, None], analyses.radius[part, None],
                   analyses.center[part], analyses.points[part].reshape(-1, 2 * n),
                   analyses.area[part, None]]
        flags = [analyses.central[part], analyses.near_flip[part], analyses.delta_zero[part, None]]
        values = np.concatenate([column.astype(object) for column in numbers]
                                + [_JSON_BOOLS[mask.view(np.uint8)] for mask in flags], axis=1)
        records = ",\n".join([template] * len(values)).format(*values.ravel().tolist())
        stream.write(("\n" if start == 0 else ",\n") + records)
    stream.write(("]" if rows == 0 else "\n  ]") + tail)


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
        delta_zero = raw.get("delta_zero")
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
    flags = central + near_flip if len(central) == len(near_flip) == n else (math.nan,) * (2 * n)
    # an entry matches a recomputed flag when it equals it, as JSON 0 and 1 do
    flags = [1.0 if v == True else 0.0 if v == False else math.nan  # noqa: E712
             for v in flags + (delta_zero,)]
    return (points, center, radius, np.array(eps, dtype=float) if len(eps) == n else np.zeros(n),
            winding, flags)


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


def _verification_row(flagged, disagree, residual, inertia, det_sign, index, oracle_error,
                       signed, formula_index, morse_error, agree):
    """The row of a record that passed its checks, from its flag, whether its
    string disagrees with the measured one, and its :func:`_analyze_rows`
    columns: the oracle checks its criticality, and an unflagged record's
    analysis is compared with the record and itself."""
    if oracle_error is not None:
        return _fail(oracle_error)
    if residual > CRITICALITY_TOL:
        return _fail(f"criticality residual {residual:.3e} exceeds {CRITICALITY_TOL:.1e}")
    if flagged:
        return VerificationRow(residual=residual, inertia=None, det_sign=None, index=None,
                               formula_index=None, agree=True, flagged=True,
                               note="flagged, excluded")
    oracle_side = dict(residual=residual, inertia=tuple(inertia), det_sign=det_sign,
                       index=index, flagged=False)
    if inertia[1]:
        return VerificationRow(formula_index=None, agree=False,
                               note="oracle found a zero eigenvalue", **oracle_side)
    # a central edge leaves no measured string, and its refusal is the error
    if disagree:
        return _fail("recorded orientation string disagrees with the geometry")
    if not signed:
        return _fail(morse_error)
    if morse_error is not None:
        note = (f"index formula not applicable ({morse_error})" if agree
                else "determinant sign disagrees")
        return VerificationRow(formula_index=None, agree=agree, note=note, **oracle_side)
    return VerificationRow(formula_index=formula_index, agree=agree,
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
            measured, cols = _analyze_rows(points[chunk], centers[chunk], radii[chunk],
                                           flagged[chunk])
            disagree = measured.any(axis=1) & (measured != eps[chunk]).any(axis=1)
            columns = [flagged[chunk], disagree] + [cols[name] for name in (
                "residual", "inertia", "det_sign", "oracle_index", "oracle_error", "signed",
                "formula_index", "morse_error", "agree")]
            for i, values in zip(chunk, zip(*(column.tolist() for column in columns))):
                rows[parsed[i]] = _verification_row(*values)
    flagged = sum(1 for r in rows if r.flagged)
    good = sum(1 for r in rows if r.agree and not r.flagged)
    ok = all(r.agree for r in rows)
    summary = f"{good}/{len(rows) - flagged} agree ({flagged} flagged)"
    return rows, summary, ok
