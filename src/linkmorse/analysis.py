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
:func:`analyze_linkage`, which passes its unflagged configurations with the
oracle's verdicts taken on one row of each mirror pair, and
:func:`verify_enumeration`, which stacks the fields of the outside records
as columns, checks them as one stack and passes the records that pass;
both compare formula and oracle by one rule, :func:`_agreement`, and
verification returns a :class:`VerificationTable` of columns.  JSON
encoding and decoding of enumeration artifacts lives here too:
:func:`write_enumeration` formats an artifact from the columns, a chunk of
records at a time, and :func:`write_verification` the lines of ``verify``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .errors import InvalidConfigurationError, LinkmorseError
from .geometry import (
    INPUT_TOL,
    Configuration,
    Linkage,
    _as_points,
    _convex_rows,
    _dot_rows,
    _json_numbers,
    _refusals,
    _signed_areas,
)
from .morse import _closed_form_rows
from .oracle import _mirror_rows, _verdict_rows
from .solver import (
    CLOSURE_TOL,
    DEGENERACY_TOL,
    ROOT_RTOL,
    CyclicDescriptor,
    CyclicTable,
    DegeneracyFlags,
    _Table,
    _enumerate,
    _flag_rows,
)

# Residual above which an allegedly cyclic configuration is not accepted as a
# critical point during verification.
CRITICALITY_TOL = 1e-8

# Work-array budget of the stacked analysis, in float64 entries.  A chunk of
# configurations takes _CHUNK // n^2 rows, so each of the oracle's (rows, n, n)
# Hessians over the edge angles takes at most 512 kB whatever n is, below the
# 655 kB under which solver._BLOCK and solver._WINDOWS keep the scan's tables.
_CHUNK = 2 ** 16

# The refusal of both sides on a flagged (near-degenerate) configuration.
_FLAGGED = "flagged non-generic"

# The AnalysisTable columns of oracle._verdict_rows, in its order.
_VERDICT = ("multipliers", "residual", "inertia", "det_sign", "oracle_error")

# index_source by code: no index, the oracle's, the formula's.
_INDEX_SOURCES = np.array([None, "oracle", "formula"], dtype=object)


@dataclass(frozen=True)
class ConfigurationAnalysis:
    """One enumerated configuration and its Morse index: a view of one row
    of an :class:`AnalysisTable`, whose columns hold the closed-form and
    oracle data.

    ``index`` is the Morse index: the closed form's ``e - 1 - 2k -
    [delta < 0]`` where it applies, otherwise the oracle's count of negative
    eigenvalues, None when neither has one, and ``index_source`` says which;
    ``agree`` is :func:`_agreement`'s verdict.
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

    ``area`` and ``convex``; the closed form: ``delta``, ``positives``,
    ``h_sign``, ``h_sequence`` (a row of zeros where its subconfigurations
    refuse it), ``formula_index`` and ``morse_error``; the oracle:
    ``multipliers``, ``residual``, ``inertia``, ``det_sign``,
    ``oracle_index`` and ``oracle_error``; and ``index``, ``index_source``
    and ``agree``.  Error texts, ``index_source`` and ``agree`` are object
    columns holding None where a row has no value; a missing index is -1,
    and a row refused by a side holds NaN or 0 in that side's numeric
    columns.  An integer index gives the row's :class:`ConfigurationAnalysis`
    view.
    """

    area: np.ndarray
    convex: np.ndarray
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
        delta=np.full(rows, np.nan), positives=np.zeros(rows, dtype=int),
        h_sign=np.zeros(rows, dtype=int), h_sequence=np.zeros((rows, n - 2), dtype=int),
        formula_index=np.full(rows, -1), morse_error=np.full(rows, _FLAGGED, dtype=object),
        multipliers=np.full((rows, 2), np.nan), residual=np.full(rows, np.nan),
        inertia=np.zeros((rows, 3), dtype=int), det_sign=np.zeros(rows, dtype=int),
        oracle_index=np.full(rows, -1), oracle_error=np.full(rows, _FLAGGED, dtype=object),
        index=np.full(rows, -1), index_source=np.full(rows, None, dtype=object),
        agree=np.full(rows, None, dtype=object))


def _agreement(cols: dict):
    """Formula against oracle, per row of analysis columns: their indices
    equal, None when either side has none.  The determinant signs then agree
    too: the oracle's is ``(-1)**index`` and the formula's its parity.
    Returns the ``agree``, ``index`` and ``index_source`` columns."""
    formula = cols["morse_error"] == None  # noqa: E711
    morse = (cols["oracle_error"] == None) & (cols["inertia"][:, 1] == 0)  # noqa: E711
    both = formula & morse
    agree = np.full(both.size, None, dtype=object)
    agree[both] = (cols["formula_index"] == cols["oracle_index"])[both].tolist()
    index = np.where(formula, cols["formula_index"], np.where(morse, cols["oracle_index"], -1))
    return agree, index, _INDEX_SOURCES[np.where(formula, 2, morse.astype(int))]


def _chunks(items, n: int):
    """Consecutive slices of ``items`` of at most ``_CHUNK // n^2`` rows."""
    step = max(1, _CHUNK // n ** 2)
    for start in range(0, len(items), step):
        yield items[start:start + step]


def _analyze_rows(points, centers, radii, flagged, verdict):
    """The analysis of stacked configurations, shape (rows, n, 2), on their
    circles: the orientation strings the closed form measures (a row of
    zeros where it measures none), and a dict of :class:`AnalysisTable`
    columns but area and convexity.  An unflagged row gets
    :func:`morse._closed_form_rows`; a flagged (near-degenerate) one, where
    the closed form does not hold, is refused as flagged.  Every row gets
    the oracle's verdict or its refusal, ``verdict``: the columns of
    :func:`oracle._verdict_rows`, which the caller runs or derives."""
    rows, n = points.shape[:2]
    cols = _refused_columns(rows, n)
    measured = np.zeros((rows, n), dtype=int)
    live = np.flatnonzero(~flagged)
    form = _closed_form_rows(points[live], centers[live], radii[live])
    measured[live] = np.where(np.equal(form.central, None)[:, None], form.eps, 0)
    signed, sequenced = np.equal(form.sign_errors, None), np.equal(form.errors, None)
    cols["morse_error"][live] = form.sign_errors
    # a refused side keeps the NaN, 0 and -1 of _refused_columns
    for name, value, ok in (("delta", form.delta, signed), ("positives", form.positives, signed),
                            ("h_sign", form.h_sign, signed), ("formula_index", form.index, signed),
                            ("h_sequence", form.h_sequence, sequenced)):
        cols[name][live[ok]] = value[ok]
    cols.update(zip(_VERDICT, verdict))
    cols["oracle_index"] = np.where(np.equal(cols["oracle_error"], None), cols["inertia"][:, 0], -1)
    cols["agree"], cols["index"], cols["index_source"] = _agreement(cols)
    return measured, cols


def analyze_linkage(linkage: Linkage) -> AnalysisTable:
    """Enumerate all cyclic configurations and analyze them, a chunk of
    configurations at a time as one stack of points.  Flagged rows skip the
    closed form and the oracle, whose comparison would be meaningless on the
    degeneracy boundary, and read as refused by both sides.  Returns an
    :class:`AnalysisTable` in the order of :func:`enumerate_cyclic`.

    The oracle runs on the root of each mirror pair, the row whose string
    starts with +1; :func:`solver._enumerate` gives each row its mirror.  A
    mirror ``(-E, -k)`` is its root reflected across the pinned edge, with
    area ``-A``, so its verdict is derived from its root's by
    :func:`oracle._mirror_rows`.  The closed form still runs on every row,
    so every mirror is still a comparison of formula against oracle.  The
    oracle's index counts are then mirror-symmetric by construction: the
    symmetry ``c_m = c_{n-3-m}`` of the counts tests the closed form's
    indices alone.  ``verify`` analyses every record on its own.
    """
    table, mirror = _enumerate(linkage)
    n = linkage.n
    cols = _refused_columns(len(table), n)
    live = np.flatnonzero(~table.flagged)
    # a mirror has its root's flags, so it is live with it
    roots = live[table.eps[live, 0] > 0]
    mirrors = mirror[roots]
    for rows in _chunks(roots, n):
        for name, value in zip(_VERDICT, _verdict_rows(table.points[rows])):
            cols[name][rows] = value
    for name, value in zip(_VERDICT, _mirror_rows(n, *(cols[name][roots] for name in _VERDICT))):
        cols[name][mirrors] = value
    for rows in _chunks(live, n):
        _, chunk = _analyze_rows(table.points[rows], table.center[rows], table.radius[rows],
                                 np.zeros(rows.size, dtype=bool),
                                 [cols[name][rows] for name in _VERDICT])
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
    linkage = Linkage.from_json_dict(data)
    records = data["configurations"]
    if not isinstance(records, list):
        raise LinkmorseError("'configurations' must be an array")
    return linkage, records


# ---------------------------------------------------------------------------
# Verification of an enumeration artifact


@dataclass(frozen=True)
class VerificationRow:
    """One record's verification outcome: a view of one row of a
    :class:`VerificationTable`."""

    residual: float | None
    inertia: tuple | None
    det_sign: int | None
    index: int | None
    formula_index: int | None
    agree: bool
    flagged: bool
    note: str | None


@dataclass(frozen=True)
class VerificationTable(_Table):
    """The verification outcome of each record of an artifact, as columns.

    ``residual`` is the oracle's criticality residual, NaN where a record
    failed before the oracle judged it; ``inertia``, ``det_sign`` and
    ``index`` are the oracle's, reported where ``index >= 0``;
    ``formula_index`` is the closed form's, -1 where it has none; ``agree``
    and ``flagged`` are masks, and ``note`` an object column holding None
    where there is nothing to say.  An integer index gives the row's
    :class:`VerificationRow` view, with None for each missing value.
    """

    residual: np.ndarray
    inertia: np.ndarray
    det_sign: np.ndarray
    index: np.ndarray
    formula_index: np.ndarray
    agree: np.ndarray
    flagged: np.ndarray
    note: np.ndarray

    def _row(self, j: int) -> VerificationRow:
        residual, index = float(self.residual[j]), int(self.index[j])
        formula_index, judged = int(self.formula_index[j]), index >= 0
        return VerificationRow(
            residual=None if math.isnan(residual) else residual,
            inertia=tuple(self.inertia[j].tolist()) if judged else None,
            det_sign=int(self.det_sign[j]) if judged else None,
            index=index if judged else None,
            formula_index=None if formula_index < 0 else formula_index,
            agree=bool(self.agree[j]), flagged=bool(self.flagged[j]), note=self.note[j])


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


def _record_note(n: int, record) -> str | None:
    """The note of an outside record that :func:`_columns` cannot stack, None
    when it can: the record is not an object, a field is missing or mistyped
    (``k`` and ``eps`` take JSON integers only, ``points``, ``center``,
    ``r`` and ``area`` JSON numbers only), or its points are not n finite
    vertices.  The fields are read in the order points, flags, center, r,
    eps, k, area, and the note is the first refusal's."""
    if not isinstance(record, dict):
        return f"malformed record: expected an object, got {type(record).__name__}"
    try:
        points = _as_points(record["points"])
        _json_numbers([v for point in record["points"] for v in point], "points")
        if points.shape[0] < 3:
            raise InvalidConfigurationError("a configuration needs at least 3 vertices")
        flags = record["flags"]
        for name in ("central", "near_flip"):
            iter(flags.get(name, []))
        np.asarray(record["center"], dtype=float).reshape(2)
        _json_numbers(record["center"], "center")
        float(record["r"])
        _json_numbers([record["r"]], "r")
        _json_eps(record["eps"])
        _json_winding(record["k"])
        float(record["area"])
        _json_numbers([record["area"]], "area")
    except LinkmorseError as err:
        return str(err)
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as err:
        return f"malformed record: {type(err).__name__}: {err}"
    if points.shape[0] != n:
        return f"configuration has {points.shape[0]} vertices, linkage has {n}"
    return None


def _columns(n: int, records: list):
    """The fields of outside records stacked for :func:`_check_rows` as
    ``(points, centers, radii, eps, windings, recorded, areas)``, or None
    when a record has a note from :func:`_record_note`.  Each field is
    gathered across the records by one comprehension, its values are
    type-checked in one pass and converted by one ``np.array``.

    An ``eps`` of another length than n stacks as zeros, and recorded
    ``central`` and ``near_flip`` flags of other lengths as NaN.  A flag
    entry stacks as 1 or 0 when it equals true or false, as JSON 1 and 0 do,
    and as NaN otherwise.  These fail their checks in :func:`_check_rows`.
    """
    rows = len(records)
    try:
        points, flags, centers, radii, eps, windings, areas = (
            [record[field] for record in records]
            for field in ("points", "flags", "center", "r", "eps", "k", "area"))
        pairs = list(chain.from_iterable(points))
        coords = list(chain.from_iterable(pairs))
        center_coords = list(chain.from_iterable(centers))
        signs = list(chain.from_iterable(eps))
        central, near_flip, delta_zero = (
            [flag.get(name, default) for flag in flags]
            for name, default in (("central", []), ("near_flip", []), ("delta_zero", None)))
        unknown = (math.nan,) * (2 * n)
        recorded = [(*c, *f, d) if len(c) == len(f) == n else (*unknown, d)
                    for c, f, d in zip(central, near_flip, delta_zero)]
        if not (set(map(len, points)) <= {n} and set(map(len, pairs)) <= {2}
                and set(map(len, centers)) <= {2} and 0 not in map(len, eps)
                and set(map(type, coords + center_coords + radii + areas)) <= {int, float}
                and set(map(type, signs + windings)) <= {int} and set(signs) <= {-1, 1}):
            return None
        points = np.array(coords, dtype=float).reshape(rows, n, 2)
        centers = np.array(center_coords, dtype=float).reshape(rows, 2)
        radii, areas = np.array(radii, dtype=float), np.array(areas, dtype=float)
    except (AttributeError, KeyError, OverflowError, TypeError):
        return None
    if not np.isfinite(points).all():
        return None
    eps = np.array([row if len(row) == n else (0,) * n for row in eps],
                   dtype=float).reshape(rows, n)
    entries = list(chain.from_iterable(recorded))
    if not set(map(type, entries)) <= {bool}:
        # an entry matches a recomputed flag when it equals it, as JSON 0 and 1 do
        entries = [1.0 if v == True else 0.0 if v == False else math.nan  # noqa: E712
                   for v in entries]
    recorded = np.array(entries, dtype=float).reshape(rows, 2 * n + 1)
    return points, centers, radii, eps, windings, recorded, areas


def _check_rows(linkage: Linkage, points, centers, radii, eps, windings, recorded, areas):
    """Per stacked record, the note of its first failing check (None when it
    passes them all), and whether its recomputed flags have a true entry.

    The checks, in this order: the pinning of p_1 and p_2 and the edge
    lengths, within :data:`INPUT_TOL`; a positive radius; every point on the
    recorded circle within ``INPUT_TOL * r`` (a non-finite deviation fails);
    an orientation string of n entries; the flags recomputed by ``_flag_rows``
    from the half-angles ``arcsin(l / 2r)`` equal to the recorded ones; the
    winding equal to ``rint(eps . alpha / pi)``; and the area equal to the
    shoelace area of the points within ``INPUT_TOL * r * sum(l)``, as moving
    a vertex by ``delta`` moves that area by at most
    ``|delta| (l_{i-1} + l_i) / 2``.
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
        shoelace = _signed_areas(points)
    flags = np.concatenate([central, near_flip, delta_zero[:, None]], axis=1)
    failed = np.concatenate([
        np.abs(measured - expected) > INPUT_TOL * np.concatenate([[l1, l1], lengths]),
        np.stack([~(radii > 0.0), ~np.isfinite(worst) | (worst > INPUT_TOL * radii),
                  ~eps.any(axis=1), (flags != recorded).any(axis=1),
                  closure != np.array(windings, dtype=object),
                  ~(np.abs(areas - shoelace) <= INPUT_TOL * radii * lengths.sum())], axis=1)],
        axis=1)

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
        if i == n + 6:
            return (f"recorded winding {windings[row]} disagrees with the closure sum "
                    f"(winding {int(closure[row])})")
        return (f"recorded area {float(areas[row])} disagrees with the shoelace area of the "
                f"points ({shoelace[row]:.12g})")

    return _refusals(failed, note), flags.any(axis=1)


def _judge(out: dict, rows, flagged, disagree, cols) -> None:
    """Write into the verification columns ``out``, at ``rows``, the verdict
    on analysed records, from their flags, whether their recorded string
    disagrees with the measured one, and their :func:`_analyze_rows` columns.

    Each record takes the note of the first rule it meets, in this order:
    (0) an oracle refusal and (1) a criticality residual above
    :data:`CRITICALITY_TOL` fail it; (2) a flag excludes it from the
    comparison, and it agrees; (3) a zero eigenvalue, (4) a recorded string
    the geometry contradicts, (5) a refused index formula and (6) a formula
    index other than the oracle's fail it; a record that meets no rule
    agrees.  The rule met also decides which columns are reported.
    """
    error, residual, morse_error = cols["oracle_error"], cols["residual"], cols["morse_error"]
    failed = np.stack([np.not_equal(error, None), residual > CRITICALITY_TOL, flagged,
                       cols["inertia"][:, 1] != 0, disagree, np.not_equal(morse_error, None),
                       np.not_equal(cols["agree"], True)], axis=1)

    def note(row, rule):
        if rule == 1:
            return f"criticality residual {residual[row]:.3e} exceeds {CRITICALITY_TOL:.1e}"
        return (error[row], None, "flagged, excluded", "oracle found a zero eigenvalue",
                "recorded orientation string disagrees with the geometry", morse_error[row],
                "formula and oracle disagree")[rule]

    first = np.where(failed.any(axis=1), failed.argmax(axis=1), failed.shape[1])
    # per rule met, in the order above and then none:
    shown, judged, formula, agreed = np.array([
        [0, 0, 1, 1, 0, 0, 1, 1],  # the residual reported
        [0, 0, 0, 1, 0, 0, 1, 1],  # the oracle's inertia, det_sign and index reported
        [0, 0, 0, 0, 0, 0, 1, 1],  # the formula's index reported
        [0, 0, 1, 0, 0, 0, 0, 1],  # the record agrees
    ], dtype=bool)[:, first]
    out["residual"][rows[shown]] = residual[shown]
    out["inertia"][rows[judged]] = cols["inertia"][judged]
    out["det_sign"][rows[judged]] = cols["det_sign"][judged]
    out["index"][rows[judged]] = cols["oracle_index"][judged]
    out["formula_index"][rows[formula]] = cols["formula_index"][formula]
    out["agree"][rows] = agreed
    out["flagged"][rows] = first == 2
    out["note"][rows] = _refusals(failed, note)


def verify_enumeration(linkage: Linkage, records: list):
    """Check each outside record, re-analyse it, and compare; returns
    (table, summary line, all_ok), the table a :class:`VerificationTable`.

    The fields of the records are stacked as columns by :func:`_columns`.
    When a record cannot be stacked, :func:`_record_note` reads each record
    on its own to give the bad ones their notes, and the others are stacked.
    The stack is checked by :func:`_check_rows`, which detects tampered
    points, r, center, winding and flags.  The records that pass are
    analysed a chunk at a time and judged by :func:`_judge`: each must be
    critical and reproduce the recorded orientation string, and the closed
    form's index must equal the oracle's.  Flagged records are reported but
    exempt from the agreement requirement.
    """
    n, rows = linkage.n, len(records)
    out = dict(residual=np.full(rows, np.nan), inertia=np.zeros((rows, 3), dtype=int),
               det_sign=np.zeros(rows, dtype=int), index=np.full(rows, -1),
               formula_index=np.full(rows, -1), agree=np.zeros(rows, dtype=bool),
               flagged=np.zeros(rows, dtype=bool), note=np.full(rows, None, dtype=object))
    parsed, columns = np.arange(rows), _columns(n, records)
    if columns is None:
        out["note"][:] = [_record_note(n, record) for record in records]
        parsed = np.flatnonzero(np.equal(out["note"], None))
        columns = _columns(n, [records[j] for j in parsed.tolist()])
    points, centers, radii, eps = columns[:4]
    notes, flagged = _check_rows(linkage, *columns)
    out["note"][parsed] = notes
    live = np.flatnonzero(np.equal(notes, None))
    for chunk in _chunks(live, n):
        measured, cols = _analyze_rows(points[chunk], centers[chunk], radii[chunk],
                                       flagged[chunk], _verdict_rows(points[chunk]))
        disagree = measured.any(axis=1) & (measured != eps[chunk]).any(axis=1)
        _judge(out, parsed[chunk], flagged[chunk], disagree, cols)
    table = VerificationTable(**out)
    excluded = int(table.flagged.sum())
    good = int((table.agree & ~table.flagged).sum())
    return table, f"{good}/{rows - excluded} agree ({excluded} flagged)", bool(table.agree.all())


# The line json.dumps gives a VerificationRow's fields, a value per {}.
_VERIFY_LINE = ('{{"residual": {}, "inertia": {}, "det_sign": {}, "index": {}, '
                '"formula_index": {}, "agree": {}, "flagged": {}, "note": {}}}\n')


def write_verification(stream, table: VerificationTable) -> None:
    """Write one JSON line per row of ``table``, formatted from the columns
    by one template: the text ``json.dumps`` gives the row's fields in the
    order residual, inertia, det_sign, index, formula_index, agree, flagged,
    note, with null for each missing value."""
    judged = table.index >= 0
    values = [table.residual.astype(object), np.array([f"[{a}, {b}, {c}]" for a, b, c
                                                       in table.inertia.tolist()], dtype=object),
              table.det_sign.astype(object), table.index.astype(object),
              table.formula_index.astype(object)]
    for column, present in zip(values, (~np.isnan(table.residual), judged, judged, judged,
                                        table.formula_index >= 0)):
        column[~present] = "null"
    texts = {note: json.dumps(note) for note in set(table.note.tolist())}
    values += [_JSON_BOOLS[table.agree.view(np.uint8)], _JSON_BOOLS[table.flagged.view(np.uint8)],
               np.array([texts[note] for note in table.note.tolist()], dtype=object)]
    stream.write((_VERIFY_LINE * len(table)).format(*np.stack(values, axis=1).ravel().tolist()))
