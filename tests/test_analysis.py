"""Pipeline records, JSON artifacts, and artifact verification."""

import io
import json
import math

import numpy as np
import pytest

from conftest import random_linkage
from linkmorse import (
    DegeneracyFlags,
    Linkage,
    analyze_linkage,
    enumerate_cyclic,
    index_summary,
    verify_enumeration,
)
from linkmorse.analysis import (
    VerificationRow,
    VerificationTable,
    _columns,
    _judge,
    _record_note,
    dump_json,
    load_enumeration,
    write_enumeration,
)
from linkmorse.geometry import _signed_areas
from linkmorse.morse import _closed_form_rows
from linkmorse.oracle import _verdict_rows
from linkmorse.solver import _flag_rows

PENTA = Linkage([1, 1, 1, 1, 1])
IRREGULAR = Linkage([1, 1.2, 1.4, 1.1, 0.9])


@pytest.fixture(scope="module")
def pentagon_analyses():
    return analyze_linkage(PENTA)


def _artifact(linkage, analyses, seed=None) -> str:
    """The text of the enumeration artifact the writer gives."""
    stream = io.StringIO()
    write_enumeration(stream, linkage, analyses, seed=seed)
    return stream.getvalue()


def _envelope(linkage, analyses, seed=None) -> dict:
    """The enumeration artifact, parsed."""
    return json.loads(_artifact(linkage, analyses, seed))


def test_pentagon_summary_line(pentagon_analyses):
    assert index_summary(pentagon_analyses) == \
        "14 configurations: index 0 x2, index 1 x10, index 2 x2"


def test_aligned_configurations_use_the_formula_index(pentagon_analyses):
    # the 10 configurations with three aligned edges have a degenerate
    # subconfiguration, which refuses the sign sequence but not the index
    # e - 1 - 2k - [delta < 0] of the full polygon
    aligned = ~pentagon_analyses.h_sequence.any(axis=1)
    assert aligned.sum() == 10
    assert all(a.index_source == "formula" and a.agree is True for a in pentagon_analyses)
    assert (pentagon_analyses.index[aligned] == 1).all()
    assert sorted(pentagon_analyses.index[~aligned].tolist()) == [0, 0, 2, 2]
    assert np.array_equal(pentagon_analyses.formula_index, pentagon_analyses.oracle_index)


def test_refused_closed_form_leaves_its_columns_empty(pentagon_analyses):
    # a refused sequence reads as a row of zeros, and the sign data of a
    # refused full polygon as NaN, 0 and -1, as on flagged rows, whose
    # closed form is not run
    refused = ~pentagon_analyses.h_sequence.any(axis=1)
    assert refused.sum() == 10 and not pentagon_analyses.flagged.any()
    assert np.equal(pentagon_analyses.morse_error, None).all()
    assert (pentagon_analyses.formula_index >= 0).all()
    assert np.isfinite(pentagon_analyses.delta).all()
    assert (pentagon_analyses.h_sequence[~refused] != 0).all()
    analyses = analyze_linkage(Linkage([1, 2, 1.5, 2.5 - 1e-8]))
    unsigned = np.not_equal(analyses.morse_error, None)
    assert unsigned.tolist() == analyses.flagged.tolist() == [False, True, True, False]
    assert np.isnan(analyses.delta[unsigned]).all()
    assert (analyses.positives[unsigned] == 0).all()
    assert (analyses.h_sign[unsigned] == 0).all()
    assert (analyses.formula_index[unsigned] == -1).all()
    assert (analyses.h_sequence[unsigned] == 0).all()
    assert np.isfinite(analyses.delta[~unsigned]).all()


def test_record_schema(pentagon_analyses):
    rec = _envelope(PENTA, pentagon_analyses)["configurations"][0]
    assert set(rec) == {"eps", "k", "r", "center", "points", "area", "flags"}
    assert set(rec["flags"]) == {"central", "near_flip", "delta_zero"}
    assert len(rec["points"]) == 5
    assert all(v in (-1, 1) for v in rec["eps"])


def test_artifact_round_trip_is_lossless(pentagon_analyses):
    a = pentagon_analyses
    text = _artifact(PENTA, a, seed=7)
    linkage, records = load_enumeration(text)
    assert np.array_equal(linkage.lengths, PENTA.lengths)
    assert len(records) == 14
    # floats survive the decimal round trip bit for bit
    columns = {"eps": a.eps, "k": a.k, "r": a.radius, "center": a.center, "points": a.points,
               "area": a.area}
    for field, column in columns.items():
        assert [rec[field] for rec in records] == column.tolist()
    for field in ("central", "near_flip", "delta_zero"):
        assert [rec["flags"][field] for rec in records] == getattr(a, field).tolist()
    assert json.loads(text)["seed"] == 7


def test_artifact_output_is_deterministic():
    first = _artifact(PENTA, analyze_linkage(PENTA), seed=1)
    second = _artifact(PENTA, analyze_linkage(PENTA), seed=1)
    assert first == second
    assert json.loads(first)["tolerances"] == {"root_rtol": 1e-14, "degeneracy": 1e-07, "closure": 1e-09}


def test_verify_accepts_clean_artifact(pentagon_analyses):
    linkage, records = load_enumeration(_artifact(PENTA, pentagon_analyses))
    rows, summary, ok = verify_enumeration(linkage, records)
    assert ok
    assert summary == "14/14 agree (0 flagged)"


def test_verify_rows_read_off_the_library_analysis():
    rng = np.random.default_rng(31)
    linkages = [PENTA] + [random_linkage(rng, n) for n in (5, 6, 7, 8)]
    for linkage in linkages:
        analyses = analyze_linkage(linkage)
        _, records = load_enumeration(_artifact(linkage, analyses))
        rows, _, _ = verify_enumeration(linkage, records)
        assert len(rows) == len(analyses)
        for j, (a, row) in enumerate(zip(analyses, rows)):
            assert not a.flags.any
            assert analyses.oracle_error[j] is None
            assert row.index == analyses.oracle_index[j]
            assert row.formula_index == (None if analyses.morse_error[j] is not None
                                         else analyses.formula_index[j])
            assert row.det_sign == analyses.det_sign[j]
            assert row.inertia == tuple(analyses.inertia[j].tolist())
            # a mirror's library residual is its root's; verify runs the
            # oracle on the mirror's own points
            if analyses.eps[j, 0] > 0:
                assert row.residual == analyses.residual[j]
            else:
                assert abs(row.residual - analyses.residual[j]) <= 1e-13
            assert row.agree is a.agree is True


@pytest.mark.parametrize("field, row, change", [("r", 3, 1e-3), ("points", 0, 1e-3),
                                                ("k", 0, 1), ("k", 0, -1), ("center", 0, math.nan)],
                         ids=["radius", "points", "k+1", "k-1", "center-nan"])
def test_verify_catches_tampered_record(pentagon_analyses, field, row, change):
    tampered = _envelope(PENTA, pentagon_analyses)
    record = tampered["configurations"][row]
    if field == "r":
        record["r"] *= 1.0 + change
    elif field == "points":
        record["points"][2][0] += change
    elif field == "center":
        record["center"] = [change, change]
    else:
        record["k"] += change
    linkage, records = load_enumeration(dump_json(tampered))
    rows, _, ok = verify_enumeration(linkage, records)
    assert not ok
    assert [j for j, r in enumerate(rows) if not r.agree] == [row]
    if field == "k":
        assert rows[row].note.startswith(f"recorded winding {record['k']} disagrees")
    if field == "center":
        # NaN compares false with any tolerance: a non-finite deviation fails
        assert rows[row].note == "points deviate from the recorded circle by nan"


# Recorded flags that are not the recomputed ones: a wrong value, values that
# equal neither true nor false (JSON 1 and 0 do), a missing entry, and a
# mistyped central entry.
_BAD_FLAGS = {"flags": ("delta_zero", True), "delta_zero ''": ("delta_zero", ""),
              "delta_zero []": ("delta_zero", []), "delta_zero {}": ("delta_zero", {}),
              "delta_zero null": ("delta_zero", None), "delta_zero missing": ("delta_zero", ...),
              "central 'false'": ("central", ["false"] * 5)}


def _tamper(record, check):
    """Change one field of a record so that it fails ``check``."""
    if check == "pinning 1":
        record["points"][0][0] += 1e-3
    elif check == "pinning 2":
        record["points"][1][1] += 1e-3
    elif check == "edge 3":
        record["points"][3][0] += 1e-3
    elif check == "radius":
        record["r"] = -record["r"]
    elif check in ("off circle", "off circle and eps length"):
        # p_3 moves out from the center by 1.5e-6 r: off the circle by more
        # than 1e-6 r, and each of its edges by less than 1e-6 of its length
        p, center = np.array(record["points"][2]), np.array(record["center"])
        record["points"][2] = (p + 1.5e-6 * (p - center)).tolist()
        if check == "off circle and eps length":
            record["eps"].pop()
    elif check == "vertices":
        record["points"].pop()
    elif check == "eps length":
        record["eps"].pop()
    elif check in _BAD_FLAGS:
        field, value = _BAD_FLAGS[check]
        if value is ...:
            del record["flags"][field]
        else:
            record["flags"][field] = value
    elif check == "mirrored":
        # reflected across the pinned edge, which negates the area, eps and k
        # kept: every stacked check passes, and the analysis measures the
        # opposite string
        record["points"] = [[-x, y] for x, y in record["points"]]
        record["center"][0] = -record["center"][0]
        record["area"] = -record["area"]
    elif check == "area":
        record["area"] += 1.0
    else:
        record["k"] += 1


# Each tampering of _tamper and the note verify gives it.
TAMPERED_NOTES = [
    ("pinning 1", "constraint violations: pinning violation at index 1: measured 0.001, "
                  "expected 0"),
    ("pinning 2", "constraint violations: pinning violation at index 2: measured 0.001, "
                  "expected 0"),
    ("edge 3", "constraint violations: length violation at index 3: measured 1.40041099508, "
               "expected 1.4"),
    ("radius", "recorded radius -0.9590697690580336 is not positive"),
    ("off circle", "points deviate from the recorded circle by 1.439e-06"),
    ("vertices", "configuration has 4 vertices, linkage has 5"),
    ("eps length", "orientation string and half-angles disagree in length"),
    *((check, "recorded flags disagree with the recorded radius and orientation string")
      for check in _BAD_FLAGS),
    ("winding", "recorded winding 0 disagrees with the closure sum (winding -1)"),
    ("mirrored", "recorded orientation string disagrees with the geometry"),
    ("area", "recorded area -1.1303141664890526 disagrees with the shoelace area of the "
             "points (-2.13031416649)"),
    # two failing checks: the note is the first one's
    ("off circle and eps length", "points deviate from the recorded circle by 1.439e-06"),
]


@pytest.mark.parametrize("check, note", TAMPERED_NOTES)
def test_verify_note_names_the_first_failing_check(check, note):
    tampered = _envelope(IRREGULAR, analyze_linkage(IRREGULAR))
    _tamper(tampered["configurations"][0], check)
    rows, _, ok = verify_enumeration(*load_enumeration(dump_json(tampered)))
    assert not ok
    assert [j for j, r in enumerate(rows) if not r.agree] == [0]
    assert rows[0].note == note


# JSON values put in place of a field, a part of one, or a record.
_PALETTE = [None, True, False, 0, 1, -1, 2, 1.5, -1.5, math.nan, math.inf, 10 ** 400, "", "abc",
            "1.5", "+-+-+", [], {}, {"a": 1}, [1], [1, 2], [1.0, 2.0, 3.0], [True, False],
            ["1", "2"], [[1, 2]], [[1], [2]], [[0, 0]] * 5, [1, -1, 1, -1]]


def _edits(record):
    """Copies of ``record`` with one field, entry or flag removed or replaced
    by each value of the palette, and each palette value as the record."""
    yield from _PALETTE
    for path in (("points",), ("points", 2), ("points", 2, 0), ("center",), ("center", 1),
                 ("r",), ("eps",), ("eps", 0), ("k",), ("area",), ("flags",), ("flags", "central"),
                 ("flags", "central", 0), ("flags", "near_flip"), ("flags", "delta_zero")):
        for value in [...] + _PALETTE:
            edited = json.loads(json.dumps(record))
            *parents, last = path
            target = edited
            for key in parents:
                target = target[key]
            if value is ...:
                if isinstance(last, str):
                    del target[last]
                else:
                    target.pop(last)
            else:
                target[last] = value
            yield edited


def test_columns_refuse_exactly_the_records_with_a_note():
    # verify stacks the records a note lets through: a record refused by
    # one and not the other would crash verify or go unchecked
    n = IRREGULAR.n
    record = _envelope(IRREGULAR, analyze_linkage(IRREGULAR))["configurations"][0]
    assert _record_note(n, record) is None and _columns(n, [record]) is not None
    mismatched = [edited for edited in _edits(record)
                  if (_record_note(n, edited) is None) != (_columns(n, [edited]) is not None)
                  or (_columns(n, [record, edited]) is None) != (_columns(n, [edited]) is None)]
    assert mismatched == []


# A record that passes every rule of _judge, as _analyze_rows columns plus
# its recomputed flag and whether its recorded string disagrees.
_JUDGED = dict(oracle_error=None, residual=1e-13, flagged=False, inertia=(1, 0, 1), det_sign=-1,
               oracle_index=1, disagree=False, morse_error=None, agree=True, formula_index=1)
_RANK = "constraint Jacobian rank deficient (sigma_min/sigma_max = 1.000e-12)"
_CENTRAL = "edge 2 passes through the circle center"

# Per row: the fields that differ from _JUDGED, and the VerificationRow that
# _judge reports, the residual, inertia, det_sign and index being the row's
# own where they are reported.  One row per rule, in _judge's order, then
# rows that meet two rules, which take the first one's note.
JUDGE_CASES = [
    ({}, dict(judged=True, formula=True, agree=True, note=None)),
    (dict(oracle_error=_RANK, residual=math.nan, inertia=(0, 0, 0), det_sign=0, oracle_index=-1),
     dict(note=_RANK)),
    (dict(residual=2e-8), dict(note="criticality residual 2.000e-08 exceeds 1.0e-08")),
    (dict(flagged=True, morse_error="flagged non-generic", agree=None),
     dict(residual=True, agree=True, flagged=True, note="flagged, excluded")),
    (dict(inertia=(1, 1, 0), det_sign=0),
     dict(judged=True, note="oracle found a zero eigenvalue")),
    (dict(disagree=True), dict(note="recorded orientation string disagrees with the geometry")),
    (dict(morse_error=_CENTRAL, agree=None), dict(note=_CENTRAL)),
    (dict(formula_index=3, agree=False),
     dict(judged=True, formula=True, note="formula and oracle disagree")),
    (dict(oracle_error=_RANK, residual=1.0), dict(note=_RANK)),
    (dict(residual=2e-8, flagged=True),
     dict(note="criticality residual 2.000e-08 exceeds 1.0e-08")),
    (dict(flagged=True, inertia=(1, 1, 0), det_sign=0),
     dict(residual=True, agree=True, flagged=True, note="flagged, excluded")),
    (dict(inertia=(1, 1, 0), det_sign=0, disagree=True),
     dict(judged=True, note="oracle found a zero eigenvalue")),
    (dict(disagree=True, morse_error=_CENTRAL, agree=None),
     dict(note="recorded orientation string disagrees with the geometry")),
    (dict(disagree=True, formula_index=3, agree=False),
     dict(note="recorded orientation string disagrees with the geometry")),
]


def test_judge_reports_the_first_rule_each_record_meets():
    rows = len(JUDGE_CASES)
    specs = [{**_JUDGED, **change, "residual": change.get("residual", (j + 1) * 1e-13),
              "oracle_index": change.get("oracle_index", j % 4)}
             for j, (change, _) in enumerate(JUDGE_CASES)]
    column = {name: [spec[name] for spec in specs] for name in _JUDGED}
    cols = {name: np.array(column[name], dtype=object)
            for name in ("oracle_error", "morse_error", "agree")}
    cols.update({name: np.array(column[name]) for name in
                 ("residual", "inertia", "det_sign", "oracle_index", "formula_index")})
    out = dict(residual=np.full(rows, np.nan), inertia=np.zeros((rows, 3), dtype=int),
               det_sign=np.zeros(rows, dtype=int), index=np.full(rows, -1),
               formula_index=np.full(rows, -1), agree=np.zeros(rows, dtype=bool),
               flagged=np.zeros(rows, dtype=bool), note=np.full(rows, None, dtype=object))
    _judge(out, np.arange(rows), np.array(column["flagged"]), np.array(column["disagree"]), cols)
    expected = []
    for spec, (_, report) in zip(specs, JUDGE_CASES):
        judged = report.get("judged", False)
        expected.append(VerificationRow(
            residual=spec["residual"] if judged or report.get("residual") else None,
            inertia=spec["inertia"] if judged else None,
            det_sign=spec["det_sign"] if judged else None,
            index=spec["oracle_index"] if judged else None,
            formula_index=spec["formula_index"] if report.get("formula") else None,
            agree=report.get("agree", False), flagged=report.get("flagged", False),
            note=report["note"]))
    assert list(VerificationTable(**out)) == expected


def test_exactly_one_convex_configuration_per_linkage():
    rng = np.random.default_rng(23)
    for n in (4, 5, 6):
        linkage = random_linkage(rng, n)
        analyses = analyze_linkage(linkage)
        convex = [a for a in analyses if a.convex]
        assert len(convex) == 1
        areas = [a.area for a in analyses]
        assert convex[0].area == pytest.approx(max(areas), abs=1e-12)


# ---------------------------------------------------------------------------
# The tables of enumerate_cyclic and analyze_linkage, and their row views


def _view_fields(view):
    """The fields of a row view as plain comparable values."""
    desc = view.descriptor
    fields = (desc.eps.eps, desc.winding, desc.radius, desc.alphas.tolist(), desc.center.tolist(),
              view.configuration.points.tolist(), view.flags)
    if hasattr(view, "area"):
        fields += (view.area, view.index, view.index_source, view.agree)
    return fields


def _kernel_fields(table, analysed: bool):
    """The same fields recomputed from the table's points, strings and
    half-angles through the stacked kernels alone."""
    eps = table.eps.astype(float)
    central, near_flip, delta_zero = _flag_rows(eps, table.alphas)
    form = _closed_form_rows(table.points, table.center, table.radius)
    _, _, inertia, _, errors = _verdict_rows(table.points)
    areas = _signed_areas(table.points)
    out = []
    for j in range(len(table)):
        flags = DegeneracyFlags(tuple(central[j].tolist()), tuple(near_flip[j].tolist()),
                                bool(delta_zero[j]))
        if not flags.any:
            # the enumerated string and winding are the ones the points measure
            assert tuple(form.eps[j].tolist()) == tuple(table.eps[j].tolist())
            assert form.k[j] == table.k[j]
        fields = (tuple(table.eps[j].tolist()), int(table.k[j]), float(table.radius[j]),
                  table.alphas[j].tolist(), table.center[j].tolist(), table.points[j].tolist(),
                  flags)
        if analysed:
            index = source = agree = None
            if not flags.any:
                morse = errors[j] is None and inertia[j, 1] == 0
                if form.sign_errors[j] is None:
                    index, source = int(form.index[j]), "formula"
                elif morse:
                    index, source = int(inertia[j, 0]), "oracle"
                if morse and form.sign_errors[j] is None:
                    agree = bool(index == inertia[j, 0])
            fields += (float(areas[j]), index, source, agree)
        out.append(fields)
    return out


def _view_linkages():
    yield PENTA
    rng = np.random.default_rng(67)
    yield from (random_linkage(rng, n) for n in range(6, 11))


@pytest.mark.parametrize("linkage", list(_view_linkages()),
                         ids=["pentagon"] + [f"seeded_{n}" for n in range(6, 11)])
def test_table_views_match_the_stacked_kernels(linkage):
    for table, analysed in ((enumerate_cyclic(linkage), False), (analyze_linkage(linkage), True)):
        expected = _kernel_fields(table, analysed)
        assert len(table) == len(expected) == table.k.size > 6
        assert [_view_fields(view) for view in table] == expected
        if analysed:
            # the residual column: the oracle's where it ran and did not
            # refuse, exactly on the roots, and up to rounding on their
            # mirrors, whose residual is their root's
            _, residual, _, _, errors = _verdict_rows(table.points)
            ran = ~table.flagged & np.array([error is None for error in errors])
            expected_residual = np.where(ran, residual, np.nan)
            root = table.eps[:, 0] > 0
            assert np.array_equal(table.residual[root], expected_residual[root], equal_nan=True)
            assert np.allclose(table.residual[~root], expected_residual[~root], rtol=0.0,
                               atol=1e-13, equal_nan=True)
        assert [_view_fields(table[j]) for j in range(len(table))] == expected
        assert _view_fields(table[0]) == expected[0]
        assert _view_fields(table[-1]) == expected[-1]
        head = table[:6]
        assert type(head) is type(table) and len(head) == 6
        assert [_view_fields(view) for view in head] == expected[:6]
        for key in (len(table), -len(table) - 1):
            with pytest.raises(IndexError):
                table[key]
