"""Pipeline records, JSON artifacts, and artifact verification."""

import copy
import json
import math

import numpy as np
import pytest

from conftest import random_linkage
from linkmorse import Linkage, analyze_linkage, index_summary, verify_enumeration
from linkmorse.analysis import dump_json, enumeration_dict, load_enumeration, record_dict

PENTA = Linkage([1, 1, 1, 1, 1])
IRREGULAR = Linkage([1, 1.2, 1.4, 1.1, 0.9])


@pytest.fixture(scope="module")
def pentagon_analyses():
    return analyze_linkage(PENTA)


def test_pentagon_summary_line(pentagon_analyses):
    assert index_summary(pentagon_analyses) == \
        "14 configurations: index 0 x2, index 1 x10, index 2 x2"


def test_aligned_configurations_use_oracle_fallback(pentagon_analyses):
    fallback = [a for a in pentagon_analyses if a.index_source == "oracle"]
    assert len(fallback) == 10
    assert all(a.index == 1 for a in fallback)
    assert all(a.morse_error is not None for a in fallback)
    # the determinant sign is still compared where the index formula fails
    assert all(a.agree is True for a in fallback)
    formula = [a for a in pentagon_analyses if a.index_source == "formula"]
    assert sorted(a.index for a in formula) == [0, 0, 2, 2]
    assert all(a.agree for a in formula)


def test_record_schema(pentagon_analyses):
    rec = record_dict(pentagon_analyses[0])
    assert set(rec) == {"eps", "k", "r", "center", "points", "area", "flags"}
    assert set(rec["flags"]) == {"central", "near_flip", "delta_zero"}
    assert len(rec["points"]) == 5
    assert all(v in (-1, 1) for v in rec["eps"])


def test_artifact_round_trip_is_lossless(pentagon_analyses):
    envelope = enumeration_dict(PENTA, pentagon_analyses, seed=7)
    text = dump_json(envelope)
    linkage, records = load_enumeration(text)
    assert np.array_equal(linkage.lengths, PENTA.lengths)
    assert len(records) == 14
    # floats survive the decimal round trip bit for bit
    assert records == envelope["configurations"]
    assert json.loads(text)["seed"] == 7


def test_artifact_output_is_deterministic():
    first = dump_json(enumeration_dict(PENTA, analyze_linkage(PENTA), seed=1))
    second = dump_json(enumeration_dict(PENTA, analyze_linkage(PENTA), seed=1))
    assert first == second
    assert json.loads(first)["tolerances"] == {"root_rtol": 1e-14, "degeneracy": 1e-07, "closure": 1e-09}


def test_verify_accepts_clean_artifact(pentagon_analyses):
    envelope = enumeration_dict(PENTA, pentagon_analyses)
    linkage, records = load_enumeration(dump_json(envelope))
    rows, summary, ok = verify_enumeration(linkage, records)
    assert ok
    assert summary == "14/14 agree (0 flagged)"


def test_verify_rows_read_off_the_library_analysis():
    rng = np.random.default_rng(31)
    linkages = [PENTA] + [random_linkage(rng, n) for n in (5, 6, 7, 8)]
    for linkage in linkages:
        analyses = analyze_linkage(linkage)
        _, records = load_enumeration(dump_json(enumeration_dict(linkage, analyses)))
        rows, _, _ = verify_enumeration(linkage, records)
        assert len(rows) == len(analyses)
        for a, row in zip(analyses, rows):
            assert not a.flags.any
            assert row.index == a.oracle.index
            assert row.formula_index == (None if a.morse is None else a.morse.index)
            assert row.det_sign == a.oracle.det_sign
            assert row.inertia == a.oracle.inertia
            assert row.residual == a.oracle.residual
            assert row.agree is a.agree is True


@pytest.mark.parametrize("field, row, change", [("r", 3, 1e-3), ("points", 0, 1e-3),
                                                ("k", 0, 1), ("k", 0, -1), ("center", 0, math.nan)],
                         ids=["radius", "points", "k+1", "k-1", "center-nan"])
def test_verify_catches_tampered_record(pentagon_analyses, field, row, change):
    tampered = copy.deepcopy(enumeration_dict(PENTA, pentagon_analyses))
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
    elif check == "flags":
        record["flags"]["delta_zero"] = True
    elif check == "mirrored":
        # reflected across the pinned edge, eps and k kept: every stacked
        # check passes, and the analysis measures the opposite string
        record["points"] = [[-x, y] for x, y in record["points"]]
        record["center"][0] = -record["center"][0]
    else:
        record["k"] += 1


@pytest.mark.parametrize("check, note", [
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
    ("flags", "recorded flags disagree with the recorded radius and orientation string"),
    ("winding", "recorded winding 0 disagrees with the closure sum (winding -1)"),
    ("mirrored", "recorded orientation string disagrees with the geometry"),
    # two failing checks: the note is the first one's
    ("off circle and eps length", "points deviate from the recorded circle by 1.439e-06"),
])
def test_verify_note_names_the_first_failing_check(check, note):
    tampered = enumeration_dict(IRREGULAR, analyze_linkage(IRREGULAR))
    _tamper(tampered["configurations"][0], check)
    rows, _, ok = verify_enumeration(*load_enumeration(dump_json(tampered)))
    assert not ok
    assert [j for j, r in enumerate(rows) if not r.agree] == [0]
    assert rows[0].note == note


def test_exactly_one_convex_configuration_per_linkage():
    rng = np.random.default_rng(23)
    for n in (4, 5, 6):
        linkage = random_linkage(rng, n)
        analyses = analyze_linkage(linkage)
        convex = [a for a in analyses if a.convex]
        assert len(convex) == 1
        areas = [a.area for a in analyses]
        assert convex[0].area == pytest.approx(max(areas), abs=1e-12)
