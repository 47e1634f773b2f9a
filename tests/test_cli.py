"""End-to-end command-line checks through main()."""

import dataclasses
import io
import json
import math

import numpy as np
import pytest

from conftest import random_linkage, regular_polygon_points
from test_analysis import IRREGULAR, TAMPERED_NOTES, _envelope, _tamper
from linkmorse import Linkage, analyze_linkage, analysis, cli, index_summary
from linkmorse.analysis import CRITICALITY_TOL, dump_json, write_enumeration
from linkmorse.cli import main
from linkmorse.errors import LinkmorseError


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def pentagon_artifact(tmp_path):
    linkage_file = _write(tmp_path / "linkage.json", {"lengths": [1, 1, 1, 1, 1]})
    out_file = tmp_path / "enum.json"
    code = main(["enumerate", "-i", linkage_file, "-o", str(out_file)])
    assert code == 0
    return out_file


def test_enumerate_pentagon_summary(pentagon_artifact, capsys):
    data = json.loads(pentagon_artifact.read_text())
    assert len(data["configurations"]) == 14
    assert data["lengths"] == [1.0, 1.0, 1.0, 1.0, 1.0]


def test_enumerate_prints_index_counts(tmp_path, capsys):
    linkage_file = _write(tmp_path / "linkage.json", {"lengths": [1, 1, 1, 1, 1]})
    code = main(["enumerate", "-i", linkage_file, "-o", str(tmp_path / "out.json")])
    captured = capsys.readouterr()
    assert code == 0
    assert "14 configurations: index 0 x2, index 1 x10, index 2 x2" in captured.out


def test_enumerate_triangle(tmp_path, capsys):
    linkage_file = _write(tmp_path / "linkage.json", {"lengths": [1, 1, 1]})
    code = main(["enumerate", "-i", linkage_file, "-o", str(tmp_path / "out.json")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("2 configurations")


def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    # main reuses one parser; a --seed given to one call must not leak into
    # the next, which writes the default
    assert cli.build_parser() is cli.build_parser()
    linkage_file = _write(tmp_path / "linkage.json", {"lengths": [1, 1, 1]})
    out = tmp_path / "out.json"
    assert main(["enumerate", "-i", linkage_file, "-o", str(out), "--seed", "3"]) == 0
    assert json.loads(out.read_text())["seed"] == 3
    assert main(["enumerate", "-i", linkage_file, "-o", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] is None


# The artifact writer and summary as they were before the columnar table:
# one dict per record, encoded by json.dumps inside the dump_json envelope,
# and one pass over the per-row views for the summary.  They are the
# references the template writer and index_summary must equal byte for byte.


def _reference_record(a) -> dict:
    desc = a.descriptor
    return {
        "eps": list(desc.eps.eps),
        "k": desc.winding,
        "r": float(desc.radius),
        "center": [float(v) for v in desc.center],
        "points": [[float(x), float(y)] for x, y in a.configuration.points],
        "area": float(a.area),
        "flags": {"central": [bool(v) for v in a.flags.central],
                  "near_flip": [bool(v) for v in a.flags.near_flip],
                  "delta_zero": bool(a.flags.delta_zero)},
    }


def _reference_envelope(linkage, analyses, seed=None) -> dict:
    return {
        "lengths": [float(v) for v in linkage.lengths],
        "seed": seed,
        "tolerances": {"root_rtol": 1e-14, "degeneracy": 1e-07, "closure": 1e-09},
        "configurations": [_reference_record(a) for a in analyses],
    }


def _reference_artifact(linkage, analyses, seed=None) -> str:
    """The artifact streamed record by record with json.dumps, asserted equal
    to the whole envelope dumped at once."""
    envelope = _reference_envelope(linkage, analyses, seed)
    head, tail = dump_json(dict(envelope, configurations=[])).rsplit("[]", 1)
    parts = [head + "["]
    sep = "\n"
    for record in envelope["configurations"]:
        parts.append(sep + "    " + json.dumps(record, indent=2).replace("\n", "\n    "))
        sep = ",\n"
    parts.append(("]" if sep == "\n" else "\n  ]") + tail)
    text = "".join(parts)
    assert text == dump_json(envelope)
    return text


def _reference_summary(analyses) -> str:
    counts, flagged, unknown = {}, 0, 0
    for a in analyses:
        flagged += a.flags.any
        if a.index is None:
            unknown += not a.flags.any
        else:
            counts[a.index] = counts.get(a.index, 0) + 1
    text = f"{len(analyses)} configurations"
    if counts:
        text += ": " + ", ".join(f"index {m} x{counts[m]}" for m in sorted(counts))
    if flagged:
        text += f" ({flagged} flagged)"
    if unknown:
        text += f" ({unknown} without index)"
    return text


def _seeded_lengths():
    rng = np.random.default_rng(61)
    return [random_linkage(rng, n).lengths.tolist() for n in range(3, 13) for _ in range(4)]


@pytest.mark.parametrize("lengths", [[1, 1, 1], [1, 1, 1, 1, 1], [1, 2, 1, 2, 1, 2],
                                     [1, 2, 1.5, 2.5 - 1e-8], [1.0, 1.2, 1.4, 1.1, 0.9]]
                         + _seeded_lengths())
def test_enumerate_streams_the_artifact_text(tmp_path, capsys, lengths):
    # the artifact is formatted from the columns by a template; it must be
    # the text of the per-record json encoder, on stdout and with -o
    linkage = Linkage(lengths)
    analyses = analyze_linkage(linkage)
    expected = _reference_artifact(linkage, analyses, seed=3)
    summary = _reference_summary(analyses) + "\n"
    assert index_summary(analyses) + "\n" == summary
    linkage_file = _write(tmp_path / "linkage.json", {"lengths": lengths})
    capsys.readouterr()
    assert main(["enumerate", "-i", linkage_file, "--seed", "3"]) == 0
    assert capsys.readouterr().out == expected + summary
    out = tmp_path / "out.json"
    assert main(["enumerate", "-i", linkage_file, "--seed", "3", "-o", str(out)]) == 0
    assert capsys.readouterr().out == summary
    assert out.read_text() == expected


def test_streamed_artifact_without_records():
    linkage = Linkage([1, 1, 1])
    stream = io.StringIO()
    write_enumeration(stream, linkage, analyze_linkage(linkage)[:0], seed=None)
    assert stream.getvalue() == _reference_artifact(linkage, [])


def test_artifact_spans_several_chunks(monkeypatch):
    linkage = Linkage([1.0, 1.2, 1.4, 1.1, 0.9])
    analyses = analyze_linkage(linkage)
    # 3 records per chunk of 3 * (5 n + 6) values, 10 records
    monkeypatch.setattr(analysis, "_WRITE_CHUNK", 3 * 31)
    stream = io.StringIO()
    write_enumeration(stream, linkage, analyses, seed=5)
    assert stream.getvalue() == _reference_artifact(linkage, analyses, seed=5)


@pytest.mark.parametrize("field, entry, value, message", [
    ("radius", 3, math.nan, "record 3: field 'r' is not finite"),
    ("points", (5, 2, 1), math.inf, "record 5: field 'points' is not finite"),
    ("area", -1, -math.inf, "record 9: field 'area' is not finite"),
])
def test_writer_refuses_non_finite_values(field, entry, value, message):
    # json.dumps would write NaN or Infinity, which is not JSON; nothing is
    # written before the refusal
    linkage = Linkage([1.0, 1.2, 1.4, 1.1, 0.9])
    analyses = analyze_linkage(linkage)
    column = getattr(analyses, field).copy()
    column[entry] = value
    stream = io.StringIO()
    with pytest.raises(LinkmorseError, match=f"^{message}$"):
        write_enumeration(stream, linkage, dataclasses.replace(analyses, **{field: column}))
    assert stream.getvalue() == ""


def test_enumerate_exits_2_on_a_non_finite_value(tmp_path, capsys, monkeypatch):
    analyze = analysis.analyze_linkage

    def nan_radius(linkage):
        analyses = analyze(linkage)
        radius = analyses.radius.copy()
        radius[0] = math.nan
        return dataclasses.replace(analyses, radius=radius)

    monkeypatch.setattr(analysis, "analyze_linkage", nan_radius)
    linkage_file = _write(tmp_path / "linkage.json", {"lengths": [1, 1, 1, 1, 1]})
    capsys.readouterr()
    assert main(["enumerate", "-i", linkage_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: record 0: field 'r' is not finite\n"


def test_enumerate_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["enumerate", "-i", str(bad), "-o", str(tmp_path / "out.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_enumerate_rejects_unclosable_lengths(tmp_path, capsys):
    linkage_file = _write(tmp_path / "linkage.json", {"lengths": [3, 1, 1]})
    assert main(["enumerate", "-i", linkage_file]) == 2


def test_enumerate_refuses_too_many_edges(tmp_path, capsys):
    linkage_file = _write(tmp_path / "linkage.json", {"lengths": [1.0] * 40})
    assert main(["enumerate", "-i", linkage_file]) == 2
    assert "enumeration budget" in capsys.readouterr().err


def _index_payload(tmp_path, capsys, n):
    """The parsed output of ``linkmorse index`` on the regular n-gon, whose
    keys are pinned."""
    pts, _, _ = regular_polygon_points(n)
    config_file = _write(tmp_path / f"polygon_{n}.json", {"points": pts.tolist()})
    code = main(["index", "-i", config_file])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert list(payload) == ["h_sequence", "index", "sign_report"]
    assert list(payload["sign_report"]) == ["delta", "d", "e", "h_sign"]
    return payload


def test_index_command_square(tmp_path, capsys):
    payload = _index_payload(tmp_path, capsys, 4)
    assert payload["h_sequence"] == [1, -1]
    assert payload["index"] == 1
    assert payload["sign_report"]["e"] == 4
    assert payload["sign_report"]["d"] == 1
    assert payload["sign_report"]["h_sign"] == -1
    # delta = sum tan(pi/4) over the four edges
    assert payload["sign_report"]["delta"] == pytest.approx(4.0)


def test_index_command_pentagon(tmp_path, capsys):
    payload = _index_payload(tmp_path, capsys, 5)
    assert payload["h_sequence"] == [1, -1, 1]
    assert payload["index"] == 2
    assert payload["sign_report"]["e"] == 5
    assert payload["sign_report"]["d"] == 1
    assert payload["sign_report"]["h_sign"] == 1
    assert payload["sign_report"]["delta"] == pytest.approx(5.0 * math.tan(math.pi / 5))


def test_index_command_rejects_non_cyclic(tmp_path, capsys):
    config_file = _write(tmp_path / "bad.json",
                         {"points": [[0, 0], [0, 1], [-1, 1.2], [-1.3, 0.1]]})
    assert main(["index", "-i", config_file]) == 2


def test_verify_clean_artifact(pentagon_artifact, capsys):
    code = main(["verify", "-i", str(pentagon_artifact)])
    captured = capsys.readouterr()
    assert code == 0
    assert "14/14 agree (0 flagged)" in captured.out


REMOVED_FLAGS = [
    ("verify", "--tol-degen", "1e-3"),
    ("enumerate", "--samples", "8"),
    ("enumerate", "--cap-factor", "1"),
    ("enumerate", "--tol-root", "1e-20"),
    ("enumerate", "--tol-degen", "1e-3"),
    ("enumerate", "--tol-eig", "1e-3"),
    ("verify", "--tol-eig", "1e-3"),
    ("index", "--tol-fit", "1e-3"),
    ("deform", "--tol-fit", "1e-3"),
]


@pytest.mark.parametrize("command, flag, value", REMOVED_FLAGS,
                         ids=[command + flag for command, flag, _ in REMOVED_FLAGS])
def test_verify_rejects_enumeration_tolerances(pentagon_artifact, command, flag, value, capsys):
    """The tolerances are fixed constants: no command takes one as a flag."""
    inputs = {"deform": ["-a", str(pentagon_artifact), "-b", str(pentagon_artifact)]}
    argv = [command] + inputs.get(command, ["-i", str(pentagon_artifact)]) + [flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_tampered_artifact(pentagon_artifact, tmp_path, capsys):
    data = json.loads(pentagon_artifact.read_text())
    data["configurations"][5]["r"] *= 1.001
    bad = _write(tmp_path / "tampered.json", data)
    code = main(["verify", "-i", bad])
    captured = capsys.readouterr()
    assert code == 1
    assert "verification failed" in captured.err


def test_deform_command(tmp_path, capsys):
    pentagon, _, radius = regular_polygon_points(5)
    star, _, star_radius = regular_polygon_points(5, winding=2)
    # both endpoints on one circle: scaling about the pinned vertex p1 = 0
    # keeps p2 on the +y axis
    a = _write(tmp_path / "a.json", {"points": (star * (radius / star_radius)).tolist()})
    b = _write(tmp_path / "b.json", {"points": pentagon.tolist()})
    out = tmp_path / "events.json"
    code = main(["deform", "-a", a, "-b", b, "-o", str(out), "--frames", "2000"])
    captured = capsys.readouterr()
    assert code == 0
    events = json.loads(out.read_text())
    assert events, "star to pentagon must cross at least one event"
    assert {"kind", "edge", "t", "H_before", "H_after", "d_before", "d_after"} <= set(events[0])
    assert "transition violations" in captured.out


def test_deform_refuses_endpoints_on_different_circles(tmp_path, capsys):
    # the unit pentagram (r = 0.526) and the unit pentagon (r = 0.851): a
    # path on the first circle would not end at the second configuration
    pentagon, _, _ = regular_polygon_points(5)
    star, _, _ = regular_polygon_points(5, winding=2)
    a = _write(tmp_path / "a.json", {"points": star.tolist()})
    b = _write(tmp_path / "b.json", {"points": pentagon.tolist()})
    assert main(["deform", "-a", a, "-b", b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "circles of radii" in captured.err


def test_verify_recomputes_flags(tmp_path, capsys):
    # flags claiming a delta zero exempted each record from every check but
    # the criticality residual, so wrong strings and windings passed
    linkage_file = _write(tmp_path / "linkage.json", {"lengths": [1.0, 1.2, 1.4, 1.1, 0.9]})
    artifact = tmp_path / "enum.json"
    assert main(["enumerate", "-i", linkage_file, "-o", str(artifact)]) == 0
    data = json.loads(artifact.read_text())
    assert len(data["configurations"]) == 10
    for rec in data["configurations"]:
        rec["flags"]["delta_zero"] = True
        rec["eps"] = [1, 1, 1, 1, 1]
        rec["k"] = 7
    bad = _write(tmp_path / "tampered.json", data)
    capsys.readouterr()
    assert main(["verify", "-i", bad]) == 1
    captured = capsys.readouterr()
    assert "0/10 agree (0 flagged)" in captured.out
    assert "recorded flags disagree" in captured.err


def test_render_directory(pentagon_artifact, tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code = main(["render", "-i", str(pentagon_artifact), "-o", str(out_dir)])
    assert code == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert "grid.svg" in files
    assert sum(1 for f in files if f.startswith("config_")) == 14
    grid = (out_dir / "grid.svg").read_text()
    assert grid.startswith("<svg")
    assert grid.count("<g>") == 14


def test_render_single_file(tmp_path):
    pts, _, _ = regular_polygon_points(4)
    config_file = _write(tmp_path / "square.json", {"points": pts.tolist()})
    out = tmp_path / "square.svg"
    assert main(["render", "-i", config_file, "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert 'marker-end="url(#arrow)"' in text


def test_render_labels_a_configuration_with_its_measured_winding(tmp_path):
    # no eps or k recorded: both are measured, the square's winding is 1
    pts, _, _ = regular_polygon_points(4)
    config_file = _write(tmp_path / "square.json", {"points": pts.tolist()})
    out = tmp_path / "square.svg"
    assert main(["render", "-i", config_file, "-o", str(out)]) == 0
    assert "E=++++ k=1 " in out.read_text()


def _mirror_and_pop(rec):
    """The record mirrored across the pinned edge, one eps entry dropped."""
    return dict(rec, eps=rec["eps"][:-1], points=[[-x, y] for x, y in rec["points"]],
                center=[-rec["center"][0], rec["center"][1]])


@pytest.mark.parametrize("change, message", [
    # drawn as E=---- k=-1 before: the points are the mirror, +++++ at k = 1
    (_mirror_and_pop, "record 0: recorded orientation string disagrees with the geometry"),
    (lambda rec: dict(rec, eps=[-v for v in rec["eps"]]),
     "record 0: recorded orientation string disagrees with the geometry"),
    (lambda rec: dict(rec, k=rec["k"] + 1),
     "record 0: recorded winding 0 disagrees with the geometry (winding -1)"),
], ids=["mirrored-eps-popped", "eps-flipped", "k+1"])
def test_render_refuses_a_label_the_points_contradict(tmp_path, capsys, change, message):
    linkage_file = _write(tmp_path / "linkage.json", {"lengths": [1.0, 1.2, 1.4, 1.1, 0.9]})
    artifact = tmp_path / "enum.json"
    assert main(["enumerate", "-i", linkage_file, "-o", str(artifact)]) == 0
    data = json.loads(artifact.read_text())
    data["configurations"][0] = change(data["configurations"][0])
    bad = _write(tmp_path / "bad.json", data)
    capsys.readouterr()
    assert main(["render", "-i", bad, "-o", str(tmp_path / "bad.svg")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "bad.svg").exists()


def test_render_empty_artifact(tmp_path):
    artifact = _write(tmp_path / "empty.json",
                      {"lengths": [1, 1, 1], "configurations": []})
    out = tmp_path / "empty.svg"
    assert main(["render", "-i", artifact, "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg") and "<g>" not in text


def _near_central_quadrilateral():
    # a quadrilateral whose long edge is within the degeneracy tolerance of a
    # diameter
    gap = 1e-4
    return [2 * math.sin(math.pi / 2 - gap), 2 * math.sin(0.2),
            2 * math.sin(0.2), 2 * math.sin(math.pi / 2 - 0.4 - gap)]


def test_verify_flags_near_central_artifact(tmp_path, capsys):
    # both configurations arrive flagged and are excluded
    linkage_file = _write(tmp_path / "thin.json", {"lengths": _near_central_quadrilateral()})
    artifact = tmp_path / "thin_enum.json"
    assert main(["enumerate", "-i", linkage_file, "-o", str(artifact)]) == 0
    capsys.readouterr()
    code = main(["verify", "-i", str(artifact)])
    captured = capsys.readouterr()
    assert code == 0
    assert "(2 flagged)" in captured.out
    # a flagged record is checked for criticality alone, and agrees
    row = json.loads(captured.out.splitlines()[0])
    assert 0.0 <= row.pop("residual") <= CRITICALITY_TOL
    assert row == {"inertia": None, "det_sign": None, "index": None, "formula_index": None,
                   "agree": True, "flagged": True, "note": "flagged, excluded"}


def _first_record(change):
    def edit(data):
        data["configurations"][0] = change(data["configurations"][0])
        return data
    return edit


def _record_of_winding(k, change):
    """Move the first record of winding k to the front, changed."""
    def edit(data):
        records = data["configurations"]
        records.insert(0, change(records.pop(next(j for j, rec in enumerate(records)
                                                  if rec["k"] == k))))
        return data
    return edit


MALFORMED = [
    ("verify", "no-k", _first_record(lambda rec: {f: v for f, v in rec.items() if f != "k"}), 1),
    # k and the entries of eps must be JSON integers: int() would truncate
    # these to the recorded values
    ("verify", "k-not-an-integer", _record_of_winding(-1, lambda rec: dict(rec, k=-1.5)), 1),
    ("verify", "k-a-boolean", _record_of_winding(1, lambda rec: dict(rec, k=True)), 1),
    ("verify", "eps-not-integers",
     _first_record(lambda rec: dict(rec, eps=[1.7 * v for v in rec["eps"]])), 1),
    ("verify", "r-not-a-number", _first_record(lambda rec: dict(rec, r="abc")), 1),
    ("verify", "record-is-a-string", _first_record(lambda rec: "abc"), 1),
    ("verify", "flags-is-a-list", _first_record(lambda rec: dict(rec, flags=[1])), 1),
    # float() and numpy take "1.5" and true for numbers: these passed with
    # agree true before JSON numbers were required
    ("verify", "r-a-string", _first_record(lambda rec: dict(rec, r=str(rec["r"]))), 1),
    ("verify", "center-strings",
     _first_record(lambda rec: dict(rec, center=[str(v) for v in rec["center"]])), 1),
    ("verify", "point-a-boolean",
     _first_record(lambda rec: dict(rec, points=[[False, 0]] + rec["points"][1:])), 1),
    ("enumerate", "lengths-not-numbers", lambda data: {"lengths": "abc"}, 2),
    ("enumerate", "lengths-strings",
     lambda data: {"lengths": ["1", "1.2", "1.4", "1.1", True]}, 2),
    ("index", "point-not-a-number", lambda data: {"points": [["x", 1], [0, 1], [1, 1]]}, 2),
    ("render", "point-not-a-number", lambda data: {"points": [["x", 1], [0, 1], [1, 1]]}, 2),
    ("render", "record-is-a-string", _first_record(lambda rec: "abc"), 2),
    ("render", "r-not-a-number", _first_record(lambda rec: dict(rec, r="abc")), 2),
    ("render", "r-a-string", _first_record(lambda rec: dict(rec, r=str(rec["r"]))), 2),
    ("render", "r-negative", _first_record(lambda rec: dict(rec, r=-rec["r"])), 2),
    ("render", "center-nan", _first_record(lambda rec: dict(rec, center=[math.nan, 0.5])), 2),
    # render reads k and eps by verify's rules: int() overflowed on Infinity
    # and truncated -1.5, and float() drew 1.7 as +
    ("render", "k-infinite", _first_record(lambda rec: dict(rec, k=math.inf)), 2),
    ("render", "k-not-an-integer", _first_record(lambda rec: dict(rec, k=-1.5)), 2),
    ("render", "eps-not-integers",
     _first_record(lambda rec: dict(rec, eps=[1.7 * v for v in rec["eps"]])), 2),
]


@pytest.mark.parametrize("command, make, code", [case[:1] + case[2:] for case in MALFORMED],
                         ids=[f"{case[0]}-{case[1]}" for case in MALFORMED])
def test_malformed_input_is_refused_without_traceback(pentagon_artifact, tmp_path, capsys,
                                                       command, make, code):
    bad = _write(tmp_path / "bad.json", make(json.loads(pentagon_artifact.read_text())))
    extra = ["-o", str(tmp_path / "out.svg")] if command == "render" else []
    capsys.readouterr()
    assert main([command, "-i", bad] + extra) == code
    err = capsys.readouterr().err
    assert err.startswith("verification failed at record 0: malformed record" if code == 1
                          else "error: ")


def _reference_stdout(linkage, records):
    """What ``linkmorse verify`` printed when it encoded each row on its own:
    ``json.dumps`` of the row's fields, then the summary line."""
    rows, summary, ok = analysis.verify_enumeration(linkage, records)
    lines = [json.dumps({"residual": row.residual,
                         "inertia": None if row.inertia is None else list(row.inertia),
                         "det_sign": row.det_sign, "index": row.index,
                         "formula_index": row.formula_index, "agree": row.agree,
                         "flagged": row.flagged, "note": row.note}, sort_keys=False)
             for row in rows]
    return "".join(line + "\n" for line in lines) + summary + "\n", 0 if ok else 1


def _artifact_data(lengths):
    linkage = Linkage(lengths)
    return _envelope(linkage, analyze_linkage(linkage))


def _seeded(n):
    return lambda: _artifact_data(random_linkage(np.random.default_rng(40 + n), n).lengths)


def _tampered(check):
    def make():
        data = _artifact_data(IRREGULAR.lengths)
        _tamper(data["configurations"][0], check)
        return data
    return make


def _malformed(edit):
    return lambda: edit(_artifact_data([1.0] * 5))


def _no_records():
    return {**_artifact_data([1.0] * 5), "configurations": []}


def _escaped_note():
    # float() quotes the string in its refusal: the note holds '"', a
    # backslash and a non-ASCII character, which json.dumps escapes
    data = _artifact_data(IRREGULAR.lengths)
    data["configurations"][1]["r"] = 'é"\\'
    return data


VERIFY_STDOUT = [
    *((f"clean-n{n}", _seeded(n)) for n in range(5, 10)),
    ("near-central", lambda: _artifact_data(_near_central_quadrilateral())),
    *((f"tampered-{check}", _tampered(check)) for check, _ in TAMPERED_NOTES),
    *((f"malformed-{name}", _malformed(edit)) for command, name, edit, _ in MALFORMED
      if command == "verify"),
    ("no-records", _no_records),
    ("escaped-note", _escaped_note),
]


@pytest.mark.parametrize("make", [make for _, make in VERIFY_STDOUT],
                         ids=[name for name, _ in VERIFY_STDOUT])
def test_verify_stdout_is_json_dumps_of_each_row(tmp_path, capsys, make):
    data = make()
    path = _write(tmp_path / "artifact.json", data)
    expected, code = _reference_stdout(*analysis.load_enumeration(json.dumps(data)))
    capsys.readouterr()
    assert main(["verify", "-i", path]) == code
    assert capsys.readouterr().out == expected


def test_verify_stdout_of_special_artifacts(tmp_path, capsys):
    assert main(["verify", "-i", _write(tmp_path / "empty.json", _no_records())]) == 0
    assert capsys.readouterr().out == "0/0 agree (0 flagged)\n"
    assert main(["verify", "-i", _write(tmp_path / "quoted.json", _escaped_note())]) == 1
    note = r"""malformed record: ValueError: could not convert string to float: '\u00e9\"\\\\'"""
    assert f'"note": "{note}"}}\n' in capsys.readouterr().out


def test_missing_file_is_input_error(tmp_path, capsys):
    assert main(["verify", "-i", str(tmp_path / "nope.json")]) == 2


def test_non_json_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["verify", "-i", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: invalid JSON in {bad}: ")
