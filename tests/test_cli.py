"""End-to-end command-line checks through main()."""

import json
import math

import pytest

from conftest import regular_polygon_points
from linkmorse.cli import main


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


def test_enumerate_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["enumerate", "-i", str(bad), "-o", str(tmp_path / "out.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_enumerate_rejects_unclosable_lengths(tmp_path, capsys):
    linkage_file = _write(tmp_path / "linkage.json", {"lengths": [3, 1, 1]})
    assert main(["enumerate", "-i", linkage_file]) == 2


def test_index_command_square(tmp_path, capsys):
    pts, _, _ = regular_polygon_points(4)
    config_file = _write(tmp_path / "square.json", {"points": pts.tolist()})
    code = main(["index", "-i", config_file])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["h_sequence"] == [1, -1]
    assert payload["index"] == 1
    assert payload["sign_report"]["e"] == 4
    assert payload["sign_report"]["d"] == 1


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
    pentagon, _, _ = regular_polygon_points(5)
    star, _, _ = regular_polygon_points(5, winding=2)
    a = _write(tmp_path / "a.json", {"points": star.tolist()})
    b = _write(tmp_path / "b.json", {"points": pentagon.tolist()})
    out = tmp_path / "events.json"
    code = main(["deform", "-a", a, "-b", b, "-o", str(out), "--frames", "2000"])
    captured = capsys.readouterr()
    assert code == 0
    events = json.loads(out.read_text())
    assert events, "star to pentagon must cross at least one event"
    assert {"kind", "edge", "t", "H_before", "H_after", "d_before", "d_after"} <= set(events[0])
    assert "transition violations" in captured.out


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


def test_render_empty_artifact(tmp_path):
    artifact = _write(tmp_path / "empty.json",
                      {"lengths": [1, 1, 1], "configurations": []})
    out = tmp_path / "empty.svg"
    assert main(["render", "-i", artifact, "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("<svg") and "<g>" not in text


def test_verify_flags_near_central_artifact(tmp_path, capsys):
    # a quadrilateral whose long edge is within the degeneracy tolerance of a
    # diameter: both configurations arrive flagged and are excluded
    gap = 1e-4
    lengths = [2 * math.sin(math.pi / 2 - gap), 2 * math.sin(0.2),
               2 * math.sin(0.2), 2 * math.sin(math.pi / 2 - 0.4 - gap)]
    linkage_file = _write(tmp_path / "thin.json", {"lengths": lengths})
    artifact = tmp_path / "thin_enum.json"
    assert main(["enumerate", "-i", linkage_file, "-o", str(artifact)]) == 0
    capsys.readouterr()
    code = main(["verify", "-i", str(artifact)])
    captured = capsys.readouterr()
    assert code == 0
    assert "(2 flagged)" in captured.out


def _first_record(change):
    def edit(data):
        data["configurations"][0] = change(data["configurations"][0])
        return data
    return edit


MALFORMED = [
    ("verify", "no-k", _first_record(lambda rec: {f: v for f, v in rec.items() if f != "k"}), 1),
    ("verify", "r-not-a-number", _first_record(lambda rec: dict(rec, r="abc")), 1),
    ("verify", "record-is-a-string", _first_record(lambda rec: "abc"), 1),
    ("verify", "flags-is-a-list", _first_record(lambda rec: dict(rec, flags=[1])), 1),
    ("enumerate", "lengths-not-numbers", lambda data: {"lengths": "abc"}, 2),
    ("index", "point-not-a-number", lambda data: {"points": [["x", 1], [0, 1], [1, 1]]}, 2),
    ("render", "point-not-a-number", lambda data: {"points": [["x", 1], [0, 1], [1, 1]]}, 2),
    ("render", "record-is-a-string", _first_record(lambda rec: "abc"), 2),
    ("render", "r-not-a-number", _first_record(lambda rec: dict(rec, r="abc")), 2),
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


def test_missing_file_is_input_error(tmp_path, capsys):
    assert main(["verify", "-i", str(tmp_path / "nope.json")]) == 2
