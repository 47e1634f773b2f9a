"""The narrative demos run to completion."""

import dataclasses
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # run a copy, because pentagon_catalog writes its SVG next to itself
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def _load_demo(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "demos" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("column", ["agree", "h_sequence"])
def test_formula_vs_oracle_fails_on_a_disagreement(column, monkeypatch, capsys):
    # the demo states the paper's claim only after checking it: one unflagged
    # row that disagrees, or one sign-sequence term the oracle contradicts,
    # makes it exit 1
    demo = _load_demo("formula_vs_oracle")
    analyze = demo.analyze_linkage

    def one_wrong(linkage):
        table = analyze(linkage)
        values = getattr(table, column).copy()
        # a row whose sequence is defined, so it is unflagged and its terms compared
        row = int(np.flatnonzero(table.h_sequence[:, 0] != 0)[0])
        values[row] = False if column == "agree" else -values[row]
        return dataclasses.replace(table, **{column: values})

    monkeypatch.setattr(demo, "analyze_linkage", one_wrong)
    with pytest.raises(SystemExit) as exit_:
        demo.main()
    assert exit_.value.code == 1
    assert "agreed on every" not in capsys.readouterr().out
