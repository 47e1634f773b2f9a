"""Self-tests of the benchmark's helpers, then a smoke run of every workload.

    python3 bench/selftest.py            # helpers + smoke, both trace modes
    python3 bench/selftest.py --no-smoke # helpers only

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import gate
from calibrate import Clock
from spans import Span, self_times, summarize
from run import import_program

import_program()
import workloads  # noqa: E402  (needs the program on the path)

HERE = Path(__file__).resolve().parent


def check_betti():
    pentagon = gate.betti_numbers([1.0] * 5)
    assert pentagon == (1, 8, 1), pentagon
    assert gate.euler_characteristic(pentagon) == -6
    assert not gate.is_wall([1.0] * 5)
    quad = gate.betti_numbers([1.0, 2.0, 1.5, 2.5 - 1e-8])
    assert quad == (2, 2), quad
    assert not gate.is_wall([1.0, 2.0, 1.5, 2.5 - 1e-8])
    assert gate.is_wall([1.0] * 6)
    assert gate.is_wall([1.0, 2.0, 1.5, 2.5])


def check_margins():
    # an odd equilateral polygon lies pi/2 from the diameter wall
    assert abs(workloads.diameter_margin([1.0] * 5) - math.pi / 2) < 1e-12
    # asin(3/5) + asin(4/5) = pi/2, so [3, 4, 5] lies on it
    assert workloads.diameter_margin([3.0, 4.0, 5.0]) < 1e-12
    # one linkage per Betti-sum stratum, the lowest stratum first
    skipped: list = []
    drawn = workloads.stratified_lengths(np.random.default_rng(5), 7, 8, skipped)
    sums = [sum(gate.betti_numbers(lengths)) for lengths in drawn]
    assert len(drawn) == 8 and sums[0] == min(sums), sums
    assert all(workloads.diameter_margin(lengths) >= workloads.DIAMETER_MARGIN for lengths in drawn)
    # the event times found without the program are the program's, to a frame
    rng = np.random.default_rng(5)
    start, end = (np.cumsum(rng.uniform(-2.5, 2.5, size=7)) for _ in range(2))
    times = workloads.event_times(start, end, workloads.FRAMES)
    path = workloads.deform.deform(start, end, 1.0, steps=workloads.FRAMES)
    events = [e.t for e in workloads.deform.detect_events(path)]
    assert len(times) == len(events) > 5, (times, events)
    assert np.max(np.abs(times - events)) < 1.0 / workloads.FRAMES, (times, events)


def check_gate():
    betti = (2, 2)
    lengths = [1.0, 2.0, 1.5, 2.5 - 1e-8]

    def pair(eps, k, r, index):
        return [gate.Critical(eps, k, r, index, False, True),
                gate.Critical(tuple(-v for v in eps), -k, r, 1 - index, False, True)]

    full = pair((1, 1, -1, 1), 0, 1.5, 0) + pair((1, -1, 1, 1), 1, 2.0, 0)
    assert gate.check(lengths, full, betti=betti) is None
    # losing a mirror pair breaks the Morse inequalities
    lost = gate.check(lengths, full[:2], betti=betti)
    assert lost.wrong and "c_0 = 1 < b_0 = 2" in lost.problem, lost
    # a lone configuration breaks the mirror pairing and the Euler characteristic
    lone = gate.check(lengths, full[:3], betti=betti)
    assert lone.wrong and "mirror pairing" in lone.problem and "chi" in lone.problem, lone
    # flags on a generic linkage are a refusal, unless agreement also fails
    flagged = [c._replace(flagged=True, index=None) if i == 0 else c for i, c in enumerate(full)]
    refused = gate.check(lengths, flagged, betti=betti)
    assert not refused.wrong and refused.problem == "1 flagged configurations", refused
    disagree = [c._replace(agree=False) if i == 1 else c for i, c in enumerate(flagged)]
    assert gate.check(lengths, disagree, betti=betti).wrong
    # a wall linkage passes only with a flag
    assert gate.check([1.0] * 6, full).wrong
    assert gate.check([1.0] * 6, flagged) is None


def check_self_time():
    # op 0:  root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    # op 1:  lone [20, 21]
    spans = [
        Span(2, 1, 0, "a1", 2.0, 3.0, None),
        Span(1, 0, 0, "a", 1.0, 4.0, None),
        Span(3, 0, 0, "b", 5.0, 9.0, None),
        Span(0, None, 0, "root", 0.0, 10.0, None),
        Span(4, None, 1, "lone", 20.0, 21.0, "ValueError"),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.0}, own
    stats = summarize(spans + [Span(5, 3, 0, "a", 6.0, 8.5, None)])
    assert stats["a"].calls == 2 and stats["a"].total_s == 5.5, stats["a"]
    assert stats["b"].self_s == 1.5, stats["b"]
    # overlapping children are covered once
    overlap = [Span(1, 0, 0, "x", 1.0, 3.0, None), Span(2, 0, 0, "y", 2.0, 5.0, None),
               Span(0, None, 0, "p", 0.0, 6.0, None)]
    assert self_times(overlap)[0] == 2.0


def check_clock():
    clock = Clock()
    clock.times, clock.slowness = [10.0, 20.0], [1.0, 3.0]
    # held constant outside the calibrations, interpolated between them
    assert clock.seconds(0.0, 4.0) == 4.0
    assert clock.seconds(30.0, 33.0) == 1.0
    assert abs(clock.seconds(14.0, 16.0) - 1.0) < 1e-12
    # an interval across a calibration is cut there
    assert abs(clock.seconds(8.0, 12.0) - (2.0 + 2.0 / 1.2)) < 1e-12


def check_smoke(trace: int):
    """Every workload at smoke size runs, exits 0 and is correct."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke",
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0, proc.stdout
    # the known defects are probed and reported, not counted
    assert proc.stdout.count("known defect enum_small") == 3, proc.stdout


def main(argv) -> int:
    checks = [("betti", check_betti), ("margins", check_margins), ("gate", check_gate),
              ("self time", check_self_time), ("clock", check_clock)]
    if "--no-smoke" not in argv:
        checks += [("smoke untraced", lambda: check_smoke(0)),
                   ("smoke traced", lambda: check_smoke(1))]
    for name, check in checks:
        check()
        print(f"PASS {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
