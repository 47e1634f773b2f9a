"""Layered benchmark of linkmorse.

Run from the root of a source checkout:

    python3 bench/run.py --workload enum_large --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 18   # every workload
    python3 bench/run.py --workload all --smoke --seconds 1     # seconds-long smoke

Each workload runs in one process with one closed-loop caller: the next op
starts only when the previous one has returned, and no other thread or
process adds load.  Inputs come only from ``--seed``.  Every op's output
passes through the correctness gate in ``gate.py``; an op fails when it
raises, is refused, or fails the gate.

Times are wall-clock times rescaled to a reference host speed measured
between ops (``calibrate.py``), so that a neighbour's load on a shared host
does not read as a change of the program.

``--trace 0`` times ops untraced for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` replays a fixed op list alternately
untraced and traced (``spans.py``) until at least two traced passes and
``--seconds`` have passed, reports the per-layer metrics, checks that every
count repeats exactly between passes, and writes the last pass's spans to
``.bench_out/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout and nowhere else: in
a directory without it the benchmark exits with code 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import Failure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
# The keys of workloads.WORKLOADS, known before the program is imported.
WORKLOAD_NAMES = ("enum_large", "enum_small", "verify_replay", "deform_paths")

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3

# Times ``import linkmorse`` in a fresh interpreter, at reference speed.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
t0 = time.perf_counter()
import linkmorse
t1 = time.perf_counter()
import calibrate
print((t1 - t0) / calibrate.measure())
"""

MAX_FAIL_LINES = 12

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class ProgramMissing(Exception):
    pass


def import_program():
    """Import linkmorse from this checkout's ``src/`` and the benchmark's
    modules; refuse any other copy of the package."""
    src = ROOT / "src"
    if not (src / "linkmorse" / "__init__.py").is_file():
        raise ProgramMissing(f"no linkmorse sources under {src}")
    sys.path.insert(0, str(src))
    import linkmorse

    where = Path(linkmorse.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ProgramMissing(f"linkmorse imported from {where}, not from {src}")
    import calibrate
    import spans
    import workloads

    return spans, workloads, calibrate


class Tally:
    """Outcomes of the ops of one run or pass.

    A failed op is a refusal (the program declined: a refusal exception, or
    flags on a generic linkage) or wrong: only wrong ops make a run
    incorrect.  The workloads' inputs are chosen so that no op fails.
    """

    def __init__(self):
        self.intervals: list = []
        self.failed = 0
        self.wrong = 0
        self.problems: dict = {}

    @property
    def attempted(self) -> int:
        return len(self.intervals)

    def wall(self) -> float:
        return sum(t1 - t0 for t0, t1 in self.intervals)

    def record(self, op, t0: float, t1: float, failure):
        self.intervals.append((t0, t1))
        if failure is None:
            return
        self.failed += 1
        if failure.wrong:
            kind = "WRONG"
            self.wrong += 1
        else:
            kind = "refused"
        key = (kind, op.label, failure.problem)
        self.problems[key] = self.problems.get(key, 0) + 1

    def latencies(self, clock) -> list:
        """Op times in seconds at the reference host speed."""
        return [clock.seconds(t0, t1) for t0, t1 in self.intervals]

    def merge(self, other: "Tally"):
        self.intervals += other.intervals
        self.failed += other.failed
        self.wrong += other.wrong
        for key, count in other.problems.items():
            self.problems[key] = self.problems.get(key, 0) + count


def run_op(op, workload, tally: Tally, clock, tracer=None, op_id=None):
    """Run one op: calibrate if due, prepare and gate untraced, time only
    the call."""
    clock.due()
    inp = op.prepare()
    if tracer is not None:
        tracer.op, tracer.active = op_id, True
    t0 = time.perf_counter()
    try:
        out = op.call(inp)
        failure = None
    except workload.refusals as exc:
        failure = Failure(f"refused: {type(exc).__name__}: {exc}", wrong=False)
    except Exception as exc:  # any other raise is a failed op, not a crash
        failure = Failure(f"raised {type(exc).__name__}: {exc}", wrong=True)
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.active = False
    if failure is None:
        failure = op.check(out)
    tally.record(op, t0, t1, failure)


def import_seconds(repeats: int) -> float:
    """Median time to import the package, each time in a fresh interpreter
    (a process can import a module only once), at reference speed."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def setup(workload, seed: int, smoke: bool, clock, workdirs: list):
    """Set the workload up (inputs and one warm-up op) SETUP_REPEATS times;
    returns the last set-up and each one's time at reference speed."""
    import numpy as np

    intervals = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        workdir = OUT / f"{workload.name}-{seed}-{time.time_ns()}"
        workdirs.append(workdir)
        clock.calibrate()
        t0 = time.perf_counter()
        workdir.mkdir(parents=True)
        prepared = workload.setup(np.random.default_rng(seed), workdir, smoke, clock.due)
        warm = prepared.warmup
        warm.call(warm.prepare())
        intervals.append((t0, time.perf_counter()))
    clock.calibrate()
    return prepared, [clock.seconds(t0, t1) for t0, t1 in intervals]


def run_probes(prepared, workload, clock):
    """Run and gate each known-defect probe once, untimed, and print its
    outcome; probes are not ops, so they count in no metric."""
    for op in prepared.probes:
        tally = Tally()
        run_op(op, workload, tally, clock)
        outcome = "still fails: " + next(iter(tally.problems))[2] if tally.failed else "now passes"
        print(f"  known defect {workload.name} {op.label}: {outcome}")


def untraced_run(prepared, workload, seconds: float, clock) -> Tally:
    tally = Tally()
    ops = prepared.ops
    start = time.perf_counter()
    i = 0
    while i < 2 or time.perf_counter() - start < seconds:
        run_op(ops[i % len(ops)], workload, tally, clock)
        i += 1
    clock.calibrate()
    return tally


def end_to_end(tally: Tally, clock, setup_s: float) -> dict:
    lat = tally.latencies(clock)
    ms = [1e3 * v for v in lat]
    return {
        "setup_s": setup_s,
        "ops_per_s": tally.attempted / sum(lat),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "pass_ratio": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(prepared, workload, seconds: float, clock, spans_mod, seed: int):
    """Alternate untraced and traced passes over the fixed traced op list.

    Span times are rescaled to reference speed by the pass's mean host
    slowness, like the op times.
    """
    ops = prepared.traced
    tally = Tally()
    untraced_s, traced_s, passes = [], [], []
    tracer = spans_mod.Tracer()
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < seconds:
        plain = Tally()
        for op in ops:
            run_op(op, workload, plain, clock)
        clock.calibrate()
        untraced_s.append(sum(plain.latencies(clock)))
        traced = Tally()
        tracer.reset()
        tracer.install()
        try:
            for i, op in enumerate(ops):
                run_op(op, workload, traced, clock, tracer, i)
        finally:
            tracer.uninstall()
        clock.calibrate()
        traced_s.append(sum(traced.latencies(clock)))
        slowness = traced.wall() / traced_s[-1]
        layer = spans_mod.layer_metrics(tracer.spans, tracer.tally)
        for name, value in layer.items():
            if spans_mod.LAYER_UNITS[name] == "s":
                layer[name] = value / slowness
        layer["trace.coverage"] = spans_mod.top_level_seconds(tracer.spans) / traced.wall()
        passes.append(layer)
        tally.merge(plain)
        tally.merge(traced)

    mismatched = [name for name in passes[0] if spans_mod.is_exact(name)
                  and any(p[name] != passes[0][name] for p in passes[1:])]
    metrics = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        metrics[name] = values[0] if spans_mod.is_exact(name) else statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(untraced_s)
    metrics = {name: metrics[name] for name in spans_mod.LAYER_UNITS}

    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.json.gz",
                 {"workload": workload.name, "seed": seed, "ops": [op.label for op in ops]})
    return tally, metrics, len(passes), mismatched


def report(name: str, tally: Tally, metrics: dict, units: dict, samples: dict, correct: bool):
    problems = sorted(tally.problems.items())
    for (kind, label, problem), count in problems[:MAX_FAIL_LINES]:
        print(f"  fail [{kind}] {name} {label} x{count}: {problem}")
    if len(problems) > MAX_FAIL_LINES:
        print(f"  ... {len(problems) - MAX_FAIL_LINES} more failing ops")
    print(f"  {name}: attempted {tally.attempted}, failed {tally.failed}, "
          f"fail_ratio {tally.failed / tally.attempted:.4f}, correct {correct}")
    for key, value in metrics.items():
        print(f"  {name} {key:40s} {value:>16.6g} {units[key]:6s} n={samples[key]}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def run_workload(args) -> int:
    try:
        spans_mod, workloads, calibrate = import_program()
    except (ImportError, ProgramMissing) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    clock = calibrate.Clock()
    workload = workloads.WORKLOADS[args.workload]
    workdirs: list = []
    try:
        prepared, setup_times = setup(workload, args.seed, args.smoke, clock, workdirs)
        setup_s = (import_seconds(1 if args.smoke else SETUP_REPEATS)
                   + statistics.median(setup_times))
        print(f"  {workload.name}: set-up dropped {prepared.skipped} random inputs "
              f"within the genericity margin")
        run_probes(prepared, workload, clock)
        if args.trace:
            tally, metrics, passes, mismatched = traced_run(
                prepared, workload, args.seconds, clock, spans_mod, args.seed)
            for name in mismatched:
                print(f"  counter {name} differs between traced passes", file=sys.stderr)
            correct = tally.wrong == 0 and not mismatched
            report(workload.name, tally, metrics, spans_mod.LAYER_UNITS,
                   dict.fromkeys(metrics, passes), correct)
        else:
            tally = untraced_run(prepared, workload, args.seconds, clock)
            metrics = end_to_end(tally, clock, setup_s)
            ops = tally.attempted
            samples = {"setup_s": len(setup_times), "ops_per_s": ops, "op_p50_ms": ops,
                       "op_p90_ms": ops, "pass_ratio": ops, "peak_rss_mb": 1}
            report(workload.name, tally, metrics, END_TO_END_UNITS, samples,
                   tally.wrong == 0)
    finally:
        for workdir in workdirs:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_all(args) -> int:
    """Run every workload, each in its own process, one after another."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}")
            status = proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    if len(results) == len(WORKLOAD_NAMES):
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up, so every workload runs in seconds")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
