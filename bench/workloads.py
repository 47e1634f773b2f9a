"""The benchmark's workloads: seeded inputs, the op each one times, and the
gate each op's output must pass.

Every op goes through the same public entry point a user would call, looked
up as a module attribute at call time so that the traced run sees it:

- ``enum_large``: ``analysis.analyze_linkage`` on random generic linkages at
  n = 10, where the O(2^n) scan and the O(N^2) dedup dominate;
- ``enum_small``: ``linkmorse enumerate`` through ``cli.main`` on small
  linkages and fixed fixtures, where per-call fixed cost dominates;
- ``verify_replay``: ``linkmorse verify`` through ``cli.main``, one op per
  artifact enumerated during set-up, so no solver code is timed;
- ``deform_paths``: ``detect_events`` plus ``check_lemmas`` on random
  fixed-circle paths, the only workload that reaches ``deform``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gate
from linkmorse import analysis, cli
from linkmorse.errors import LinkmorseError, NonGenericPathError
from linkmorse.geometry import Linkage

# The package re-exports the function ``deform`` under the submodule's name.
deform = importlib.import_module("linkmorse.deform")


def _no_input():
    return None


@dataclass
class Op:
    """One call of a workload's entry point.

    ``prepare`` builds the call's argument and ``check`` gates its output;
    only ``call`` is timed.  ``check`` returns None when the output passes,
    otherwise a :class:`gate.Failure`.
    """

    label: str
    call: Callable
    check: Callable
    prepare: Callable = _no_input


@dataclass
class Prepared:
    """A workload after set-up: the op cycle, a warm-up op, the fixed op
    list of the traced run, the known-defect probes (run once per run, gated,
    reported, and neither timed nor counted as ops), and how many random
    inputs set-up drew and dropped for lying within the genericity margin."""

    ops: list
    warmup: Op
    traced: list
    probes: list = ()
    skipped: int = 0


@dataclass(frozen=True)
class Workload:
    """``setup(rng, workdir, smoke, tick)`` builds the inputs; a long set-up
    calls ``tick()`` between pieces so the runner can calibrate."""

    name: str
    setup: Callable
    # Exceptions that mean the program refused the input: counted as failed
    # ops, but not as wrong answers.
    refusals: tuple = ()


# A fixed generic pentagon: warm-up ops must not fail, so they take no
# seeded input.
WARMUP_LENGTHS = [1.0, 1.2, 1.4, 1.1, 0.9]


# Random linkages keep this distance (in angle) from the diameter wall; see
# diameter_margin.
DIAMETER_MARGIN = 1e-3


def diameter_margin(lengths) -> float:
    """How far a linkage lies from the diameter wall: the least distance
    from ``sum eps_i asin(l_i / l_max)`` to a multiple of pi over all sign
    strings.

    That sum is the closure function of the string at the minimum radius,
    where the longest edge is a diameter.  Near it, a root lies within
    ``(distance^2 / 2)`` relative of the minimum radius, and the solver flags
    any root within 1e-7 relative (distance below about 3.2e-4) as
    ``central``.  About one random n = 10 linkage in twelve is that close;
    it is a degenerate input, not a miscount, so the workloads draw
    linkages at least :data:`DIAMETER_MARGIN` away.
    """
    lengths = np.asarray(lengths, dtype=float)
    n = lengths.size
    signs = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1) * 2.0 - 1.0
    sums = signs @ np.arcsin(np.clip(lengths / lengths.max(), 0.0, 1.0))
    return float(np.min(np.abs(sums - math.pi * np.round(sums / math.pi))))


def random_lengths(rng, n, skipped: list, lo=0.5, hi=2.0, margin=0.98) -> list:
    """Closable random lengths kept away from the degenerate boundary (the
    rule the test suite uses) and from the diameter wall; each draw dropped
    for the latter is appended to ``skipped``."""
    while True:
        lengths = rng.uniform(lo, hi, size=n)
        if 2.0 * lengths.max() >= margin * lengths.sum():
            continue
        if diameter_margin(lengths) < DIAMETER_MARGIN:
            skipped.append(lengths)
            continue
        return [float(v) for v in lengths]


# Candidates drawn per linkage kept by stratified_lengths.
STRATUM_DRAWS = 4


def stratified_lengths(rng, n, count: int, skipped: list) -> list:
    """``count`` random linkages (see random_lengths), one from each of
    ``count`` strata of the sum of the Betti numbers, ordered so that every
    prefix spreads over the strata.

    An op's time follows the number of critical points, which follows the
    Betti sum: their correlation is about 0.8 at n = 9 and 10, where one
    linkage's time varies by 21%.  One linkage per stratum, in place of
    ``count`` independent ones, keeps most of that variation from one seed
    to the next out of the figures, and draws from the same distribution.
    """
    pool = sorted((random_lengths(rng, n, skipped) for _ in range(STRATUM_DRAWS * count)),
                  key=lambda lengths: sum(gate.betti_numbers(lengths)))
    bits = max(1, (count - 1).bit_length())
    # bit-reversed order: strata 0, count/2, count/4, 3 count/4, ...
    order = sorted(range(count), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))
    return [pool[STRATUM_DRAWS * i + int(rng.integers(STRATUM_DRAWS))] for i in order]


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _memoized(check):
    """Gate each distinct output text once: the program is deterministic, so
    an identical output gets an identical verdict."""
    seen: dict = {}

    def wrapped(text):
        if text not in seen:
            seen[text] = check(text)
        return seen[text]

    return wrapped


class _Linkage:
    """Lengths with their gate data, computed once during set-up."""

    def __init__(self, lengths):
        self.lengths = list(lengths)
        self.wall = gate.is_wall(self.lengths)
        self.betti = None if self.wall else gate.betti_numbers(self.lengths)

    def check(self, criticals):
        return gate.check(self.lengths, criticals, betti=self.betti, wall=self.wall)


# ---------------------------------------------------------------------------
# enum_large


def _setup_enum_large(rng, workdir: Path, smoke: bool, tick) -> Prepared:
    n, pool, traced = (6, 4, 1) if smoke else (10, 32, 2)

    def make(label, lengths):
        item = _Linkage(lengths)
        linkage = Linkage(np.asarray(lengths))

        def check(analyses):
            return item.check([
                gate.Critical(a.descriptor.eps.eps, a.descriptor.winding,
                              a.descriptor.radius, a.index, a.flags.any, a.agree)
                for a in analyses])

        return Op(label, call=lambda _: analysis.analyze_linkage(linkage), check=check)

    skipped: list = []
    ops = [make(f"n={n} #{i}", lengths)
           for i, lengths in enumerate(stratified_lengths(rng, n, pool, skipped))]
    return Prepared(ops=ops, warmup=make("warm-up", WARMUP_LENGTHS), traced=ops[:traced],
                    skipped=len(skipped))


# ---------------------------------------------------------------------------
# enum_small

FIXTURES = (("equilateral_5", [1.0] * 5),)

# Fixtures that fail the gate when the benchmark was added, for documented
# program defects.  They are probes, not ops: a workload's ops must not fail.
KNOWN_DEFECTS = (
    # wall linkage (1+1+1-1-1-1 = 0): every balanced E at k = 0 is a critical
    # family, yet 16 configurations come back unflagged
    ("equilateral_6", [1.0] * 6),
    # the radius cap loses a root pair: c_0 = 1 < b_0 = 2
    ("quad_wall_1e-8", [1.0, 2.0, 1.5, 2.5 - 1e-8]),
    # absolute tolerances flag 4 configurations, one of them spurious
    ("quad_wall_1e-6", [1.0, 2.0, 1.5, 2.5 - 1e-6]),
)


def _enumerate_op(label, lengths, workdir: Path) -> Op:
    item = _Linkage(lengths)
    linkage = Linkage(np.asarray(lengths))
    stem = label.replace(" ", "_").replace("=", "").replace("#", "")
    src, dst = workdir / f"{stem}.in.json", workdir / f"{stem}.out.json"
    src.write_text(json.dumps({"lengths": lengths}))
    argv = ["enumerate", "-i", str(src), "-o", str(dst)]

    @_memoized
    def check_artifact(text):
        records = json.loads(text)["configurations"]
        rows, _, _ = analysis.verify_enumeration(linkage, records)
        return item.check([
            gate.Critical(rec["eps"], rec["k"], rec["r"], row.index, row.flagged, row.agree)
            for rec, row in zip(records, rows)])

    def call(_):
        rc, _, err = _run_cli(argv)
        return rc, err

    def check(output):
        rc, err = output
        if rc == 0:
            return check_artifact(dst.read_text())
        if rc == 2 and item.wall:
            return None
        return gate.Failure(f"enumerate exited {rc}: {err.strip()}", wrong=rc != 2)

    return Op(label, call=call, check=check)


# Random linkages per n.  The op latency clusters by n, so the counts put
# the median in the middle of the n = 6 cluster and the 90th percentile in
# the n = 7 cluster, where a quantile is steady, not on a gap between two.
SMALL_COUNTS = {4: 6, 5: 8, 6: 14, 7: 16}


def _setup_enum_small(rng, workdir: Path, smoke: bool, tick) -> Prepared:
    counts = dict.fromkeys(SMALL_COUNTS, 1) if smoke else SMALL_COUNTS
    skipped: list = []
    inputs = [(f"n={n} #{i}", lengths) for n, count in counts.items()
              for i, lengths in enumerate(stratified_lengths(rng, n, count, skipped))]
    inputs += list(FIXTURES)
    ops = [_enumerate_op(*inputs[i], workdir) for i in rng.permutation(len(inputs))]
    warmup = _enumerate_op("warm-up", WARMUP_LENGTHS, workdir)
    probes = [_enumerate_op(*fixture, workdir) for fixture in KNOWN_DEFECTS]
    return Prepared(ops=ops, warmup=warmup, traced=ops, probes=probes, skipped=len(skipped))


# ---------------------------------------------------------------------------
# verify_replay


# Artifacts per n: the median op falls mid n = 8 cluster and the 90th
# percentile mid n = 9 cluster (see SMALL_COUNTS).
VERIFY_COUNTS = {7: 6, 8: 12, 9: 8}


def _setup_verify_replay(rng, workdir: Path, smoke: bool, tick) -> Prepared:
    counts = {5: 1, 6: 1} if smoke else VERIFY_COUNTS
    ops = []
    skipped: list = []
    for n, count in counts.items():
        for i, lengths in enumerate(stratified_lengths(rng, n, count, skipped)):
            tick()
            item = _Linkage(lengths)
            label = f"n{n}_{i}"
            src, dst = workdir / f"{label}.in.json", workdir / f"{label}.out.json"
            src.write_text(json.dumps({"lengths": lengths}))
            rc, _, err = _run_cli(["enumerate", "-i", str(src), "-o", str(dst)])
            if rc == 0:
                records = json.loads(dst.read_text())["configurations"]
                ops.append(_verify_op(label, dst, item, records))
            else:
                ops.append(_refused_op(f"verify {label}",
                                       f"set-up enumerate exited {rc}: {err.strip()}"))
    return Prepared(ops=ops, warmup=ops[0], traced=ops, skipped=len(skipped))


def _refused_op(label, problem) -> Op:
    """Stands in for an input the program refused during set-up: the op
    does nothing and fails as a refusal every time it runs."""
    return Op(label, call=lambda _: None,
              check=lambda _: gate.Failure(f"refused: {problem}", wrong=False))


def _verify_op(label, artifact: Path, item: _Linkage, records) -> Op:
    argv = ["verify", "-i", str(artifact)]

    def call(_):
        return _run_cli(argv)

    @_memoized
    def check_rows(out):
        rows = [json.loads(line) for line in out.splitlines()[:-1]]
        if len(rows) != len(records):
            return gate.Failure(f"verify printed {len(rows)} rows for {len(records)} records",
                                wrong=True)
        return item.check([
            gate.Critical(rec["eps"], rec["k"], rec["r"], row["index"], row["flagged"], row["agree"])
            for rec, row in zip(records, rows)])

    def check(output):
        rc, out, err = output
        if rc != 0:
            return gate.Failure(f"verify exited {rc}: {err.strip()}", wrong=True)
        return check_rows(out)

    return Op(f"verify {label}", call=call, check=check)


# ---------------------------------------------------------------------------
# deform_paths

FRAMES = 2000

# Paths keep their events at least this many frames apart; see event_times.
EVENT_SEPARATION = 3


def event_times(start, end, frames: int) -> np.ndarray:
    """Times of the events of the linear path from ``start`` to ``end``,
    found without the program, sorted.

    The gaps ``D_i(t)`` are linear in t, so edge events (``sin D_i = 0``:
    flips at even multiples of pi, central crossings at odd ones) have
    closed forms.  Zeros of ``delta(t) = sum tan(D_i / 2)`` are sign changes
    on a grid twice as fine as the frames, away from the poles at central
    crossings.  ``detect_events`` refuses a path with two events closer
    than one frame; about 1.5% of random paths are such non-generic inputs.
    """
    a = np.append(np.diff(start), start[0] - start[-1])
    b = np.append(np.diff(end), end[0] - end[-1]) - a
    edge, central = [], []
    for ai, bi in zip(a, b):
        lo, hi = sorted((ai, ai + bi))
        for m in range(math.ceil(lo / math.pi), math.floor(hi / math.pi) + 1):
            (central if m % 2 else edge).append((m * math.pi - ai) / bi)
    ts = np.linspace(0.0, 1.0, 2 * frames)
    delta = np.tan(0.5 * (a[None, :] + ts[:, None] * b[None, :])).sum(axis=1)
    zeros = 0.5 * (ts[:-1] + ts[1:])[np.sign(delta[:-1]) * np.sign(delta[1:]) < 0.0]
    if central:
        zeros = zeros[np.min(np.abs(zeros[:, None] - np.array(central)[None, :]), axis=1)
                      > 2.0 * (ts[1] - ts[0])]
    return np.sort(np.concatenate([edge, central, zeros]))


def _setup_deform_paths(rng, workdir: Path, smoke: bool, tick) -> Prepared:
    pool, traced = (16, 8) if smoke else (1500, 60)
    skipped = 0

    def make(i):
        nonlocal skipped
        n = 6 + i % 3
        while True:
            start = np.cumsum(rng.uniform(-2.5, 2.5, size=n))
            end = np.cumsum(rng.uniform(-2.5, 2.5, size=n))
            if np.all(np.diff(event_times(start, end, FRAMES)) >= EVENT_SEPARATION / (FRAMES - 1)):
                break
            skipped += 1

        def call(path):
            events = deform.detect_events(path)
            return deform.check_lemmas(path, events)

        def check(report):
            if report.ok:
                return None
            return gate.Failure(f"lemma violations: {report.violations[0]}", wrong=True)

        return Op(f"path {i} n={n}", call=call, check=check,
                  prepare=lambda: deform.deform(start, end, 1.0, steps=FRAMES))

    ops = [make(i) for i in range(pool)]
    warmup = make(pool)
    return Prepared(ops=ops, warmup=warmup, traced=ops[:traced], skipped=skipped)


WORKLOADS = {
    w.name: w for w in (
        # the library's own errors; through the CLI they are exit code 2
        Workload("enum_large", _setup_enum_large, refusals=(LinkmorseError,)),
        Workload("enum_small", _setup_enum_small),
        Workload("verify_replay", _setup_verify_replay),
        Workload("deform_paths", _setup_deform_paths, refusals=(NonGenericPathError,)),
    )
}
