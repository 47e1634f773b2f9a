"""Acceptance suite: one test per criterion, printed pass lines included.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on stdout.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    chart_area,
    closure_values,
    edge_angles,
    random_linkage,
    random_valid_configuration,
)
from linkmorse import (
    Linkage,
    analyze_linkage,
    check_lemmas,
    deform,
    detect_events,
    signed_area,
)
from linkmorse.errors import NonGenericPathError
from linkmorse.oracle import _cross_rows, _gradient_rows, _jacobian_rows

R_PENTAGON = 1.0 / (2.0 * math.sin(math.pi / 5))     # 0.85065...
R_PENTAGRAM = 1.0 / (2.0 * math.sin(2 * math.pi / 5))  # 0.52573...

_CACHE = {}


def _index_multiset(analyses):
    return sorted(a.index for a in analyses)


def _batch_random_linkages():
    """Criterion 3 batch: 50 random generic linkages for each n in 4..7."""
    if "batch" not in _CACHE:
        start = time.perf_counter()
        batch = []
        for n in (4, 5, 6, 7):
            rng = np.random.default_rng(1000 + n)
            for _ in range(50):
                linkage = random_linkage(rng, n)
                batch.append((n, linkage, analyze_linkage(linkage)))
        _CACHE["batch"] = batch
        _CACHE["batch_seconds"] = time.perf_counter() - start
    return _CACHE["batch"], _CACHE["batch_seconds"]


def test_criterion_1_equilateral_pentagon():
    start = time.perf_counter()
    analyses = analyze_linkage(Linkage([1, 1, 1, 1, 1]))
    elapsed = time.perf_counter() - start

    assert len(analyses) == 14
    assert _index_multiset(analyses) == [0, 0] + [1] * 10 + [2, 2]
    radii = sorted({round(a.descriptor.radius, 12) for a in analyses})
    assert any(abs(r - R_PENTAGRAM) < 1e-9 for r in radii)
    assert any(abs(r - R_PENTAGON) < 1e-9 for r in radii)
    convex_like = [a for a in analyses if abs(a.descriptor.radius - R_PENTAGON) < 1e-9]
    stars = [a for a in analyses if abs(a.descriptor.radius - R_PENTAGRAM) < 1e-9]
    assert len(convex_like) == 2 and len(stars) == 2
    assert elapsed < 1.0, f"pentagon enumeration took {elapsed:.3f}s"
    print(f"ACCEPTANCE 1: PASS - 14 configurations, indices {{0x2, 1x10, 2x2}}, "
          f"radii match closed forms, {elapsed * 1e3:.0f} ms")


def test_criterion_2_quadrilateral_dichotomy():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    accepted = 0
    case_counts = {2: 0, 4: 0}
    while accepted < 100:
        linkage = random_linkage(rng, 4)
        analyses = analyze_linkage(linkage)
        if any(a.flags.any for a in analyses):
            continue  # near-degenerate, rejected by the criterion
        count = len(analyses)
        assert count in (2, 4), f"{linkage.lengths} yielded {count} configurations"
        indices = _index_multiset(analyses)
        assert indices == [0, 1] if count == 2 else indices == [0, 0, 1, 1]
        assert sum((-1) ** m for m in indices) == 0
        case_counts[count] += 1
        accepted += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"dichotomy suite took {elapsed:.2f}s"
    print(f"ACCEPTANCE 2: PASS - 100 linkages, {case_counts[2]} with 2 configurations, "
          f"{case_counts[4]} with 4, alternating sum always 0, {elapsed:.2f} s")


def test_criterion_3_formula_oracle_equivalence():
    batch, elapsed = _batch_random_linkages()
    total = 0
    flagged = 0
    for n, linkage, analyses in batch:
        total += len(analyses)
        flagged += int(analyses.flagged.sum())
        for j in np.flatnonzero(~analyses.flagged):
            assert analyses.oracle_error[j] is None and analyses.inertia[j, 1] == 0, \
                f"oracle degenerate on unflagged configuration of {linkage.lengths}"
            assert analyses.residual[j] < 1e-8, \
                f"criticality residual {analyses.residual[j]:.2e}"
            assert analyses.morse_error[j] is None, \
                f"formula failed on unflagged configuration: {analyses.morse_error[j]}"
            assert analyses.h_sign[j] == analyses.det_sign[j], \
                f"determinant sign mismatch on {linkage.lengths}"
            assert analyses.formula_index[j] == analyses.oracle_index[j], \
                f"index mismatch on {linkage.lengths}"
    assert flagged <= 0.05 * total, f"{flagged}/{total} flagged"
    assert elapsed < 60.0, f"criterion 3 batch took {elapsed:.1f}s"
    print(f"ACCEPTANCE 3: PASS - {total - flagged}/{total} non-flagged configurations "
          f"agree 100% across n=4..7 ({flagged} flagged), {elapsed:.1f} s")


def test_criterion_4_convex_maximality():
    batch, _ = _batch_random_linkages()
    for n, linkage, analyses in batch:
        convex = [a for a in analyses if a.convex]
        assert len(convex) == 1, f"{linkage.lengths}: {len(convex)} convex configurations"
        best = convex[0]
        areas = [a.area for a in analyses]
        assert best.area == pytest.approx(max(areas), abs=1e-12 * linkage.lengths.sum() ** 2)
        assert best.index == n - 3
        lowest = min(analyses, key=lambda a: a.area)
        assert lowest.index == 0
        assert lowest.descriptor.eps.eps == tuple(-v for v in best.descriptor.eps.eps)
        assert lowest.descriptor.winding == -best.descriptor.winding
        assert lowest.area == pytest.approx(-best.area, rel=1e-9)
    print(f"ACCEPTANCE 4: PASS - convex configuration is the unique area maximum "
          f"with index n-3 (mirror minimal, index 0) on all {len(batch)} linkages")


def test_criterion_5_deformation_lemmas():
    rng = np.random.default_rng(555)
    paths_done = 0
    events_total = {"flip": 0, "central": 0, "delta_zero": 0}
    frames_checked = 0
    while paths_done < 20:
        n = 5 if paths_done % 2 == 0 else 6
        theta_a = np.cumsum(rng.uniform(-2.5, 2.5, size=n))
        theta_b = np.cumsum(rng.uniform(-2.5, 2.5, size=n))
        path = deform(theta_a, theta_b, 1.0, steps=2000)
        try:
            events = detect_events(path)
        except NonGenericPathError:
            continue  # genericity exclusion; resample
        report = check_lemmas(path, events)
        assert report.ok, report.violations
        for event in events:
            events_total[event.kind] += 1
        frames_checked += report.frames_checked
        paths_done += 1
    assert sum(events_total.values()) > 0
    print(f"ACCEPTANCE 5: PASS - 20 paths, events {events_total}, "
          f"{frames_checked} generic frames, zero violations")


def test_criterion_6_numerical_hygiene():
    rng = np.random.default_rng(99)
    h = 1e-6
    worst_grad = 0.0
    worst_jac = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 8))
        linkage, config = random_valid_configuration(rng, n)
        pts = config.points
        # the oracle's chart: the edge angles phi_2..phi_n about the pinned phi_1
        phi = edge_angles(pts)

        def with_free(vec):
            out = phi.copy()
            out[1:] = vec
            return out

        grad = _gradient_rows(pts[None])[0]
        jac = _jacobian_rows(_cross_rows(pts[None])[0])[0]
        scale_g = max(1.0, float(np.linalg.norm(grad)))
        scale_j = max(1.0, float(np.linalg.norm(jac)))
        for j in range(phi.size - 1):
            step = np.zeros(phi.size - 1)
            step[j] = h
            fd_g = (chart_area(linkage.lengths, with_free(phi[1:] + step))
                    - chart_area(linkage.lengths, with_free(phi[1:] - step))) / (2 * h)
            worst_grad = max(worst_grad, abs(fd_g - grad[j]) / scale_g)
            fd_col = (closure_values(linkage.lengths, with_free(phi[1:] + step))
                      - closure_values(linkage.lengths, with_free(phi[1:] - step))) / (2 * h)
            worst_jac = max(worst_jac, float(np.max(np.abs(fd_col - jac[:, j]))) / scale_j)
    assert worst_grad < 1e-8, f"gradient FD mismatch {worst_grad:.2e}"
    assert worst_jac < 1e-8, f"jacobian FD mismatch {worst_jac:.2e}"

    batch, _ = _batch_random_linkages()
    worst_closure = 0.0
    for n, linkage, analyses in batch:
        # the angular closure |sum 2 eps_i alpha_i - 2 pi k|, scaled to a length
        turns = (analyses.eps * analyses.alphas).sum(axis=1)
        defect = np.abs(2.0 * turns - 2.0 * math.pi * analyses.k) * analyses.radius
        worst_closure = max(worst_closure, float(defect.max()) / linkage.lengths.sum())
    assert worst_closure < 1e-9, f"closure defect {worst_closure:.2e} of perimeter"
    print(f"ACCEPTANCE 6: PASS - FD gradient {worst_grad:.1e}, FD jacobian {worst_jac:.1e}, "
          f"closure {worst_closure:.1e} of perimeter")
