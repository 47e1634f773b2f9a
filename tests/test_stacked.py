"""The stacked analysis kernels: a stack's rows do not depend on what else
it holds or where the chunks split it, refusals keep their text, the edge
cases of the stack shapes, and the per-row loops they replaced as
references."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import edge_lengths, pin_points, random_linkage, random_valid_configuration
from linkmorse import Linkage, analyze_linkage, enumerate_cyclic
from linkmorse import analysis, geometry, morse, oracle, solver

GAP = 1e-4
# Near-central hexagon: its longest edge is about GAP from a diameter at two
# roots (cos(alpha_1) ~ 1e-4), far above the central flag, so they are analysed.
THIN_HEXAGON = [2 * math.sin(math.pi / 2 - GAP), 2 * math.sin(0.2), 2 * math.sin(0.2),
                2 * math.sin(0.3), 2 * math.sin(0.3), 2 * math.sin(math.pi / 2 - 1.0 - GAP)]

# Per n, linkages whose configurations together give these kinds of rows:
# (index source, flagged).
MIXED = {
    3: ([[1, 1, 1], [1.9, 1.0, 1.0]], {("formula", False)}),
    4: ([[1, 2, 1.5, 2.5 - 1e-8], [1, 1, 1, 1], [3, 1, 1, 2]],
        {("formula", False), (None, True)}),
    6: ([[1] * 6, [1, 2, 1, 2, 1, 2], THIN_HEXAGON, [1, 2, 1.5, 2.5 - 1e-8, 1, 1]],
        {("formula", False), (None, True)}),
}


def _verdicts(pts):
    """The per-row verdicts of a stack's oracle columns as plain comparable
    values: ``(multipliers, residual, inertia, det_sign)``, or the row's
    refusal text."""
    multipliers, residual, inertia, det_sign, errors = oracle._verdict_rows(pts)
    return [(multipliers[j].tolist(), float(residual[j]), tuple(inertia[j].tolist()),
             int(det_sign[j])) if error is None else error for j, error in enumerate(errors)]


def _kernel(eps, k, alphas, points, centers, radii, flagged):
    """The analysis columns of a stack: the closed form of its unflagged
    descriptors and the oracle's verdict on every row, through the column
    builder, and the columns of the closed form measured from every row's
    points, prefixed ``measured_``."""
    live = ~flagged
    form = morse._closed_form_rows(eps[live], k[live], alphas[live])
    columns = analysis._analysis_columns(flagged, form, oracle._verdict_rows(points))
    measured = morse._measured_rows(points, centers, radii)
    return dict(columns, **{f"measured_{name}": value
                            for name, value in measured._asdict().items()})


def _same(a, b) -> bool:
    """Columns equal entry for entry, NaN equal to NaN."""
    if a.dtype == object:
        return a.tolist() == b.tolist()
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("n", sorted(MIXED))
def test_mixed_stack_equals_per_linkage_stacks(n):
    lengths, kinds = MIXED[n]
    tables = [enumerate_cyclic(Linkage(ls)) for ls in lengths]
    fields = ("eps", "k", "alphas", "points", "center", "radius", "flagged")
    # the kernels read everything off the descriptors, points, circles and
    # flags, so the configurations of several linkages with n edges share a stack
    stacked = _kernel(*(np.concatenate([getattr(t, f) for t in tables]) for f in fields))
    groups = [_kernel(*(getattr(t, f) for f in fields)) for t in tables]
    for name, column in stacked.items():
        assert _same(column, np.concatenate([group[name] for group in groups])), name
    analyses = [a for ls in lengths for a in analyze_linkage(Linkage(ls))]
    assert {(a.index_source, a.flags.any) for a in analyses} == kinds
    if n == 3:
        # the tangent space is empty: no eigenvalues, inertia (0, 0, 0)
        assert not stacked["inertia"].any()
    if n == 4:
        # no prefix subconfiguration: the sequence is P_3 and P_4 alone
        assert stacked["h_sequence"].shape[1] == 2


def test_stack_across_chunk_boundaries(monkeypatch):
    linkage = random_linkage(np.random.default_rng(5), 10)
    # chunks of 7 rows: the oracle, the one chunked kernel, takes the roots
    # in more than ten chunks
    monkeypatch.setattr(analysis, "_CHUNK", 7 * linkage.n ** 2)
    chunked = analyze_linkage(linkage)
    assert (~chunked.flagged & (chunked.eps[:, 0] > 0)).sum() > 70
    # one chunk: a single stack of every configuration of the linkage
    monkeypatch.setattr(analysis, "_CHUNK", 2 ** 40)
    whole = analyze_linkage(linkage)
    for field in dataclasses.fields(whole):
        assert _same(getattr(chunked, field.name), getattr(whole, field.name)), field.name
    # the column builder on the whole stack with the oracle run on every row:
    # the root rows equal it exactly, and the mirror rows, whose verdicts
    # analyze_linkage derives from their roots', equal it up to their
    # residual and multipliers
    live = ~whole.flagged
    form = morse._closed_form_rows(whole.eps[live], whole.k[live], whole.alphas[live])
    kernel = analysis._analysis_columns(np.zeros(live.sum(), dtype=bool), form,
                                        oracle._verdict_rows(whole.points[live]))
    root = whole.eps[live, 0] > 0
    for name, column in kernel.items():
        if name in ("residual", "multipliers"):
            assert _same(column[root], getattr(whole, name)[live][root]), name
            assert np.allclose(column[~root], getattr(whole, name)[live][~root],
                               rtol=1e-13, atol=1e-13), name
        else:
            assert _same(column, getattr(whole, name)[live]), name


def test_empty_stacks_and_shapes():
    assert oracle._inertia_rows(np.zeros((2, 0, 0))).tolist() == [[0, 0, 0], [0, 0, 0]]
    _, _, sequences, _, prefix = morse._sign_rows(np.ones((3, 4)), np.full((3, 4), 0.25 * math.pi))
    assert sequences.shape == (3, 2)
    # the prefix range is empty at n = 4
    assert prefix.dtype == object and prefix.tolist() == [None] * 3


def test_singular_row_keeps_its_refusal_in_a_stack():
    linkage = Linkage([1, 1, 1, 1])
    flat = np.array([(0.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.0, 1.0)])
    good = [item.configuration.points for item in enumerate_cyclic(linkage)]
    verdicts = _verdicts(np.stack([good[0], flat, good[1]]))
    (alone,) = _verdicts(flat[None])
    assert alone.startswith("constraint Jacobian rank deficient")
    assert verdicts[1] == alone
    for verdict, points in zip(verdicts[::2], good):
        assert verdict == _verdicts(points[None])[0]


@pytest.mark.parametrize("n", [3, 7, 12])
def test_rank_deficient_row_among_regular_rows(n):
    # folded flat onto the pinned edge: every edge is parallel to it, and the
    # Jacobian's smallest singular value is exactly 0
    flat = np.zeros((n, 2))
    flat[1::2, 1] = 1.0
    if n % 2:
        flat[-1, 1] = 0.5
    rng = np.random.default_rng(n)
    regular = [item.configuration.points for item in enumerate_cyclic(random_linkage(rng, n))][:6]
    regular += [random_valid_configuration(rng, n)[1].points for _ in range(3)]
    middle = len(regular) // 2
    pts = np.stack(regular[:middle] + [flat] + regular[middle:])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        verdicts = _verdicts(pts)
    (alone,) = _verdicts(flat[None])
    assert alone == "constraint Jacobian rank deficient (sigma_min/sigma_max = 0.000e+00)"
    assert verdicts[middle] == alone
    for verdict, points in zip(verdicts[:middle] + verdicts[middle + 1:], regular):
        assert verdict == _verdicts(points[None])[0]


# ---------------------------------------------------------------------------
# The per-row loops the kernels replaced, kept as references.  The area,
# convexity and constraint kernels do the loops' arithmetic, so their values
# must be equal, not close.  The gradient is summed otherwise (as edge dot
# products, not as one dot product with the vertices) and the multipliers
# come from the 2 x 2 normal equations instead of one least-squares solve
# per row: they must agree to 1e-12 relative, the stationarity gaps to 1e-13
# absolute, and the inertia, counted by pivots, must equal the eigenvalues'
# of the loop's Hessian in an orthonormal basis exactly.


def _loop_area(pts):
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _loop_convex(pts):
    n = pts.shape[0]
    total = 0.0
    for i in range(n):
        u = pts[(i + 1) % n] - pts[i]
        v = pts[(i + 2) % n] - pts[(i + 1) % n]
        cross = u[0] * v[1] - u[1] * v[0]
        if cross <= 0.0:
            return False
        total += math.atan2(cross, float(u @ v))
    return abs(total - 2.0 * math.pi) < 1e-6


def _loop_edges(pts):
    n = pts.shape[0]
    return [pts[(k + 1) % n] - pts[k] for k in range(n)]


def _loop_constraints(pts):
    """Column k - 2 is ``d e_k / d phi_k = (-e_k,y, e_k,x)``, k = 2..n."""
    edges = _loop_edges(pts)
    jac = np.zeros((2, len(edges) - 1))
    for k in range(1, len(edges)):
        jac[:, k - 1] = (-edges[k][1], edges[k][0])
    return jac


def _loop_stationarity(pts, jac):
    edges = _loop_edges(pts)
    n = len(edges)
    grad = np.array([0.5 * (sum(float(edges[i] @ edges[k]) for i in range(k))
                            - sum(float(edges[k] @ edges[j]) for j in range(k + 1, n)))
                     for k in range(1, n)])
    lam, *_ = np.linalg.lstsq(jac.T, grad, rcond=None)
    residual = float(np.linalg.norm(grad - jac.T @ lam)) / max(1.0, float(np.linalg.norm(grad)))
    return lam, residual


def _loop_lagrangian(pts, lam):
    edges = _loop_edges(pts)
    n = len(edges)
    hess = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            hess[j, k] = hess[k, j] = 0.5 * (edges[j][0] * edges[k][1] - edges[j][1] * edges[k][0])
    pinned_sums = hess.sum(axis=0)
    for k in range(n):
        hess[k, k] = float(lam @ edges[k]) - pinned_sums[k]
    return hess[1:, 1:]


def _cyclic_configuration(rng, n):
    """Vertices at random angles on the unit circle, in the pinned frame: a
    cyclic configuration, so a critical point of the area, at any n without
    an enumeration."""
    while True:
        theta = rng.uniform(0.0, 2.0 * math.pi, n)
        pts = pin_points(np.stack([np.cos(theta), np.sin(theta)], axis=1))
        if edge_lengths(pts).min() > 0.1:
            return pts


def test_kernels_match_the_per_row_loops():
    rng = np.random.default_rng(37)
    for n in range(3, 17):
        stacks = [np.stack([_cyclic_configuration(rng, n) for _ in range(20)]),
                  np.stack([random_valid_configuration(rng, n)[1].points for _ in range(20)])]
        if n <= 11:
            items = enumerate_cyclic(random_linkage(rng, n))
            stacks.append(np.stack([item.configuration.points for item in items]))
        for pts in stacks:
            assert geometry._signed_areas(pts).tolist() == [_loop_area(p) for p in pts]
            assert geometry._convex_rows(pts).tolist() == [_loop_convex(p) for p in pts]
            edges, cross = oracle._cross_rows(pts)
            det, errors = oracle._regular_rows(edges, cross)
            assert errors.dtype == object and errors.tolist() == [None] * len(pts)
            jac = oracle._jacobian_rows(edges)
            assert all(np.array_equal(j, _loop_constraints(p)) for j, p in zip(jac, pts))
            lam, residual = oracle._stationarity_rows(pts, jac, det)
            loop_lam, loop_gap = map(np.array, zip(*map(_loop_stationarity, pts, jac)))
            assert np.all(np.abs(lam - loop_lam).max(axis=1)
                          <= 1e-12 * np.abs(loop_lam).max(axis=1))
            assert np.all(np.abs(residual - loop_gap) <= 1e-13)
            basis = np.linalg.svd(jac, full_matrices=True)[2][:, 2:].transpose(0, 2, 1)
            loop_inertia = oracle._inertia_rows(oracle._projected_rows(
                np.stack([_loop_lagrangian(p, m) for p, m in zip(pts, loop_lam)]), basis))
            assert [verdict[2] for verdict in _verdicts(pts)] == \
                list(map(tuple, loop_inertia.tolist()))


# ---------------------------------------------------------------------------
# The oracle in the vertex chart, kept as the reference of the edge-angle
# chart: the free coordinates are the vertices p_3..p_n, the constraints the
# n - 1 quadratic edge lengths g_i = |p_i - p_{i+1}|^2 - l_i^2, i = 2..n.  At
# a critical point the Morse data do not depend on the chart, so the index,
# the inertia and the determinant sign must be equal.


def _vertex_chart_verdict_rows(pts):
    """Per row of stacked configurations: the inertia, the determinant sign
    and whether the constraint Jacobian has full rank."""
    rows, n = pts.shape[:2]
    m = 2 * (n - 2)
    nxt, prv = np.roll(pts, -1, axis=1)[:, 2:], pts[:, 1:-1]
    grad = np.empty((rows, m))
    grad[:, 0::2] = 0.5 * (nxt[..., 1] - prv[..., 1])
    grad[:, 1::2] = 0.5 * (prv[..., 0] - nxt[..., 0])
    d = 2.0 * (pts - np.roll(pts, -1, axis=1))
    jac = np.zeros((rows, n - 1, m))
    pair = np.arange(2)
    tail = np.arange(2, n)  # edges whose first endpoint is free
    jac[:, tail[:, None] - 1, 2 * (tail[:, None] - 2) + pair] += d[:, tail]
    head = np.arange(1, n - 1)  # edges whose second endpoint is free
    jac[:, head[:, None] - 1, 2 * (head[:, None] - 1) + pair] -= d[:, head]
    u, svals, vt = np.linalg.svd(jac, full_matrices=True)
    regular = svals[:, -1] > oracle.RANK_TOL * svals[:, 0]
    u, svals, vt = u[regular], svals[regular], vt[regular]
    lam = (u @ ((vt[:, :n - 1] @ grad[regular][:, :, None]) / svals[:, :, None]))[:, :, 0]
    # block tridiagonal over the free vertices
    lagrangian = np.zeros((lam.shape[0], m, m))
    x = 2 * np.arange(n - 2)
    lagrangian[:, x, x] = lagrangian[:, x + 1, x + 1] = -2.0 * lam[:, :-1] - 2.0 * lam[:, 1:]
    a, b = x[:-1], x[1:]
    couple = 2.0 * lam[:, 1:-1]
    lagrangian[:, a, b] = lagrangian[:, b, a] = couple
    lagrangian[:, a + 1, b + 1] = lagrangian[:, b + 1, a + 1] = couple
    lagrangian[:, a, b + 1] = lagrangian[:, b + 1, a] = 0.5
    lagrangian[:, a + 1, b] = lagrangian[:, b, a + 1] = -0.5
    inertia = np.zeros((rows, 3), dtype=int)
    inertia[regular] = oracle._inertia_rows(
        oracle._projected_rows(lagrangian, vt[:, n - 1:].transpose(0, 2, 1)))
    det_sign = np.where(~regular | (inertia[:, 1] > 0), 0, 1 - 2 * (inertia[:, 0] % 2))
    return inertia, det_sign, regular


def _assert_same_as_the_vertex_chart(pts):
    _, _, inertia, det_sign, errors = oracle._verdict_rows(pts)
    ref_inertia, ref_det_sign, ref_regular = _vertex_chart_verdict_rows(pts)
    assert [error is None for error in errors] == ref_regular.tolist()
    assert np.array_equal(inertia, ref_inertia)
    assert np.array_equal(det_sign, ref_det_sign)


def _fixture_linkages():
    yield from (Linkage(ls) for lengths, _ in MIXED.values() for ls in lengths)
    yield from _symmetry_linkages()
    # the solver's quadrilaterals, a wall 1e-6 away and pentagon with roots
    # near r_min, and the CLI's pentagon
    yield from (Linkage(ls) for ls in ([1, 1, 2, 2], [1, 1, 1.5, 1.5], [1, 2, 1.5, 2.5 - 1e-6],
                                       [0.7573611128687527, 1.2164402726063217, 0.6733244298490622,
                                        1.6753095409833882, 1.082692365727465],
                                       [1.0, 1.2, 1.4, 1.1, 0.9]))


def test_oracle_matches_the_vertex_chart_oracle(random_tables):
    # every enumerated row, flagged ones included, as verify passes them all
    for linkage in _fixture_linkages():
        _assert_same_as_the_vertex_chart(enumerate_cyclic(linkage).points)
    rng = np.random.default_rng(41)
    for n in (3, 9, 16):
        _assert_same_as_the_vertex_chart(np.stack([_cyclic_configuration(rng, n)
                                                   for _ in range(100)]))
    for linkage, table in random_tables:
        # at most 1500 rows per linkage, spread over the table
        rows = np.arange(0, len(table), max(1, len(table) // 1500))
        _assert_same_as_the_vertex_chart(table.points[rows])


# ---------------------------------------------------------------------------
# Index symmetry: the mirror of a configuration has area -A, so its index is
# n - 3 - m.


def _symmetry_linkages():
    yield from (Linkage([1] * n) for n in range(4, 9))
    yield from (Linkage(ls) for ls in ([1, 2, 1, 2, 1, 2], [1, 1, 1, 1, 2, 2], [3, 1, 1, 2],
                                       [1, 2, 3, 2.5, 1.5], THIN_HEXAGON))
    rng = np.random.default_rng(43)
    yield from (random_linkage(rng, n) for n in range(5, 11))


def test_mirror_pairs_have_symmetric_formula_indices():
    pairs = 0
    for linkage in _symmetry_linkages():
        table = {(a.descriptor.eps.eps, a.descriptor.winding, a.descriptor.radius): a
                 for a in analyze_linkage(linkage)}
        for (eps, k, r), a in table.items():
            mirror = table[(tuple(-v for v in eps), -k, r)]
            assert mirror.flags == a.flags
            if a.flags.any or "formula" not in (a.index_source, mirror.index_source):
                continue
            assert a.index_source == mirror.index_source == "formula"
            assert a.index + mirror.index == linkage.n - 3
            pairs += 1
    assert pairs > 500


def _seeded_linkages():
    rng = np.random.default_rng(47)
    yield from (random_linkage(rng, n) for n in range(4, 13))


def test_mirror_rows_take_their_roots_verdicts():
    # analyze_linkage runs the oracle on the root of each mirror pair and
    # derives the mirror's verdict; the oracle on the mirror's own points
    # gives the same inertia, det_sign and refusal, and the same residual and
    # multipliers up to rounding
    pairs = 0
    for linkage in [*_fixture_linkages(), *_seeded_linkages()]:
        table = analyze_linkage(linkage)
        live = np.flatnonzero(~table.flagged)
        roots = live[table.eps[live, 0] > 0]
        mirrors = solver._enumerate(linkage)[1][roots]
        # every unflagged row is a root or the mirror of one
        assert 2 * mirrors.size == live.size
        assert np.array_equal(np.sort(np.concatenate([mirrors, roots])), live)
        assert np.array_equal(table.eps[mirrors], -table.eps[roots])
        multipliers, residual, inertia, det_sign, errors = oracle._verdict_rows(
            table.points[mirrors])
        assert np.array_equal(table.inertia[mirrors], inertia)
        assert np.array_equal(table.inertia[mirrors], table.inertia[roots][:, ::-1])
        assert np.array_equal(table.det_sign[mirrors], det_sign)
        assert table.oracle_error[mirrors].tolist() == errors.tolist()
        assert np.all(np.abs(table.residual[mirrors] - residual) <= 1e-13)
        assert np.all(np.abs(table.multipliers[mirrors] - multipliers)
                      <= 1e-13 * np.maximum(1.0, np.abs(multipliers)))
        pairs += mirrors.size
    assert pairs > 2000


# ---------------------------------------------------------------------------
# The paper's sign sequence term by term: h_i is the determinant sign of the
# subconfiguration P_i = (p_1..p_i) closed by its chord, itself a cyclic
# configuration of the linkage (l_1, ..., l_{i-1}, |p_i - p_1|), so the
# oracle on the stacked slice points[:, :i] gives an independent h_i, and
# its index must be the sign changes of h_3..h_i.


def test_sign_sequence_terms_match_the_oracle_on_each_subconfiguration():
    terms = 0
    for linkage in [*_fixture_linkages(), *(random_linkage(np.random.default_rng(53 + n), n)
                                            for n in range(5, 13))]:
        table = analyze_linkage(linkage)
        # rows where the sequence is defined: a refused one is a row of zeros
        rows = np.flatnonzero(table.h_sequence[:, 0] != 0)
        sequence = table.h_sequence[rows]
        for i in range(3, linkage.n + 1):
            _, _, inertia, det_sign, errors = oracle._verdict_rows(table.points[rows, :i])
            assert errors.tolist() == [None] * rows.size
            assert np.array_equal(det_sign, sequence[:, i - 3]), (linkage.lengths, i)
            changes = (sequence[:, 1:i - 2] != sequence[:, :i - 3]).sum(axis=1)
            assert np.array_equal(inertia[:, 0], changes), (linkage.lengths, i)
            terms += rows.size
    assert terms > 20000


# CI's n = 12 lengths: 1530 configurations, none flagged.
CI_12 = [0.8762366871626692, 1.920129414289137, 0.783980576809642, 0.7689371156271614,
         1.0248338608939362, 0.8458118698848589, 1.505668614159177, 0.6726190731851712,
         1.8444640605570206, 1.7871957336258633, 0.5042405482799301, 1.3121992425781914]


def test_the_index_formula_is_the_sign_changes_of_the_sequence(random_tables):
    # the paper's theorem on stacked rows: e - 1 - 2k - [delta < 0] counts the
    # sign changes of h_3..h_n wherever the sequence is defined, and its
    # parity is the determinant sign -d (-1)^e
    sequences = 0
    for linkage, table in random_tables:
        signed = np.equal(table.morse_error, None)
        index = table.formula_index[signed]
        assert ((0 <= index) & (index <= linkage.n - 3)).all()
        assert np.array_equal((-1) ** index, table.h_sign[signed])
        defined = table.h_sequence[:, 0] != 0
        sequence = table.h_sequence[defined]
        changes = (sequence[:, 1:] != sequence[:, :-1]).sum(axis=1)
        assert np.array_equal(changes, table.formula_index[defined]), linkage.lengths
        sequences += int(defined.sum())
    assert sequences > 60000
    table = analyze_linkage(Linkage(CI_12))
    live = ~table.flagged
    assert live.sum() == 1530
    assert np.array_equal(table.formula_index[live], table.oracle_index[live])
    assert (table.index_source[live] == "formula").all()


def test_the_scan_index_is_the_analysis_index(random_tables):
    # enumerate's summary reads the paper's rule off the scan's eps, k and
    # alphas, with no points: on every row it is analyze_linkage's index,
    # -1 on the flagged rows, and no row takes its index from the oracle
    rng = np.random.default_rng(61)
    sweep = [random_linkage(rng, n) for n in range(3, 13) for _ in range(4)]
    walls = [Linkage([1, 2, 1.5, 2.5 - 1e-11]), Linkage([1.0] * 6)]
    tables = random_tables + [(linkage, analyze_linkage(linkage)) for linkage in sweep + walls]
    rows = flagged = 0
    for linkage, table in tables:
        index = analysis._scan_index(table)
        assert np.array_equal(index, table.index), linkage.lengths
        assert (index[table.flagged] == -1).all()
        assert (table.index_source[~table.flagged] == "formula").all()
        rows += len(table)
        flagged += int(table.flagged.sum())
    assert rows > 80000 and flagged > 0


def test_the_analysis_measures_nothing_from_the_points(monkeypatch):
    # analyze_linkage reads the closed form off the scan's descriptors: with
    # the kernels that measure them from points made to raise, in geometry
    # and as morse binds them, it gives the same columns
    rng = np.random.default_rng(7)
    linkages = [Linkage(lengths) for lengths in MIXED[6][0]] + [random_linkage(rng, 9)]
    expected = [analyze_linkage(linkage) for linkage in linkages]

    def refuse(*args):
        raise AssertionError("analyze_linkage measured the points")

    for module, name in ((geometry, "_orientation_rows"), (geometry, "_half_angle_rows"),
                         (morse, "_orientation_rows"), (morse, "_half_angle_rows"),
                         (morse, "_measured_rows"), (analysis, "_measured_rows")):
        monkeypatch.setattr(module, name, refuse)
    for linkage, table in zip(linkages, expected):
        seen = analyze_linkage(linkage)
        for field in dataclasses.fields(table):
            assert _same(getattr(seen, field.name), getattr(table, field.name)), field.name


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150])
def test_the_analysis_index_is_scale_free(scale):
    # the scan's descriptors do not scale with the lengths, so the closed
    # form that reads them neither underflows nor overflows: every row has
    # its index at scale 1, and every unflagged row the formula's.  The
    # oracle's products overflow at 1e150; its refusal is not under test
    for lengths in ([1, 1, 1], [1] * 5, [1, 1.2, 1.4, 1.1, 0.9], [1, 2, 1, 2, 1, 2],
                    [1, 2, 1.5, 2.5 - 1e-11]):
        unit = analyze_linkage(Linkage(lengths))
        with np.errstate(over="ignore", invalid="ignore"):
            table = analyze_linkage(Linkage([scale * v for v in lengths]))
        assert np.array_equal(table.index, unit.index), lengths
        assert (table.index_source[~table.flagged] == "formula").all(), lengths
    # the wall fixture has flagged rows, -1 at every scale
    assert table.flagged.any()


def test_the_measured_closed_form_is_the_analysis_closed_form(random_tables):
    # closed_form and verify measure eps, k and alpha from the points, the
    # analysis reads the scan's: every column agrees but delta, a sum of
    # tangents, which moves within rounding of sum tan(alpha)
    worst = 0.0
    for linkage, table in random_tables:
        live = ~table.flagged
        measured = morse._measured_rows(table.points[live], table.center[live],
                                        table.radius[live])
        verdict = [getattr(table, name) for name in analysis._VERDICT]
        columns = analysis._analysis_columns(table.flagged, measured, verdict)
        for name, column in columns.items():
            if name != "delta":
                assert _same(column, getattr(table, name)), (linkage.lengths, name)
        gap = np.abs(columns["delta"] - table.delta) / np.tan(table.alphas).sum(axis=1)
        assert np.array_equal(np.isnan(gap), np.isnan(table.delta))
        worst = max(worst, float(np.nanmax(gap, initial=0.0)))
    assert 0.0 < worst <= 1e-10
