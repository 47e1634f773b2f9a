"""Closed-form Morse data against the numerical constrained Hessian.

For every cyclic configuration two sign quantities are computed twice:

  * the sign of the Hessian determinant, once as -sign(delta) * (-1)^e from
    the orientation string and half-angle tangents, once as the eigenvalue
    product sign of the projected Lagrangian Hessian;
  * the Morse index, once as the paper's formula e - 1 - 2k - [delta < 0]
    from the orientation string, winding and sign of delta, once as the
    count of negative eigenvalues.

This script samples random linkages of 4..7 edges and tallies the agreement,
which is exact on every configuration away from the flagged degeneracies.
It also checks the formula's proof path, the sign sequence, term by term:
``h_i`` is the determinant sign of the subconfiguration ``P_i = (p_1..p_i)``
closed by its chord, itself a cyclic configuration, so the oracle's
determinant sign on the first i vertices is an independent value of it.  It
exits 1 unless every unflagged configuration agrees and every term matches.

Run:  python demos/formula_vs_oracle.py
"""

import sys

import numpy as np

from linkmorse import Linkage, analyze_linkage
from linkmorse.oracle import _verdict_rows


def random_linkage(rng, n):
    while True:
        lengths = rng.uniform(0.5, 2.0, size=n)
        if 2.0 * lengths.max() < 0.98 * lengths.sum():
            return Linkage(lengths)


def sign_terms(analyses):
    """Terms ``h_3..h_n`` compared with the oracle's determinant sign on
    ``points[:, :i]``, and how many match, over the rows where the sequence
    is defined (a refused one is a row of zeros)."""
    rows = np.flatnonzero(analyses.h_sequence[:, 0] != 0)
    points, sequence = analyses.points[rows], analyses.h_sequence[rows]
    matched = sum(int((_verdict_rows(points[:, :i])[3] == sequence[:, i - 3]).sum())
                  for i in range(3, points.shape[1] + 1))
    return sequence.size, matched


def main():
    rng = np.random.default_rng(31)
    grand_total = disagreements = terms = matched = 0
    print(f"{'n':>2} {'linkages':>9} {'configs':>8} {'flagged':>8} "
          f"{'det-sign match':>15} {'index match':>12} {'h_i match':>14} {'max residual':>13}")
    for n in (4, 5, 6, 7):
        configs = flagged = det_ok = idx_ok = n_terms = n_matched = 0
        worst_residual = 0.0
        for _ in range(12):
            analyses = analyze_linkage(random_linkage(rng, n))
            live = ~analyses.flagged
            configs += len(analyses)
            flagged += int(analyses.flagged.sum())
            worst_residual = max(worst_residual, analyses.residual[live].max(initial=0.0))
            det_ok += int((analyses.h_sign == analyses.det_sign)[live].sum())
            idx_ok += int((analyses.formula_index == analyses.oracle_index)[live].sum())
            disagreements += int(np.not_equal(analyses.agree[live], True).sum())
            compared, same = sign_terms(analyses)
            n_terms += compared
            n_matched += same
        grand_total += configs
        terms += n_terms
        matched += n_matched
        print(f"{n:>2} {12:>9} {configs:>8} {flagged:>8} "
              f"{det_ok:>6}/{configs - flagged:<8} {idx_ok:>5}/{configs - flagged:<6} "
              f"{n_matched:>6}/{n_terms:<7} {worst_residual:>13.2e}")
    if disagreements or matched != terms:
        print(f"\n{disagreements} non-flagged configurations disagree, "
              f"{terms - matched} of {terms} sign-sequence terms differ.")
        sys.exit(1)
    print(f"\n{grand_total} configurations checked; both routes agreed on every")
    print(f"non-flagged one, and all {terms} sign-sequence terms h_i equal the")
    print("oracle's determinant sign on their subconfiguration.  The residual")
    print("column is the stationarity gap of the area gradient against the")
    print("constraint normals, confirming that the enumerated configurations")
    print("really are the critical points.")


if __name__ == "__main__":
    main()
