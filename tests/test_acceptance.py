"""Acceptance suite: every criterion at its stated range, all equalities exact.

Each test prints one ``ACCEPTANCE <criterion>: PASS|FAIL`` line (visible
with ``pytest -s``).  There are no tolerances anywhere: every comparison
is structural equality of canonical polynomials or integer equality.

Run:  pytest tests/test_acceptance.py -v -s
"""

from rlah import bijections as bj
from rlah import identities as idn
from rlah import lah_core
from rlah.distributions import enumerate_distributions, oracle_row
from rlah.lah_core import g_eval, g_poly, r_lah, row_sum_poly
from rlah.poly import ZERO


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed {detail}"


def test_criterion_1_oracle_equivalence():
    """Triangle cells equal brute-force weight sums for n+r <= 8, r <= 3."""
    mismatches = []
    cells = 0
    for r in range(4):
        for n in range(9 - r):
            row = oracle_row(n, r)
            for k in range(n + 1):
                cells += 1
                if row.get(k, ZERO) != g_poly(n, k, r):
                    mismatches.append((n, k, r))
    _report("1 oracle-equivalence", not mismatches, f"({cells} cells)")


def test_criterion_2_identity_suite():
    """All row/column/shift/convolution/split identities, n<=8 m<=4 r,s<=3."""
    ids = ["CONNECTION", "VERTICAL", "HORIZONTAL", "SHIFT", "CONVOLUTION",
           "SPLITTING", "ROWSUM_SHIFT", "ROWSUM_SPLIT", "ROWSUM_DECOMP",
           "ROWSUM_REC", "MARKED_REC"]
    reports = idn.sweep_detailed(ids, n=range(9), k=range(9), m=range(5),
                                 r=range(4), s=range(4))[0]
    failed = [rep.line() for rep in reports if not rep.passed]
    _report("2 identity-suite", not failed, f"({len(reports)} checks)")


def test_criterion_3_integer_identities():
    """Both branches of the double-Lah sum plus the mixed sums, n<=8 r,s<=4."""
    ids = ["RLAH_I", "RLAH_I_NEG", "RLAH_II", "RLAH_III", "RLAH_IV"]
    reports = idn.sweep_detailed(ids, n=range(9), k=range(9), r=range(5), s=range(5))[0]
    failed = [rep.line() for rep in reports if not rep.passed]
    _report("3 integer-identities", not failed, f"({len(reports)} checks)")


def test_criterion_4_orthogonality():
    """Symbolic orthogonality and the t-factorization for n<=7, r<=3, plus
    the inversion round trip at n_max=10, three seeds, three weight pairs."""
    reports = idn.sweep_detailed(["ORTH", "TRIPLE"], n=range(8), k=range(8), r=range(4))[0]
    failed = [rep.line() for rep in reports if not rep.passed]
    assert idn.INVERSION_WEIGHTS == ((1, 1), (2, 3), (0, 1))
    inversion = idn.sweep_detailed(["INVERSION"], n=(10,), r=range(4), s=(1, 2, 3))[0]
    failed += [rep.line() for rep in inversion if not rep.passed]
    _report("4 orthogonality", not failed,
            f"({len(reports)} symbolic + {len(inversion)} round trips)")


def test_criterion_5_constructions():
    """Every construction over n<=5, k<=n, r,s<=2 under its conditions."""
    failed = []
    count = 0
    for cid in bj.CONSTRUCTION_IDS:
        for n in range(6):
            for k in range(n + 1):
                for r in range(3):
                    for s in range(3):
                        if not bj.construction_applies(cid, n, k, r, s):
                            continue
                        count += 1
                        report = bj.verify_construction(cid, n, k, r, s)
                        if not report.passed:
                            failed.append(report.line())
    _report("5 constructions", not failed, f"({count} parameter tuples)")


def test_criterion_6_specialization_fixtures():
    """Known sequence prefixes and the level-1 column shift."""
    bell = [row_sum_poly(n, 0).eval(a=0, b=1).as_int() for n in range(8)]
    lists = [row_sum_poly(n, 0).eval(a=1, b=1).as_int() for n in range(7)]
    ok = bell == [1, 1, 2, 5, 15, 52, 203, 877]
    ok = ok and lists == [1, 1, 3, 13, 73, 501, 4051]
    column = all(r_lah(n, k, 1) == r_lah(n + 1, k + 1, 0)
                 for n in range(8) for k in range(n + 1))
    _report("6 specialization-fixtures", ok and column)


def test_criterion_7_fault_injection(monkeypatch):
    """A +1 corruption of any single triangle cell (n <= 5, r <= 2) fails
    the CONNECTION check of its row, and the oracle disagrees with the
    corrupted store at that cell and at no other cell of the row; a
    corrupted CONNECTION/ORTH/TRIPLE sweep reports its failures with their
    witnesses."""
    ok = True
    for r in range(3):
        for n in range(6):
            row = oracle_row(n, r)
            for k in range(n + 1):
                checker = idn.Checker()
                checker.corrupt_cell(r, n, k, delta=1)
                monkeypatch.setattr(lah_core, "DEFAULT", checker)
                # the basis-change check reads every cell of row n
                if idn.check_connection(n, r).passed:
                    ok = False
                # the oracle disagrees at exactly the corrupted cell
                if [j for j in range(n + 1) if checker.g(n, j, r) != row.get(j, ZERO)] != [k]:
                    ok = False
    # a corrupted sweep must surface a failing report carrying its witness
    checker = idn.Checker()
    checker.corrupt_cell(1, 4, 2, delta=1)
    monkeypatch.setattr(lah_core, "DEFAULT", checker)
    reports = idn.sweep_detailed(["CONNECTION", "ORTH", "TRIPLE"], n=range(6), k=range(6),
                                 r=(1,))[0]
    bad = [rep for rep in reports if not rep.passed]
    ok = ok and bad and all(rep.lhs is not None and rep.rhs is not None for rep in bad)
    # every distribution family stays intact: the uncorrupted suite still passes
    monkeypatch.undo()
    ok = ok and idn.check_connection(4, 1).passed
    _report("7 fault-injection", bool(ok))
