"""Per-identity checks: worked instances, precondition errors, negative controls."""

import inspect
from itertools import product

import pytest

from rlah import identities as idn
from rlah import lah_core
from rlah.lah_core import binomial, g_eval, g_poly, row_sum_poly
from rlah.poly import A, B, ONE, X, ZERO, range_product


def bell_like(n, r):
    return row_sum_poly(n, r).eval(a=0, b=1).as_int()


# ----------------------------------------------------------------------
# connection constants


def test_connection_base_cases():
    assert idn.check_connection(0, 3).passed
    assert idn.check_connection(1, 2).passed
    assert idn.check_connection(3, 2).passed


def test_connection_x_degree():
    from rlah.poly import A, B, X, range_product
    for n in range(5):
        lhs = range_product(X + (A + B) * 2, A, n)
        assert lhs.degree("x") == n
        rhs = sum((g_poly(n, k, 2) * range_product(X, -B, k) for k in range(n + 1)), ZERO)
        assert rhs.degree("x") == n


def test_connection_grid():
    for n in range(7):
        for r in range(4):
            assert idn.check_connection(n, r).passed


# ----------------------------------------------------------------------
# two-term recurrences


def test_vertical():
    assert idn.check_vertical(3, 3, 2).passed  # n = k: empty tail products
    assert idn.check_vertical(2, 1, 0).passed
    assert idn.check_vertical(4, 2, 3).passed
    with pytest.raises(idn.InvalidParameters):
        idn.check_vertical(3, 0, 0)
    with pytest.raises(idn.InvalidParameters):
        idn.check_vertical(2, 3, 0)


def test_horizontal():
    assert idn.check_horizontal(1, 0, 1).passed
    assert idn.check_horizontal(3, 1, 0).passed
    assert idn.check_horizontal(5, 3, 2).passed
    with pytest.raises(idn.InvalidParameters):
        idn.check_horizontal(3, 3, 0)


def test_shift():
    assert idn.check_shift(4, 2, 1, 0).passed  # s = 0 degenerates to equality
    assert idn.check_shift(2, 1, 1, 1).passed
    assert idn.check_shift(4, 0, 0, 2).passed
    with pytest.raises(idn.InvalidParameters):
        idn.check_shift(2, 3, 0, 0)


def test_convolution():
    assert idn.check_convolution(3, 2, 0, 1, 0).passed  # m = 0, s = 0 collapses
    assert idn.check_convolution(3, 1, 1, 0, 0).passed
    assert idn.check_convolution(5, 1, 2, 1, 2).passed
    with pytest.raises(idn.InvalidParameters):
        idn.check_convolution(3, 3, 1, 0, 0)


def test_splitting():
    assert idn.check_splitting(0, 3, 2, 1).passed  # n = 0 collapses to a delta
    assert idn.check_splitting(1, 1, 1, 0).passed
    assert idn.check_splitting(2, 2, 2, 1).passed


# ----------------------------------------------------------------------
# row sums


def test_rowsum_shift_and_split():
    assert idn.check_rowsum_shift(3, 2, 0).passed
    assert idn.check_rowsum_shift(4, 1, 2).passed
    assert idn.check_rowsum_split(2, 1, 1).passed
    assert idn.check_rowsum_split(3, 2, 0).passed


def _double_loop_split_rhs(c, n, m, r, inner_cell):
    """SPLITTING's and ROWSUM_SPLIT's right side as one product per (i, j) term,
    before the sum over i was grouped under each outer cell G(m, j; r)."""
    rhs = ZERO
    for i in range(n + 1):
        for j in range(m + 1):
            factor = binomial(n, i) * c.g(m, j, r) * inner_cell(i, j)
            if factor:
                tail = range_product(A * (m + r) + B * (j + r), A, n - i)
                rhs = rhs + factor * tail
    return rhs


def _poisoned_store():
    c = idn.Checker()
    c.corrupt_cell(0, 2, 1)         # an inner cell of both sums
    c.corrupt_cell(0, 3, 0)         # a zero inner cell made nonzero
    c.corrupt_cell(0, 2, 2, -1)     # a unit inner cell made zero
    c.corrupt_cell(0, 1, 3)         # an inner cell outside the triangle
    c.corrupt_cell(1, 2, 1)         # an outer cell
    c.corrupt_cell(2, 1, 1, -1)     # a unit outer cell made zero
    return c


@pytest.mark.parametrize("poisoned", [False, True])
def test_split_sums_match_the_double_loop(monkeypatch, poisoned):
    c = _poisoned_store() if poisoned else idn.Checker()
    monkeypatch.setattr(lah_core, "DEFAULT", c)
    failed = 0
    for n in range(9):
        for m in range(5):
            for r in range(4):
                lhs = c.row_sum(n + m, r)
                report = idn.check_rowsum_split(n, m, r)
                failed += not report.passed
                assert (report.rhs if report.rhs is not None else lhs) == \
                    _double_loop_split_rhs(c, n, m, r, lambda i, j: c.row_sum(i, 0))
                for k in range(n + m + 1):
                    lhs = c.g(n + m, k, r)
                    report = idn.check_splitting(n, m, k, r)
                    failed += not report.passed
                    assert (report.rhs if report.rhs is not None else lhs) == \
                        _double_loop_split_rhs(c, n, m, r, lambda i, j: c.g(i, k - j, 0))
    assert bool(failed) == poisoned


def test_splitting_computes_no_tail_outside_the_triangle(monkeypatch):
    # on a store with no corrupted cell, SPLITTING walks only the j for which
    # some inner cell G(i, k - j; 0), 0 <= i <= n, can be nonzero
    c = idn.Checker()
    monkeypatch.setattr(lah_core, "DEFAULT", c)
    for n in range(6):
        for m in range(4):
            for k in range(n + m + 2):
                for r in range(3):
                    assert idn.check_splitting(n, m, k, r).passed
    tails = [key for key in c._derived if key[0] == "split"]
    assert tails and all(0 <= inner_k <= n for _, n, inner_k, *_ in tails)


def test_rowsum_shift_refines_the_known_relation():
    # at a=0, b=1, s=1: B(n, r+1) = sum_i C(n,i) B(i, r)
    for n in range(6):
        for r in range(3):
            rhs = sum(binomial(n, i) * bell_like(i, r) for i in range(n + 1))
            assert bell_like(n, r + 1) == rhs


def test_rowsum_decomp_and_rec():
    for n in range(6):
        for r in range(4):
            assert idn.check_rowsum_decomp(n, r).passed
            assert idn.check_rowsum_rec(n, r).passed
            assert idn.check_marked_rec(n, r).passed


def test_rowsum_decomp_specializes_to_powers():
    # at a=0, b=1: B(n, r) = sum_i r^i C(n,i) B(n-i, 0)
    for n in range(6):
        for r in range(4):
            rhs = sum(r ** i * binomial(n, i) * bell_like(n - i, 0) for i in range(n + 1))
            assert bell_like(n, r) == rhs


def test_rowsum_rec_specializes_to_level_shift():
    # at a=0, b=1: B(n+1, r) = r B(n, r) + B(n, r+1)
    for n in range(6):
        for r in range(4):
            assert bell_like(n + 1, r) == r * bell_like(n, r) + bell_like(n, r + 1)


def test_marked_rec_marginalizes():
    from rlah.lah_core import row_sum_marked
    for n in range(6):
        for r in range(3):
            assert row_sum_marked(n, r).eval(x=1) == row_sum_poly(n, r)


# ----------------------------------------------------------------------
# alternating sums at integer level


def test_rlah_i_worked_instance():
    report = idn.check_rlah_i(2, 1, 1, 0)
    assert report.identity_id == "RLAH_I" and report.passed
    # by hand: 6*1 - 1*2 = 4 = C(2,1) * 2
    assert g_eval(2, 1, 1, 1, 1) == 6 and g_eval(2, 2, 1, 1, 1) == 1
    assert g_eval(1, 1, 0, 1, 1) == 1 and g_eval(2, 1, 0, 1, 1) == 2


def test_rlah_i_branches_and_edges():
    assert idn.check_rlah_i(3, 3, 2, 1).passed           # n = k
    assert idn.check_rlah_i(4, 1, 2, 2).passed           # zero rising factor
    falling = idn.check_rlah_i(3, 1, 0, 2)
    assert falling.identity_id == "RLAH_I_NEG" and falling.passed


def test_rlah_ii_iii_iv_instances():
    assert idn.check_rlah_iv(2, 1, 0, 0).passed  # L(2,1) = 2 = 1*1 + 1*1
    assert idn.check_rlah_ii(4, 2, 1, 1).passed
    assert idn.check_rlah_iii(3, 3, 1, 1).passed


def test_rlah_grid():
    for n in range(6):
        for k in range(n + 1):
            for r in range(3):
                for s in range(3):
                    assert idn.check_rlah_i(n, k, r, s).passed
                    if 2 * r >= s:
                        assert idn.check_rlah_ii(n, k, r, s).passed
                    if 2 * s >= r:
                        assert idn.check_rlah_iii(n, k, r, s).passed
                    if (r - s) % 2 == 0:
                        assert idn.check_rlah_iv(n, k, r, s).passed


def test_rlah_preconditions_raise():
    with pytest.raises(idn.InvalidParameters):
        idn.check_rlah_ii(2, 1, 0, 3)   # 2r < s
    with pytest.raises(idn.InvalidParameters):
        idn.check_rlah_iii(2, 1, 3, 1)  # 2s < r
    with pytest.raises(idn.InvalidParameters):
        idn.check_rlah_iv(2, 1, 1, 2)   # opposite parity


# ----------------------------------------------------------------------
# orthogonality


def test_orth_and_triple():
    assert idn.check_orth(3, 3, 1).passed
    assert idn.check_orth(2, 0, 1).passed
    assert idn.check_triple(3, 1, 2).passed
    for n in range(5):
        for k in range(n + 1):
            for r in range(3):
                assert idn.check_orth(n, k, r).passed
                assert idn.check_triple(n, k, r).passed


def test_orth_wrong_weight_order_fails():
    # without swapping the weights in the second factor the sum does not
    # telescope; (n, k, r) = (2, 0, 1) is a witness with a != b
    wrong = ZERO
    for j in range(3):
        wrong = wrong + (-1) ** j * g_poly(2, j, 1) * g_poly(j, 0, 1)
    assert wrong != ZERO
    assert wrong.eval(a=2, b=3).as_int() != 0


def test_triple_t_zero_splits_the_weights():
    # the t = 0 slice: a-only cells convolved with b-only cells
    for n in range(5):
        for k in range(n + 1):
            for r in range(3):
                acc = ZERO
                for j in range(k, n + 1):
                    acc = acc + g_poly(n, j, r).eval(b=0) * g_poly(j, k, r).eval(a=0)
                assert acc == g_poly(n, k, r)


def test_inversion():
    assert idn.check_inversion(8, 2, 42).passed
    assert idn.check_inversion(0, 0, 7).passed
    for seed in (1, 2, 3):
        assert idn.check_inversion(6, 1, seed).passed


def test_inversion_delta_sequence():
    # pushing a delta through the forward matrix extracts a column, and the
    # alternating matrix recovers the delta
    n_max, r = 5, 2
    forward = [[g_eval(n, k, r, 1, 1) for k in range(n + 1)] for n in range(n_max + 1)]
    backward = [[(-1) ** (n - k) * g_eval(n, k, r, 1, 1) for k in range(n + 1)]
                for n in range(n_max + 1)]
    delta = [1] + [0] * n_max
    column = [sum(forward[n][k] * delta[k] for k in range(n + 1)) for n in range(n_max + 1)]
    assert column == [g_eval(n, 0, r, 1, 1) for n in range(n_max + 1)]
    back = [sum(backward[n][k] * column[k] for k in range(n + 1)) for n in range(n_max + 1)]
    assert back == delta


# ----------------------------------------------------------------------
# sweep plumbing and fault injection


def test_sweep_empty_ranges():
    assert idn.sweep_detailed(["CONNECTION"], n=(), r=())[0] == []


def test_sweep_skips_and_order():
    reports, skipped = idn.sweep_detailed(["VERTICAL"], n=range(3), k=range(3), r=(0,))
    assert all(rep.passed for rep in reports)
    assert len(reports) == 3   # (1,1) (2,1) (2,2)
    assert len(skipped) == 6
    assert reports == sorted(reports, key=lambda rep: (rep.identity_id, rep.params))


def _sorted_sweep(ids, **ranges):
    """The sweep as it was before it emitted in order: every tuple of each id
    in turn, over the ranges as given and in the check's argument order, then
    one stable sort of the reports and one of the skipped tuples by
    (id, params), None read as -1."""
    reports, skipped = [], []
    for ident in ids:
        fields, precondition, check = idn.IDENTITIES[ident]
        for values in product(*(ranges.get(name, (0,)) for name in fields)):
            named = dict(zip(fields, values))
            params = tuple(named.get(slot) for slot in idn.SLOTS)
            if precondition(*values):
                reports.append(getattr(idn, check)(*values))
            else:
                skipped.append((ident, params))

    def order(ident, params):
        return ident, tuple(-1 if v is None else v for v in params)

    reports.sort(key=lambda rep: order(rep.identity_id, rep.params))
    skipped.sort(key=lambda item: order(*item))
    return reports, skipped


@pytest.mark.parametrize("ids, ranges", [
    (["SHIFT", "VERTICAL", "SHIFT"], dict(n=(3, 0, 2, 2), k=(2, 1, 0), r=(1, 0), s=(0, 2, 0))),
    (list(reversed(idn.IDENTITY_IDS)),
     dict(n=(4, 1, 3), k=(2, 0, 2), m=(1, 0), r=(2, 0, 1), s=(1, 1, 0))),
    # SPLITTING takes its slots as (n, m, k, r), not in SLOTS order
    (["SPLITTING", "ROWSUM_SPLIT", "SPLITTING", "CONVOLUTION"],
     dict(n=(2, 3, 1), k=(1, 3, 0), m=(2, 0, 1, 2), r=(1, -1, 0), s=(1, 0))),
    (["INVERSION", "RLAH_II", "INVERSION"], dict(n=(3, 1, 3), r=(1, 0, 2), s=(7, -1, 3))),
])
def test_sweep_emits_the_order_of_the_sorted_sweep(ids, ranges):
    assert idn.sweep_detailed(ids, **ranges) == _sorted_sweep(ids, **ranges)


def test_sweep_unknown_id():
    with pytest.raises(idn.InvalidParameters):
        idn.sweep_detailed(["NOPE"])


def test_every_check_takes_its_slots():
    for ident, (fields, _, check) in idn.IDENTITIES.items():
        assert len(inspect.signature(getattr(idn, check)).parameters) == len(fields), ident


def test_sweep_takes_the_inversion_seed_from_s():
    reports = idn.sweep_detailed(["INVERSION"], n=(4,), r=(0,), s=(5, 6))[0]
    assert [rep.params[4] for rep in reports] == [5, 6]
    assert reports == [idn.check_inversion(4, 0, 5), idn.check_inversion(4, 0, 6)]


def test_corrupted_cell_fails_with_witness(monkeypatch):
    checker = idn.Checker()
    checker.corrupt_cell(1, 3, 1, delta=1)
    monkeypatch.setattr(lah_core, "DEFAULT", checker)
    report = idn.check_connection(3, 1)
    assert not report.passed
    assert report.lhs is not None and report.rhs is not None
    assert report.lhs != report.rhs
    reports = idn.sweep_detailed(["CONNECTION"], n=range(5), r=(1,))[0]
    assert any(not rep.passed for rep in reports)


@pytest.mark.parametrize("identity_id, values, cell", [
    ("CONNECTION", (3, 1), (1, 3, 1)),
    ("VERTICAL", (3, 2, 1), (1, 2, 1)),
    ("HORIZONTAL", (3, 1, 1), (1, 2, 1)),
    ("SHIFT", (3, 1, 0, 1), (0, 2, 1)),
    ("CONVOLUTION", (3, 1, 1, 0, 1), (0, 2, 1)),
    ("SPLITTING", (2, 1, 2, 1), (0, 2, 1)),
    ("ROWSUM_SHIFT", (3, 0, 1), (0, 2, 1)),
    ("ROWSUM_SPLIT", (2, 1, 1), (0, 2, 1)),
    ("ROWSUM_DECOMP", (3, 1), (0, 2, 1)),
    ("ROWSUM_REC", (3, 1), (0, 2, 1)),
    ("MARKED_REC", (3, 1), (0, 2, 1)),
    ("ORTH", (3, 1, 1), (1, 3, 1)),
    ("TRIPLE", (3, 1, 1), (1, 3, 1)),
])
def test_every_polynomial_identity_reads_its_cells(monkeypatch, identity_id, values, cell):
    # a store with no corrupted cell skips the offset lookup; one that has
    # one must still add it on every read
    checker = idn.Checker()
    monkeypatch.setattr(lah_core, "DEFAULT", checker)
    check = getattr(idn, idn.IDENTITIES[identity_id][2])
    assert check(*values).passed
    checker.corrupt_cell(*cell)
    report = check(*values)
    assert not report.passed
    assert report.lhs is not None and report.rhs is not None


def test_corruption_reaches_derived_triangles(monkeypatch):
    checker = idn.Checker()
    checker.corrupt_cell(1, 3, 1, delta=1)
    monkeypatch.setattr(lah_core, "DEFAULT", checker)
    assert not idn.check_orth(3, 1, 1).passed
    assert not idn.check_triple(3, 1, 1).passed


def test_corrupt_cell_clears_the_memoised_readings():
    checker = idn.Checker()
    before = (checker.g_int(3, 1, 1, 1, 1), checker.row_sum(3, 1),
              checker.row_sum_marked(3, 1), checker.g_swapped(3, 1, 1))
    checker.corrupt_cell(1, 3, 1)
    assert checker.g_int(3, 1, 1, 1, 1) == before[0] + 1
    assert checker.row_sum(3, 1) == before[1] + 1
    assert checker.row_sum_marked(3, 1) == before[2] + X
    assert checker.g_swapped(3, 1, 1) == before[3] + 1


def test_corruption_read_only_by_the_inner_sum_fails(monkeypatch):
    # at r = 1 the left side and the outer cells G(m, j; 1) read triangle 1,
    # so triangle 0 is read only inside the sum over i
    checker = idn.Checker()
    monkeypatch.setattr(lah_core, "DEFAULT", checker)
    assert idn.check_splitting(2, 1, 2, 1).passed
    assert idn.check_rowsum_split(2, 1, 1).passed
    checker.corrupt_cell(0, 2, 1)  # G(i, k - j; 0) at i = 2, j = 1, and a cell of row_sum(2, 0)
    assert not idn.check_splitting(2, 1, 2, 1).passed
    assert not idn.check_rowsum_split(2, 1, 1).passed


@pytest.mark.parametrize("ident, first, second, key", [
    # at r >= 1 triangle 0 is read only inside the tails: ``second`` reads
    # the corrupted cell G(2, 1; 0) only through the tail ``key``, which
    # ``first`` builds at j = 1
    ("SPLITTING", dict(n=(2,), m=(1,), k=(2,), r=(1,)), dict(n=(2,), m=(0,), k=(1,), r=(2,)),
     ("split", 2, 1, 2, 2)),
    ("ROWSUM_SPLIT", dict(n=(2,), m=(1,), r=(1,)), dict(n=(2,), m=(0,), r=(2,)),
     ("rowsplit", 2, 2, 2)),
])
def test_corruption_reaches_a_memoised_split_tail(monkeypatch, ident, first, second, key):
    checker = idn.Checker()
    monkeypatch.setattr(lah_core, "DEFAULT", checker)

    def verdicts(ranges):
        return [rep.passed for rep in idn.sweep_detailed([ident], **ranges)[0]]

    assert verdicts(first) == verdicts(second) == [True]
    assert key in checker._derived
    checker.corrupt_cell(0, 2, 1)
    assert verdicts(first) == [False]
    tail = checker._derived[key]
    assert verdicts(second) == [False]
    assert checker._derived[key] is tail  # reused, not rebuilt


GRID = dict(n=range(4), k=range(4), m=range(3), r=range(3), s=range(3))


@pytest.mark.parametrize("ident", idn.IDENTITY_IDS)
def test_reach_is_the_largest_row_and_level_a_sweep_reads(monkeypatch, ident):
    checker = idn.Checker()
    monkeypatch.setattr(lah_core, "DEFAULT", checker)
    idn.sweep_detailed([ident], **GRID)
    # a triangle is made when a cell of its level is read, and filled up to
    # the largest row read in it
    row = max(tri.max_n for tri in checker._triangles.values())
    level = max(key if isinstance(key, int) else key[0] for key in checker._triangles)
    assert idn.reach([ident], GRID) == (row, level)


def test_reach_of_a_sweep_reading_nothing():
    assert idn.reach(["CONNECTION"], dict(GRID, n=())) == (-1, -1)
    # INVERSION's s is a PRNG seed
    assert idn.reach(["SHIFT", "INVERSION"], dict(GRID, s=(10 ** 6,))) == (3, 2 + 10 ** 6)
    assert idn.reach(["INVERSION"], dict(GRID, s=(10 ** 6,))) == (3, 2)


def test_report_lines():
    report = idn.check_connection(2, 1)
    assert report.line() == "CONNECTION n=2 r=1 PASS"
    report = idn.check_rlah_ii(2, 1, 1, 1)
    assert "n=2 k=1 r=1 s=1" in report.line()
