"""Enumeration, record-low statistics, and the oracle against the triangles."""

from collections import Counter
from itertools import combinations, permutations

import pytest

from rlah import cli, distributions
from rlah.distributions import (MODES, LahDistribution, SizeLimitError,
                                enumerate_distributions, is_arrangement, iter_arrangements,
                                oracle_g, oracle_row, record_lows, stats)
from rlah.lah_core import g_eval, g_poly
from rlah.poly import A, B, ONE, ZERO, Polynomial


def dist(n, r, *blocks):
    return LahDistribution(n=n, r=r, blocks=tuple(tuple(b) for b in blocks))


def test_record_lows_worked_example():
    d = dist(9, 0, (1, 5, 3), (8, 4, 7, 2, 9), (6,))
    # within the second block 8, 4 and 2 are record lows
    assert record_lows(d) == frozenset({1, 8, 4, 2, 6})
    st = stats(d)
    assert (st.nrec, st.rec_star) == (4, 2)


def test_record_lows_monotone_blocks():
    assert record_lows(dist(3, 0, (3, 2, 1))) == frozenset({1, 2, 3})
    assert record_lows(dist(3, 0, (1, 2, 3))) == frozenset({1})
    st = stats(dist(3, 0, (2, 1, 3)))
    assert (st.nrec, st.rec_star) == (1, 1)


def test_stats_all_singletons():
    d = dist(3, 1, (1,), (2,), (3,), (4,))
    assert stats(d) == stats(d).__class__(0, 0)


def test_stats_bound():
    for n in range(5):
        for r in range(3):
            for k in range(n + 1):
                for d in enumerate_distributions(n, k, r):
                    st = stats(d)
                    assert 0 <= st.nrec and 0 <= st.rec_star
                    assert st.nrec + st.rec_star <= n


def test_enumerate_base_cases():
    only = list(enumerate_distributions(0, 0, 3))
    assert len(only) == 1
    assert only[0].blocks == ((1,), (2,), (3,))
    two = sorted(d.blocks for d in enumerate_distributions(2, 1, 0))
    assert two == [((1, 2),), ((2, 1),)]
    assert sum(1 for _ in enumerate_distributions(4, 2, 0, "increasing")) == 7


@pytest.mark.parametrize("mode,a,b,top", [
    # the unrestricted family at n+r <= 8 is covered polynomially by the
    # acceptance oracle; the restricted families are cheap at full range
    ("all", 1, 1, 6),
    ("min_first", 1, 0, 8),
    ("increasing", 0, 1, 8),
])
def test_counts_match_specializations(mode, a, b, top):
    for r in range(4):
        for n in range(top + 1 - r):
            for k in range(n + 1):
                count = sum(1 for _ in enumerate_distributions(n, k, r, mode))
                assert count == g_eval(n, k, r, a, b)


def test_generated_objects_are_canonical_and_distinct():
    for n in range(5):
        for k in range(n + 1):
            seen = set()
            for d in enumerate_distributions(n, k, 2):
                d.validate()
                assert d.blocks == tuple(sorted(d.blocks, key=min))
                assert d.blocks not in seen
                seen.add(d.blocks)


def test_distinguished_blocks_hold_one_small_label_as_minimum():
    for d in enumerate_distributions(3, 1, 2):
        for label in (1, 2):
            block = next(b for b in d.blocks if label in b)
            assert min(block) == label
            assert sum(1 for e in block if e <= 2) == 1


def test_modes_restrict_block_shapes():
    for d in enumerate_distributions(4, 2, 1, "min_first"):
        for block in d.blocks:
            assert block[0] == min(block)
    for d in enumerate_distributions(4, 2, 1, "increasing"):
        for block in d.blocks:
            assert list(block) == sorted(block)


def test_validate_rejects_bad_objects():
    with pytest.raises(ValueError):
        dist(2, 0, (1,), (1, 2)).validate()       # label reused
    with pytest.raises(ValueError):
        dist(2, 0, (2,), (1,)).validate()         # not sorted by minima
    with pytest.raises(ValueError):
        dist(1, 2, (1, 2), (3,)).validate()       # two distinguished together
    with pytest.raises(ValueError):
        dist(1, 0, (1,), ()).validate()           # empty block
    with pytest.raises(ValueError):
        dist(2, 0, (1,)).validate()               # label missing
    with pytest.raises(ValueError):
        dist(1, 0, (1, 2)).validate()             # label out of range
    with pytest.raises(ValueError):
        dist(2, -1, (1,)).validate()              # wrong distinguished count


def _groupings(total):
    """Every tuple of nonempty tuples holding each of 0..total-1 once."""
    if total == 0:
        yield ()
    for perm in permutations(range(total)):
        for cuts in range(total):
            for inner in combinations(range(1, total), cuts):
                bounds = (0, *inner, total)
                yield tuple(perm[a:b] for a, b in zip(bounds, bounds[1:]))


def test_recognizer_accepts_exactly_what_the_generator_yields():
    for total in range(6):
        # the groupings of one rank fewer are never arrangements
        candidates = [*_groupings(total), *_groupings(total - 1)]
        for distinguished in range(total + 1):
            ordinary = total - distinguished
            for mode in MODES:
                for k in (None, *range(-1, ordinary + 2)):
                    accepted = {g for g in candidates
                                if is_arrangement(g, ordinary, distinguished, k, mode)}
                    assert accepted == set(iter_arrangements(ordinary, distinguished, k, mode)), (
                        total, distinguished, mode, k)


def _parent_arrangements(num_ordinary, num_distinguished, k, mode):
    """A recursive generator with one nested generator per object, kept as
    the reference for the order and multiplicity of ``iter_arrangements``."""
    if k is not None and not 0 <= k <= num_ordinary:
        return
    total = num_ordinary + num_distinguished
    target = None if k is None else k + num_distinguished

    def extend(groups, idx):
        if idx == total:
            if target is None or len(groups) == target:
                yield groups
            return
        if target is not None and len(groups) + (total - idx) < target:
            return
        room = target is None or len(groups) < target
        if idx < num_distinguished:
            if room:
                yield from extend(groups + ((idx,),), idx + 1)
            return
        if room:
            yield from extend(groups + ((idx,),), idx + 1)
        for gi, group in enumerate(groups):
            if mode == "increasing":
                positions = (len(group),)
            elif mode == "min_first":
                positions = range(1, len(group) + 1)
            else:
                positions = range(len(group) + 1)
            for p in positions:
                inserted = group[:p] + (idx,) + group[p:]
                yield from extend(groups[:gi] + (inserted,) + groups[gi + 1:], idx + 1)

    yield from extend((), 0)


def test_generator_order_and_multiplicity_match_the_reference():
    for total in range(8):
        for distinguished in range(total + 1):
            ordinary = total - distinguished
            for mode in MODES:
                for k in (None, *range(-1, ordinary + 2)):
                    assert (list(iter_arrangements(ordinary, distinguished, k, mode))
                            == list(_parent_arrangements(ordinary, distinguished, k, mode))), (
                        total, distinguished, mode, k)


def test_enumeration_cap(monkeypatch):
    with pytest.raises(SizeLimitError):
        list(enumerate_distributions(7, 1, 3))
    # k = n keeps the pruned search tiny even past the default cap
    roomy = list(enumerate_distributions(10, 10, 0, cap=12))
    assert len(roomy) == 1
    for bad in (lambda: oracle_g(2, -1, 0), lambda: oracle_row(-1, 0),
                lambda: oracle_row(0, -1), lambda: enumerate_distributions(-1, 0, 0),
                lambda: enumerate_distributions(1, 0, 0, "bogus")):
        with pytest.raises(ValueError):
            bad()
    with pytest.raises(SizeLimitError):
        enumerate_distributions(20, None, 0)  # refused by the call, before any next()

    def no_enumeration(*args, **kwargs):
        raise AssertionError("an object was generated before the cap refusal")

    monkeypatch.setattr(distributions, "iter_arrangements", no_enumeration)
    with pytest.raises(SizeLimitError):
        oracle_g(8, 1, 2)
    with pytest.raises(SizeLimitError):
        oracle_row(8, 2)


def test_oracle_values():
    assert oracle_g(1, 1, 0) == ONE
    assert oracle_g(2, 1, 0) == A + B


def _reference_row(n, r):
    """The per-object weight sums the oracle's tally must reproduce, from
    the "all"-mode insertion engine rather than the oracle's set partitions."""
    tally = Counter()
    for d in enumerate_distributions(n, None, r):
        st = stats(d)
        tally[d.k, st.nrec, st.rec_star] += 1
    rows = {}
    for (k, nrec, rec_star), count in tally.items():
        rows.setdefault(k, {})[(nrec, rec_star, 0, 0)] = count
    return {k: Polynomial(terms) for k, terms in rows.items()}


def test_oracle_tally_matches_per_object_stats():
    for r in range(4):
        for n in range(8 - r):
            reference = _reference_row(n, r)
            assert oracle_row(n, r) == reference, (n, r)
            for k in range(n + 1):
                assert oracle_g(n, k, r) == reference.get(k, ZERO), (n, k, r)


def test_oracle_matches_triangle_small():
    for r in range(3):
        for n in range(6 - r):
            row = oracle_row(n, r)
            for k in range(n + 1):
                assert row.get(k, ONE - ONE) == g_poly(n, k, r)
                assert oracle_g(n, k, r) == g_poly(n, k, r)


def test_oracle_sees_a_wrong_record_low_count(capsys, monkeypatch):
    """Negative control: an off-by-one ``_lows`` (kept within the order's
    length, so every weight stays a monomial) must reach the oracle's tally
    and the CLI verdict.  The right row is computed first, so a histogram
    kept past its call would hide the patched count."""
    triangle = [g_poly(3, k, 0) for k in range(4)]
    assert [oracle_row(3, 0).get(k, ZERO) for k in range(4)] == triangle
    right = distributions._lows
    monkeypatch.setattr(distributions, "_lows", lambda order: min(right(order) + 1, len(order)))
    assert [oracle_row(3, 0).get(k, ZERO) for k in range(4)] != triangle
    assert cli.main(["oracle", "--n", "3", "--r", "0"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_bad_mode_is_refused_by_the_validators():
    with pytest.raises(ValueError):
        is_arrangement(((0,),), 1, 0, None, "bogus")
    with pytest.raises(ValueError):
        LahDistribution(1, 0, ((1,),)).follows("bogus")


def test_text_format():
    d = dist(8, 0, (1, 5, 3), (2, 9), (6,), (4,), (7,), (8,))
    assert d.text().startswith("(1,5,3)|(2,9)")


def test_iter_arrangements_modes():
    # three items, one distinguished, one extra group
    lah = list(iter_arrangements(2, 1, 1, "all"))
    cyc = list(iter_arrangements(2, 1, 1, "min_first"))
    inc = list(iter_arrangements(2, 1, 1, "increasing"))
    assert len(lah) == 6 and len(cyc) == 3 and len(inc) == 3
    for grouping in lah:
        assert len(grouping) == 2
        assert sum(len(g) for g in grouping) == 3
    assert list(iter_arrangements(2, 1, 5, "all")) == []


def test_iter_arrangements_refuses_on_the_call():
    for bad in (lambda: iter_arrangements(1, 0, None, "bogus"),
                lambda: iter_arrangements(-1, 0, None),
                lambda: iter_arrangements(0, -1, None)):
        with pytest.raises(ValueError):
            bad()  # before any next()
