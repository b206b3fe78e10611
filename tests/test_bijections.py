"""Exhaustive small-scale checks of the involutions and the bijection."""

import hashlib
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest

from rlah import bijections as bj
from rlah import cli
from rlah.distributions import (LahDistribution, SizeLimitError, check_cap,
                                enumerate_distributions)
from rlah.identities import IDENTITIES, InvalidParameters
from rlah.lah_core import g_eval

SMALL = [(n, k, r, s) for n in range(4) for k in range(n + 1)
         for r in range(3) for s in range(3)]


def applying(cid):
    return [(n, k, r, s) for n, k, r, s in SMALL if bj.construction_applies(cid, n, k, r, s)]


@pytest.fixture(autouse=True)
def delta_membership_agrees_with_holds(monkeypatch):
    """Every image a test here has the verifier check, each malformed image
    of the negative controls included, gets the same verdict from the
    delta check ``holds_after`` as from the full ``holds``."""
    holds, holds_after = bj._Family.holds, bj._Family.holds_after

    def checked(family, cfg, image):
        verdict = holds_after(family, cfg, image)
        assert verdict == holds(family, image), (cfg, image)
        return verdict

    monkeypatch.setattr(bj._Family, "holds_after", checked)


def layer_sign(cid, params):
    """The sign of a pair of the family: that of its layer."""
    n, k = params[:2]
    family = bj._family(cid, *params)
    return lambda cfg: family.sign(n, cfg.inner.k, k)


# ----------------------------------------------------------------------
# streams and signs


def test_pairs_i_instances():
    pairs = list(bj.iter_pairs("I_POS", 1, 1, 0, 0))
    assert len(pairs) == 1 and layer_sign("I_POS", (1, 1, 0, 0))(pairs[0]) == 1
    for params, signed in (((2, 1, 1, 0), 4), ((2, 1, 1, 1), 0)):
        sign = layer_sign("I_POS", params)
        assert sum(map(sign, bj.iter_pairs("I_POS", *params))) == signed


def test_pair_counts_match_the_product_of_counts():
    # |pairs with j inner non-distinguished blocks| factorizes
    n, k, r, s = 3, 1, 1, 1
    by_j = {}
    for cfg in bj.iter_pairs("II_EQ", n, k, r, s):
        j = len(cfg.inner.blocks) - r
        by_j[j] = by_j.get(j, 0) + 1
    for j, count in by_j.items():
        assert count == g_eval(n, j, r, 1, 1) * g_eval(j, k, s, 1, 0)


def test_fixed_i_counts():
    def fixed(*params):
        return sum(1 for cfg in bj.iter_pairs("I_POS", *params) if bj._is_fixed_i(cfg))

    assert fixed(2, 2, 1, 0) == 1          # n = k
    assert fixed(2, 1, 1, 0) == 4
    assert fixed(3, 1, 1, 1) == 0          # zero factor in the closed form


def test_sign_exponent_conventions():
    sign = layer_sign("I_POS", (3, 1, 2, 0))
    for cfg in bj.iter_pairs("I_POS", 3, 1, 2, 0):
        j = len(cfg.inner.blocks) - 2
        assert sign(cfg) == (-1) ** (j - 1)
    sign = layer_sign("III_EQ", (3, 1, 1, 1))
    for cfg in bj.iter_pairs("III_EQ", 3, 1, 1, 1):
        j = len(cfg.inner.blocks) - 1
        assert sign(cfg) == (-1) ** (3 - j)


# ----------------------------------------------------------------------
# involution mechanics


@pytest.mark.parametrize("kind", ["I", "II", "III"])
def test_invol_round_trip_and_sign(kind):
    # every pair of either sign, not only the positive ones the verifier maps
    invol, predicate = bj._INVOLUTIONS[kind], bj._FIXED[kind]
    cases = [(cid, params) for cid in bj.CONSTRUCTION_IDS if cid.split("_")[0] == kind
             for params in applying(cid)]
    for cid, params in cases:
        sign = layer_sign(cid, params)
        for cfg in bj.iter_pairs(cid, *params):
            if predicate(cfg):
                with pytest.raises(bj.FixedPointError):
                    invol(cfg)
                continue
            image = invol(cfg)
            image.validate()
            assert sign(image) == -sign(cfg)
            assert invol(image) == cfg


def test_moves_return_none_exactly_where_they_cannot_move():
    assert bj._seg_step(()) is None and bj._seg_step(((3,),)) is None
    assert bj._seg_step(((3,), (4,))) == ((3, 4),)
    assert bj._seg_step(((3, 4),)) == ((3,), (4,))
    assert bj._cycle_step(((2, 5),)) is None
    assert bj._cycle_step(((5, 2),)) == ((2,), (5,))
    assert bj._cycle_step(((2,), (5,))) == ((5, 2),)
    assert bj._sorted_step(()) is None and bj._sorted_step(((2,), (5,))) is None
    assert bj._sorted_step(((5,), (2,))) == ((2, 5),)
    assert bj._sorted_step(((2, 5),)) == ((5,), (2,))


def test_invol_changes_inner_block_count_by_one():
    for cfg in bj.iter_pairs("II_EQ", 3, 1, 1, 1):
        if bj._is_fixed_ii(cfg):
            continue
        image = bj.invol_ii(cfg)
        assert abs(len(image.inner.blocks) - len(cfg.inner.blocks)) == 1


def test_verify_construction_examples():
    report = bj.verify_construction("I_POS", 2, 1, 1, 0)
    assert report.passed and report.signed_sum == 4
    report = bj.verify_construction("IV", 3, 1, 1, 1)
    assert report.passed and report.closed_form == 36
    report = bj.verify_construction("II_EQ", 3, 3, 2, 2)
    assert report.passed and report.total_pairs == report.fixed_points == 1


def test_broken_involutions_fail(monkeypatch, capsys):
    # negative controls: the verifier must reject an involution that leaves
    # the pair as it is (its image's layer has the pair's sign), and a
    # fixed-set predicate that accepts one pair too many
    assert bj.verify_construction("I_POS", 2, 1, 1, 0).passed
    monkeypatch.setitem(bj._INVOLUTIONS, "I", lambda cfg: bj.invol_i(cfg) and cfg)
    report = bj.verify_construction("I_POS", 2, 1, 1, 0)
    assert not report.sign_reversing and not report.passed
    assert cli.main(["constructions", "--id", "i_pos", "--n", "2", "--k", "1",
                     "--r", "1", "--s", "0"]) == 1
    assert capsys.readouterr().out.endswith("inv=y sign=n FAIL\n")
    monkeypatch.undo()
    extra = next(cfg for cfg in bj.iter_pairs("I_POS", 2, 1, 1, 0) if not bj._is_fixed_i(cfg))
    monkeypatch.setitem(bj._FIXED, "I", lambda cfg: cfg == extra or bj._is_fixed_i(cfg))
    report = bj.verify_construction("I_POS", 2, 1, 1, 0)
    assert not report.passed and report.fixed_points == report.closed_form + 1


def _leaving_family(invol, mark, unmark, marked):
    """A sign-reversing involution whose images ``mark`` may move out of the
    pair family; ``unmark`` brings a marked image back before inverting."""
    def broken(cfg):
        if marked(cfg):
            return invol(unmark(cfg))
        return mark(cfg, invol(cfg))
    return broken


def _fails_only_membership(monkeypatch, cid, params, broken):
    kind = cid.split("_")[0]
    predicate = bj._FIXED[kind]
    sign = layer_sign(cid, params)
    left = 0
    for cfg in bj.iter_pairs(cid, *params):
        if predicate(cfg):
            continue
        image = broken(cfg)
        image.validate()
        assert sign(image) == -sign(cfg) and not predicate(image)
        assert broken(image) == cfg
        left += image != bj._INVOLUTIONS[kind](cfg)
    assert left  # some images really leave the family
    assert bj.verify_construction(cid, *params).passed
    monkeypatch.setitem(bj._INVOLUTIONS, kind, broken)
    report = bj.verify_construction(cid, *params)
    assert report.sign_reversing and report.signed_sum == report.fixed_points
    assert not report.involutive and not report.passed


def test_image_with_an_extra_outer_group_fails(monkeypatch):
    # negative control: split the last item of the last group off into a
    # group of its own, in orbits where both configurations allow it
    def splittable(cfg):
        last = cfg.outer_blocks[-1]
        return len(last) > 1 and min(last[-1]) > min(map(min, last)) and any(
            sum(map(len, g)) > 1 for g in cfg.outer_blocks[:-1] + (last[:-1],))

    def mark(before, after):
        if not (splittable(before) and splittable(after)):
            return after
        *groups, last = after.outer_blocks
        return replace(after, outer_blocks=(*groups, last[:-1], last[-1:]))

    def unmark(cfg):
        *groups, last, extra = cfg.outer_blocks
        return replace(cfg, outer_blocks=(*groups, last + extra))

    broken = _leaving_family(bj.invol_i, mark, unmark,
                             lambda cfg: len(cfg.outer_blocks) == 2)  # k + s + 1
    _fails_only_membership(monkeypatch, "I_POS", (4, 1, 1, 0), broken)


def test_image_arranging_a_left_out_block_fails(monkeypatch):
    # negative control: the left-out block led by label 1 joins the first group
    def mark(before, after):
        first, *groups = after.outer_blocks
        return replace(after, outer_blocks=(first + after.exempt, *groups), exempt=())

    def unmark(cfg):
        first, *groups = cfg.outer_blocks
        return replace(cfg, outer_blocks=(first[:-1], *groups), exempt=first[-1:])

    broken = _leaving_family(bj.invol_i, mark, unmark, lambda cfg: not cfg.exempt)
    _fails_only_membership(monkeypatch, "I_POS", (3, 1, 1, 0), broken)


def test_image_with_a_block_out_of_order_fails(monkeypatch):
    # negative control: reverse the first inner block of two or more labels,
    # in orbits where both configurations have one
    def reverse_block(cfg, block):
        def swap(item):
            return item[::-1] if item == block else item
        groups = tuple(tuple(swap(it) for it in g) for g in cfg.outer_blocks)
        return replace(cfg, outer_blocks=groups, exempt=tuple(map(swap, cfg.exempt)))

    def long_block(cfg):
        return next((b for b in cfg.inner.blocks if len(b) > 1), None)

    def mark(before, after):
        if long_block(before) is None or long_block(after) is None:
            return after
        return reverse_block(after, long_block(after))

    def unmark(cfg):
        return reverse_block(cfg, next(b for b in cfg.inner.blocks if list(b) != sorted(b)))

    def marked(cfg):
        return any(list(b) != sorted(b) for b in cfg.inner.blocks)

    broken = _leaving_family(bj.invol_iii, mark, unmark, marked)
    _fails_only_membership(monkeypatch, "III_EQ", (4, 1, 1, 1), broken)


def test_image_reusing_a_label_fails(monkeypatch):
    # negative control: each image's last inner block also gets label 1, so
    # the image is no distribution at all; the verifier reports FAIL and
    # applies neither the map nor the fixed predicate (both refuse it) to it
    def broken(cfg):
        cfg.validate()
        image = bj.invol_i(cfg)
        last = image.inner.blocks[-1]
        return replace(image, outer_blocks=tuple(tuple(it + (1,) if it == last else it
                                                       for it in g)
                                                 for g in image.outer_blocks))

    assert bj.verify_construction("I_POS", 3, 1, 1, 0).passed
    monkeypatch.setitem(bj._INVOLUTIONS, "I", broken)
    monkeypatch.setitem(bj._FIXED, "I", lambda cfg: cfg.validate() or bj._is_fixed_i(cfg))
    report = bj.verify_construction("I_POS", 3, 1, 1, 0)
    assert report.sign_reversing and not report.involutive and not report.passed
    assert "inv=n" in report.line() and report.line().endswith("FAIL")


@pytest.mark.parametrize("junk", [(), ("x",), ([9],)])
def test_image_with_an_unreadable_item_fails(monkeypatch, capsys, junk):
    # negative control: the last item of each image is an empty block or a
    # block holding a str or a list; no inner distribution can be derived,
    # so the membership test refuses the image: FAIL, not a traceback
    def broken(cfg):
        image = bj.invol_i(cfg)
        *groups, last = image.outer_blocks
        return replace(image, outer_blocks=(*groups, last[:-1] + (junk,)))

    monkeypatch.setitem(bj._INVOLUTIONS, "I", broken)
    assert bj.verify_construction("I_POS", 3, 1, 1, 0).line().endswith("inv=n sign=y FAIL")
    assert cli.main(["constructions", "--id", "i_pos", "--n", "3", "--k", "1",
                     "--r", "1", "--s", "0"]) == 1
    assert capsys.readouterr().out.endswith("inv=n sign=y FAIL\n")


# ----------------------------------------------------------------------
# the sign-directed check: the map is applied to the positive pairs only

INVOLUTION_CASES = [(cid, params) for cid in bj.CONSTRUCTION_IDS if cid != "IV"
                    for params in applying(cid)]


def _wrong_on_negatives(monkeypatch, kind, pairs, sign):
    """Right on pairs of sign +1; sends each pair of sign -1 to a family
    member of sign +1 other than its true image."""
    invol = bj._INVOLUTIONS[kind]
    positives = [cfg for cfg in pairs if sign(cfg) > 0]

    def broken(cfg):
        image = invol(cfg)
        if sign(cfg) > 0:
            return image
        return positives[(positives.index(image) + 1) % len(positives)]
    monkeypatch.setitem(bj._INVOLUTIONS, kind, broken)


def _raising_on_negatives(monkeypatch, kind, pairs, sign):
    """Right on pairs of sign +1; raises FixedPointError on pairs of sign -1."""
    invol = bj._INVOLUTIONS[kind]

    def broken(cfg):
        if sign(cfg) < 0:
            raise bj.FixedPointError("control")
        return invol(cfg)
    monkeypatch.setitem(bj._INVOLUTIONS, kind, broken)


def _missing_a_fixed_point(monkeypatch, kind, pairs, sign):
    """A fixed predicate that rejects one genuine fixed point, on which the
    map raises FixedPointError."""
    predicate = bj._FIXED[kind]
    dropped = next(cfg for cfg in pairs if predicate(cfg))
    monkeypatch.setitem(bj._FIXED, kind, lambda cfg: cfg != dropped and predicate(cfg))


def _orbit_taken_as_fixed(monkeypatch, kind, pairs, sign):
    """A fixed predicate that also accepts one positive non-fixed pair, and a
    map that raises FixedPointError on that pair and on its image: the map
    agrees with the predicate, but the fixed count is one too large.  No
    positive pair maps to that image, so only a trace line applies the map
    to it."""
    invol, predicate = bj._INVOLUTIONS[kind], bj._FIXED[kind]
    extra = next(cfg for cfg in pairs if sign(cfg) > 0 and not predicate(cfg))
    orbit = {extra, invol(extra)}

    def broken(cfg):
        if cfg in orbit:
            raise bj.FixedPointError("control")
        return invol(cfg)
    monkeypatch.setitem(bj._FIXED, kind, lambda cfg: cfg == extra or predicate(cfg))
    monkeypatch.setitem(bj._INVOLUTIONS, kind, broken)


def _negative_taken_as_fixed(monkeypatch, kind, pairs, sign):
    """A fixed predicate that also accepts one non-fixed pair of sign -1;
    the map is right.  The predicate is run on positive pairs only, so
    this shows only when the positive pair mapping to that pair finds its
    image fixed."""
    predicate = bj._FIXED[kind]
    extra = next(cfg for cfg in pairs if sign(cfg) < 0 and not predicate(cfg))
    monkeypatch.setitem(bj._FIXED, kind, lambda cfg: cfg == extra or predicate(cfg))


#: control -> (construction, parameters, installer, end of the report line)
SIGN_CONTROLS = {
    "wrong-on-negatives": ("I_POS", (3, 1, 1, 0), _wrong_on_negatives, "inv=n sign=y FAIL"),
    "raising-on-negatives": ("III_EQ", (3, 1, 1, 1), _raising_on_negatives,
                             "inv=n sign=y FAIL"),
    "missed-fixed-point": ("I_POS", (2, 1, 1, 0), _missing_a_fixed_point, "inv=n sign=y FAIL"),
    "orbit-taken-as-fixed": ("I_POS", (3, 1, 1, 0), _orbit_taken_as_fixed, "inv=y sign=y FAIL"),
    "negative-taken-as-fixed": ("I_POS", (3, 1, 1, 0), _negative_taken_as_fixed,
                                "inv=n sign=y FAIL"),
}


def _install(monkeypatch, control):
    cid, params, install, _ = SIGN_CONTROLS[control]
    install(monkeypatch, cid.split("_")[0], list(bj.iter_pairs(cid, *params)),
            layer_sign(cid, params))
    return cid, params


def test_wrong_on_negatives_is_wrong_only_there(monkeypatch):
    cid, params = _install(monkeypatch, "wrong-on-negatives")
    broken, sign = bj._INVOLUTIONS["I"], layer_sign(cid, params)
    family = set(bj.iter_pairs(cid, *params))
    negatives = 0
    for cfg in family:
        if bj._is_fixed_i(cfg):
            continue
        image = broken(cfg)
        if sign(cfg) > 0:
            assert image == bj.invol_i(cfg)
            continue
        negatives += 1
        assert image != bj.invol_i(cfg) and sign(image) == 1 and image in family
    assert negatives


@pytest.mark.parametrize("control", SIGN_CONTROLS)
def test_sign_directed_controls_fail(monkeypatch, capsys, control):
    # negative controls: the map is applied to the positive pairs, so a map
    # broken only on the negative pairs must fail through the check that
    # maps each image back, and a FixedPointError is a FAIL, not a traceback
    cid, params, _, ending = SIGN_CONTROLS[control]
    assert bj.verify_construction(cid, *params).passed
    _install(monkeypatch, control)
    report = bj.verify_construction(cid, *params)
    assert not report.passed and report.line().endswith(ending)
    argv = ["constructions", "--id", cid.lower()]
    for name, value in zip("nkrs", params):
        argv += [f"--{name}", str(value)]
    for trace in ([], ["--trace"]):
        assert cli.main(argv + trace) == 1
        assert capsys.readouterr().out.endswith(ending + "\n")


def _two_visit_report(cid, n, k, r, s):
    """Reference verdict: the map applied to every non-fixed pair and again
    to its image, so each 2-orbit is checked from both of its pairs."""
    family = bj._family(cid, n, k, r, s)
    sign = layer_sign(cid, (n, k, r, s))
    target = bj.closed_form(cid, n, k, r, s)
    kind = cid.split("_")[0]
    invol, predicate = bj._INVOLUTIONS[kind], bj._FIXED[kind]
    mode, level_of, relabel = bj._SURVIVORS.get(bj._CONSTRUCTIONS[cid][0], (None, None, None))
    survivors = set()
    total = fixed = signed = 0
    involutive = sign_reversing = True
    for cfg in bj.iter_pairs(cid, n, k, r, s):
        total += 1
        signed += sign(cfg)
        if predicate(cfg):
            fixed += 1
            sign_reversing = sign_reversing and sign(cfg) == 1
            if relabel is not None:
                survivors.add(relabel(family, cfg))
            try:
                invol(cfg)
            except bj.FixedPointError:
                pass
            else:
                involutive = False
            continue
        image = invol(cfg)
        if sign(image) != -sign(cfg):
            sign_reversing = False
        if not family.holds(image):
            involutive = False
        elif predicate(image) or invol(image) != cfg:
            involutive = False
    passed = involutive and sign_reversing and signed == fixed == target
    if passed and relabel is not None:
        level = level_of(r, s)
        passed = len(survivors) == fixed and survivors == {
            d.blocks for d in enumerate_distributions(n, k, level, mode, n + level)}
    return bj.InvolutionReport(cid, (n, k, r, s), total, fixed, signed, target,
                               involutive, sign_reversing, None, passed)


def test_counted_layers_match_the_built_ones():
    # the verifier counts the layers of sign -1 instead of building them
    counted = 0
    for cid, params in INVOLUTION_CASES:
        n, k = params[:2]
        family = bj._family(cid, *params)
        built = Counter(cfg.inner.k for cfg in bj.iter_pairs(cid, *params))
        for j in range(k, n + 1):
            if family.sign(n, j, k) < 0:
                assert bj._layer_size(family, j, None) == built[j], (cid, params, j)
                counted += built[j] > 0
    assert counted


def test_counted_layer_over_the_cap_is_refused_before_any_pair(monkeypatch):
    cid, (n, k, r, s) = "III_EQ", (3, 2, 1, 1)
    assert bj._family(cid, n, k, r, s).sign(n, k, k) < 0  # the first layer is counted

    def no_pair(*args):
        raise AssertionError("a pair was built")
    monkeypatch.setattr(bj, "OuterArrangement", no_pair)
    with pytest.raises(SizeLimitError):
        bj.verify_construction(cid, n, k, r, s, cap=n + r - 1)


def test_outer_side_over_the_cap_is_refused_on_the_call(monkeypatch):
    # n + r = 5 is within the cap, the n + s = 17 outer items are not
    def no_grouping(*args):
        raise AssertionError("a grouping was generated")

    monkeypatch.setattr(bj, "iter_arrangements", no_grouping)
    family = bj._family("I_NEG", 5, 0, 0, 12)
    for call in (lambda: bj.iter_pairs("I_NEG", 5, 0, 0, 12),
                 lambda: bj._layer_size(family, 5, None),
                 lambda: bj.verify_construction("I_NEG", 5, 0, 0, 12),
                 lambda: check_cap(5, 0, None, 12)):
        with pytest.raises(SizeLimitError, match=r"n\+s = 17"):
            call()
    bj.iter_pairs("I_NEG", 5, 0, 0, 12, cap=17)  # a raised cap admits both sides


def test_sign_directed_verdict_matches_the_two_visit_reference():
    for cid, params in INVOLUTION_CASES:
        report = bj.verify_construction(cid, *params)
        assert report == _two_visit_report(cid, *params)
        assert report.passed, report.line()


def test_trace_moves_every_pair_off_the_fixed_set():
    # the trace is a separate pass over both signs: an involution moves each
    # non-fixed pair, the bijection every pair
    for cid, params in INVOLUTION_CASES + [("IV", params) for params in applying("IV")]:
        report = bj.verify_construction(cid, *params)
        events = sum(1 for _ in bj.trace_construction(cid, *params))
        moved = report.total_pairs - (0 if cid == "IV" else report.fixed_points)
        assert events == moved, (cid, params)


@pytest.mark.parametrize("control", [None, *SIGN_CONTROLS])
def test_trace_does_not_change_the_verdict(monkeypatch, control):
    # the trace pass shares the maps with the verifier: under a broken map it
    # must still run to the end, and the verdict after it is the one before
    cases = INVOLUTION_CASES if control is None else [_install(monkeypatch, control)]
    for cid, params in cases:
        before = bj.verify_construction(cid, *params)
        for _ in bj.trace_construction(cid, *params):
            pass
        assert bj.verify_construction(cid, *params) == before, (cid, params)


def test_constructions_partition_their_identities():
    proves = {"RLAH_I": ("I_POS",), "RLAH_I_NEG": ("I_NEG",),
              "RLAH_II": ("II_EQ", "II_MID", "II_GT"),
              "RLAH_III": ("III_EQ", "III_LT", "III_MID"), "RLAH_IV": ("IV",)}
    assert sorted(cid for cids in proves.values() for cid in cids) == sorted(bj.CONSTRUCTION_IDS)
    for ident, cids in proves.items():
        precondition = IDENTITIES[ident][1]
        for params in product(range(-1, 6), repeat=4):
            applying = sum(bj.construction_applies(cid, *params) for cid in cids)
            assert applying == (1 if precondition(*params) else 0), (ident, params)


@pytest.mark.parametrize("cid", bj.CONSTRUCTION_IDS)
def test_all_constructions_small(cid):
    for n, k, r, s in applying(cid):
        report = bj.verify_construction(cid, n, k, r, s)
        assert report.passed, report.line()


def test_trade_with_each_of_two_exempt_blocks(capsys):
    # at r = 4, s = 2 the blocks led by 3 and 4 are left out, and III trades
    # between the group holding label i and the block led by r + 1 - i.
    # Pairing them the other way is another involution with the same
    # verdicts, so only the trace digest pins the pairing
    for k in range(3):
        report = bj.verify_construction("III_MID", 3, k, 4, 2)
        assert report.passed and report.total_pairs > report.fixed_points, report.line()
    assert cli.main(["constructions", "--id", "iii_mid", "--n", "0..3", "--k", "0..3",
                     "--r", "4", "--s", "2", "--trace"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "650fdf7d6ec96d2a79b67251043d14ef917854e19d93bd737d8f8332dce9cdc4")


def test_invalid_parameters():
    with pytest.raises(InvalidParameters):
        bj.verify_construction("IV", 2, 1, 1, 2)      # parity
    with pytest.raises(InvalidParameters):
        bj.verify_construction("II_MID", 2, 1, 1, 3)  # s > 2r
    with pytest.raises(InvalidParameters):
        bj.verify_construction("I_POS", 2, 1, 0, 1)   # r < s
    with pytest.raises(InvalidParameters):
        bj.verify_construction("NOPE", 1, 1, 0, 0)


# ----------------------------------------------------------------------
# survivor sets against direct enumeration


@pytest.mark.parametrize("cid,params", [
    ("II_EQ", (2, 1, 1, 1)), ("II_MID", (3, 2, 1, 2)), ("II_GT", (2, 1, 2, 1)),
    ("III_EQ", (2, 1, 1, 1)), ("III_LT", (2, 1, 0, 1)), ("III_MID", (3, 2, 2, 1))])
def test_survivor_relabelled_onto_another_fails(monkeypatch, capsys, cid, params):
    # negative control: a relabelling that is right except that it sends one
    # survivor onto another survivor's distribution; counts, signs and
    # involutivity all hold, so only the survivor set can fail the report
    identity = bj._CONSTRUCTIONS[cid][0]
    mode, level, relabel = bj._SURVIVORS[identity]
    predicate = bj._FIXED[cid.split("_")[0]]
    first, second = [cfg for cfg in bj.iter_pairs(cid, *params) if predicate(cfg)][:2]

    def broken(family, cfg):
        return relabel(family, second if cfg == first else cfg)

    assert bj.verify_construction(cid, *params).passed
    monkeypatch.setitem(bj._SURVIVORS, identity, (mode, level, broken))
    report = bj.verify_construction(cid, *params)
    assert report.involutive and report.sign_reversing
    assert report.signed_sum == report.fixed_points == report.closed_form
    assert not report.passed
    n, k, r, s = map(str, params)
    assert cli.main(["constructions", "--id", cid.lower(), "--n", n, "--k", k,
                     "--r", r, "--s", s]) == 1
    assert capsys.readouterr().out.endswith("inv=y sign=y FAIL\n")


@pytest.mark.parametrize("cid,params,cap", [("II_GT", (2, 1, 2, 0), 4),
                                            ("III_LT", (2, 1, 0, 2), 4)])
def test_survivor_level_is_not_capped(cid, params, cap):
    # n + r and n + s are within the cap, n + level (2r - s or 2s - r) is not
    report = bj.verify_construction(cid, *params, cap=cap)
    assert report.passed and report.fixed_points == 9


def test_fixed_points_carry_positive_sign():
    for cid in ("I_NEG", "III_LT"):
        for n, k, r, s in applying(cid):
            predicate = bj._FIXED[cid.split("_")[0]]
            sign = layer_sign(cid, (n, k, r, s))
            for cfg in bj.iter_pairs(cid, n, k, r, s):
                if predicate(cfg):
                    assert sign(cfg) == 1


# ----------------------------------------------------------------------
# the bijection


def test_map_iv_plain_case():
    pairs = list(bj.iter_pairs("IV", 2, 1, 0, 0))
    assert len(pairs) == 2 == g_eval(2, 1, 0, 1, 1)
    images = {bj.map_iv(cfg).blocks for cfg in pairs}
    assert images == {d.blocks for d in enumerate_distributions(2, 1, 0)}


def test_map_iv_round_trips():
    for n, k, r, s in applying("IV"):
        seen = set()
        for cfg in bj.iter_pairs("IV", n, k, r, s):
            image = bj.map_iv(cfg)
            image.validate()
            assert image.r == (r + s) // 2 and image.k == k
            assert image.blocks not in seen
            seen.add(image.blocks)
            assert bj.inv_iv(image, r, s) == cfg
        assert len(seen) == g_eval(n, k, (r + s) // 2, 1, 1)


def test_inv_iv_then_map_iv_is_identity():
    for L in enumerate_distributions(3, 1, 2):
        cfg = bj.inv_iv(L, 3, 1)
        assert bj.map_iv(cfg).blocks == L.blocks


def test_map_iv_rejects_bad_input():
    broken = replace(next(bj.iter_pairs("IV", 2, 1, 1, 1)), outer_kind="all")
    with pytest.raises((bj.MalformedConfiguration, InvalidParameters)):
        bj.map_iv(broken)
    with pytest.raises((bj.MalformedConfiguration, InvalidParameters)):
        bj.inv_iv(next(enumerate_distributions(2, 1, 1)), 1, 3)  # wrong level


@pytest.mark.parametrize("outside", [
    lambda image: replace(image, r=image.r - 1),                 # one level lower
    lambda image: replace(image, blocks=image.blocks[::-1])])    # blocks out of order
def test_map_iv_image_outside_the_codomain_fails(monkeypatch, capsys, outside):
    # negative control: inv_iv is not defined on such an image, so the
    # verifier reports FAIL instead of applying it
    map_iv = bj.map_iv
    monkeypatch.setattr(bj, "map_iv", lambda cfg: outside(map_iv(cfg)))
    report = bj.verify_construction("IV", 2, 1, 1, 1)
    assert not report.involutive and not report.passed
    assert cli.main(["constructions", "--id", "iv", "--n", "2", "--k", "1",
                     "--r", "1", "--s", "1"]) == 1
    assert capsys.readouterr().out.endswith("FAIL\n")


def test_map_iv_sending_two_pairs_to_one_image_fails(monkeypatch, capsys):
    # negative control: the second pair's image maps back to the first pair,
    # so the round trip alone refutes injectivity, with no image set
    first, second, *_ = bj.iter_pairs("IV", 2, 1, 1, 1)
    map_iv = bj.map_iv
    monkeypatch.setattr(bj, "map_iv", lambda cfg: map_iv(first if cfg == second else cfg))
    report = bj.verify_construction("IV", 2, 1, 1, 1)
    assert report.total_pairs == report.closed_form
    assert report.bijective is False and not report.passed
    assert cli.main(["constructions", "--id", "iv", "--n", "2", "--k", "1",
                     "--r", "1", "--s", "1"]) == 1
    assert capsys.readouterr().out.endswith("bij=n FAIL\n")


# ----------------------------------------------------------------------
# configuration plumbing


#: At n = 3, r = 1: one special, the distinguished block (1,), and the two
#: ordinary blocks (2, 4) and (3,), all arranged.
GOOD = ((-1, (2, 4)), ((1,), (3,)))

#: (specials, outer groups, exempt blocks, outer kind) at n = 3, r = 1, each
#: breaking one invariant of GOOD.
MALFORMED = [
    (1, GOOD + ((),), (), "all"),                          # empty group
    (1, ((-1, (1,), (2, 4)), ((3,),)), (), "all"),         # two distinguished items together
    (1, ((-1, (2, 4)), ((3,), (1,))), (), "min_first"),    # cycle not led by its smallest
    (1, ((-1, (2, 4)), ((3,), (1,))), (), "increasing"),   # increasing group out of order
    (1, ((-2, (2, 4)), ((1,), (3,))), (), "all"),          # special labels not -1..-1
    (1, ((-1, (2,)), ((1,), (3,))), (), "all"),            # label 4 in no block
    (1, GOOD, ((1,),), "all"),                             # a block arranged and exempt
    (1, ((-1, (2, 4)), ((1,),)), ((3,),), "all"),          # an ordinary block exempt
    (1, ((-1, (2, 4)),), ((1,), (3,)), "all"),             # more exempt blocks than r
    (1, (((1,), (3,)), (-1, (2, 4))), (), "all"),          # groups out of canonical order
    (1, GOOD, (), "lah"),                                  # unknown kind
    (-1, (((1,), (2, 4), (3,)),), (), "all"),              # negative special count
    (1, ((-1, [2, 4]), ((1,), (3,))), (), "all"),          # a block given as a list
    (1, ((-1, (2, 4)), ((3,),)), ([1],), "all"),           # an exempt block as a list
]


def test_outer_arrangement_validate_catches_duplicates():
    cfg = next(bj.iter_pairs("I_POS", 2, 1, 1, 0))
    doubled = replace(cfg, outer_blocks=cfg.outer_blocks + cfg.outer_blocks[-1:])
    with pytest.raises(bj.MalformedConfiguration):
        doubled.validate()
    for kind in ("all", "min_first", "increasing"):
        bj.OuterArrangement(3, 1, 1, GOOD, (), kind).validate()
    for specials, groups, exempt, kind in MALFORMED:
        with pytest.raises(bj.MalformedConfiguration):
            bj.OuterArrangement(3, 1, specials, groups, exempt, kind).validate()
    # at r = 2 the block led by 2 is arranged while the block led by 1 is left out
    with pytest.raises(bj.MalformedConfiguration):
        bj.OuterArrangement(1, 2, 0, (((2,),), ((3,),)), ((1,),), "all").validate()
    # both left out, but not in order of their minima
    bj.OuterArrangement(1, 2, 0, (((3,),),), ((1,), (2,)), "all").validate()
    with pytest.raises(bj.MalformedConfiguration):
        bj.OuterArrangement(1, 2, 0, (((3,),),), ((2,), (1,)), "all").validate()
    # outer items that are neither an int nor a tuple block of ints
    for groups in ((([2],),), (((1, [2]),),), ((("2",),),)):
        with pytest.raises(bj.MalformedConfiguration):
            bj.OuterArrangement(2, 0, 0, groups, (), "all").validate()


def _every_pair():
    for cid in bj.CONSTRUCTION_IDS:
        for params in applying(cid):
            family = bj._family(cid, *params)
            for cfg in bj.iter_pairs(cid, *params):
                yield family, cfg


def test_validate_accepts_every_pair():
    # validate is membership of the family a configuration implies, so it
    # holds every pair of every construction's family
    pairs = 0
    for _, cfg in _every_pair():
        cfg.validate()
        pairs += 1
    assert pairs == 9705


def test_every_pair_stores_each_inner_block_once():
    # the derived inner distribution is one the family's inner enumeration
    # yields, and the exempt blocks are exactly its left-out blocks
    inners = {}
    pairs = 0
    for family, cfg in _every_pair():
        n, r, mode = key = family.n, family.r, family.inner_mode
        if key not in inners:
            inners[key] = set(enumerate_distributions(n, None, r, mode))
        assert cfg.inner in inners[key]
        assert cfg.exempt == cfg.inner.blocks[family.low:family.r]
        pairs += 1
    assert pairs == 9705


def _held_twice(image):
    """The image with its first arranged block also exempt."""
    block = next(it for g in image.outer_blocks for it in g if not isinstance(it, int))
    return replace(image, exempt=image.exempt + (block,))


def _ordinary_exempt(image):
    """The image with its exempt block and the last item of its last group
    swapped: an ordinary block is exempt, the left-out block arranged."""
    *groups, last = image.outer_blocks
    return replace(image, outer_blocks=(*groups, last[:-1] + image.exempt), exempt=last[-1:])


@pytest.mark.parametrize("malformed,ending", [(_held_twice, "inv=n sign=n FAIL"),
                                              (_ordinary_exempt, "inv=n sign=y FAIL")])
def test_image_with_wrong_exempt_blocks_fails(monkeypatch, capsys, malformed, ending):
    # negative controls: no family member is malformed this way, and an
    # involution whose images are fails through the membership test
    cid, params = "I_POS", (3, 1, 1, 0)
    family = bj._family(cid, *params)
    for cfg in bj.iter_pairs(cid, *params):
        with pytest.raises(bj.MalformedConfiguration):
            malformed(cfg).validate()
        assert not family.holds(malformed(cfg))
    assert bj.verify_construction(cid, *params).passed
    monkeypatch.setitem(bj._INVOLUTIONS, "I", lambda cfg: malformed(bj.invol_i(cfg)))
    report = bj.verify_construction(cid, *params)
    assert not report.involutive and report.line().endswith(ending)
    assert cli.main(["constructions", "--id", "i_pos", "--n", "3", "--k", "1",
                     "--r", "1", "--s", "0"]) == 1
    assert capsys.readouterr().out.endswith(ending + "\n")


# ----------------------------------------------------------------------
# membership read from what a move changed


def test_delta_membership_agrees_with_holds_on_every_image():
    # both signs: the verifier maps the positive pairs only, the reference
    # above the negative ones too
    images = 0
    for cid, params in INVOLUTION_CASES:
        family = bj._family(cid, *params)
        kind = cid.split("_")[0]
        for cfg in bj.iter_pairs(cid, *params):
            if not bj._FIXED[kind](cfg):
                image = bj._INVOLUTIONS[kind](cfg)
                assert family.holds_after(cfg, image) and family.holds(image)
                images += 1
    assert images == 7624


def test_verifier_does_not_fall_back_to_the_full_membership_test(monkeypatch):
    def no_full_check(family, cfg):
        raise AssertionError("holds was called")

    monkeypatch.setattr(bj._Family, "holds", no_full_check)
    for cid, params in (("I_POS", (3, 1, 1, 0)), ("I_NEG", (3, 1, 0, 2)),
                        ("II_MID", (3, 1, 1, 2)), ("III_MID", (3, 1, 2, 1))):
        assert bj.verify_construction(cid, *params).passed


def _with_groups(image, changed):
    """The image with the groups at the indices of ``changed`` replaced."""
    groups = list(image.outer_blocks)
    for i, group in changed.items():
        groups[i] = group
    return replace(image, outer_blocks=tuple(groups))


def _blocks_of(image):
    """(group index, position, block) of each arranged block."""
    return [(gi, pos, it) for gi, g in enumerate(image.outer_blocks)
            for pos, it in enumerate(g) if not isinstance(it, int)]


def _below_left_neighbour(cfg, image):
    # an item of group i-2 below group i-1's least moves into group i, whose
    # left neighbour is the pair's own
    groups = image.outer_blocks
    for i in range(2, len(groups)):
        lowest = bj._group_key(groups[i - 2])
        for pos, it in enumerate(groups[i - 2]):
            if (groups[i - 1] is cfg.outer_blocks[i - 1]
                    and lowest < bj._rank(it) < bj._group_key(groups[i - 1])):
                return _with_groups(image, {i - 2: groups[i - 2][:pos] + groups[i - 2][pos + 1:],
                                            i: groups[i] + (it,)})
    return None


def _above_right_neighbour(cfg, image):
    # group i's least item joins group i-1, leaving group i above its right
    # neighbour, the pair's own
    groups = image.outer_blocks
    for i in range(1, len(groups) - 1):
        group = groups[i]
        pos = min(range(len(group)), key=lambda p: bj._rank(group[p]))
        rest = group[:pos] + group[pos + 1:]
        if (rest and groups[i + 1] is cfg.outer_blocks[i + 1]
                and bj._group_key(rest) > bj._group_key(groups[i + 1])):
            return _with_groups(image, {i - 1: groups[i - 1] + group[pos:pos + 1], i: rest})
    return None


def _second_distinguished_in_the_first_group(cfg, image):
    # group 1 (s = 2) gives up its distinguished item to group 0
    groups = image.outer_blocks
    group = groups[1]
    pos = min(range(len(group)), key=lambda p: bj._rank(group[p]))
    rest = group[:pos] + group[pos + 1:]
    if rest and (len(groups) == 2 or bj._group_key(rest) < bj._group_key(groups[2])):
        return _with_groups(image, {0: groups[0] + group[pos:pos + 1], 1: rest})
    return None


def _not_led_by_its_least(cfg, image):
    # a min-first group rotated so that its least item is no longer first
    for gi, group in enumerate(image.outer_blocks):
        if len(group) > 1:
            return _with_groups(image, {gi: group[1:] + group[:1]})
    return None


def _out_of_increasing_order(cfg, image):
    for gi, group in enumerate(image.outer_blocks):
        if len(group) > 1:
            return _with_groups(image, {gi: group[::-1]})
    return None


def _block_not_led_by_its_minimum(cfg, image):
    for gi, pos, block in _blocks_of(image):
        if len(block) > 1:
            group = image.outer_blocks[gi]
            return _with_groups(image, {gi: group[:pos] + (block[1:] + block[:1],)
                                        + group[pos + 1:]})
    return None


def _singleton_as_an_int(cfg, image):
    # a label of its own read as a positive special: same labels, same rank
    for gi, pos, block in _blocks_of(image):
        if len(block) == 1:
            group = image.outer_blocks[gi]
            return _with_groups(image, {gi: group[:pos] + block + group[pos + 1:]})
    return None


def _block_as_a_list(cfg, image):
    gi, pos, block = _blocks_of(image)[0]
    group = image.outer_blocks[gi]
    return _with_groups(image, {gi: group[:pos] + (list(block),) + group[pos + 1:]})


def _special_as_a_block(cfg, image):
    # the special -1 held as the block (-1,): same labels, same rank
    gi, pos, _ = bj._locate(image, -1)
    group = image.outer_blocks[gi]
    return _with_groups(image, {gi: group[:pos] + ((-1,),) + group[pos + 1:]})


def _exempt_out_of_order(cfg, image):
    return replace(image, exempt=image.exempt[::-1])


def _label_lost(cfg, image):
    for gi, pos, block in _blocks_of(image):
        if len(block) > 1:
            group = image.outer_blocks[gi]
            return _with_groups(image, {gi: group[:pos] + (block[:-1],) + group[pos + 1:]})
    return None


def _label_duplicated(cfg, image):
    # a block takes a copy of a label above its minimum from another block
    blocks = _blocks_of(image)
    for gi, pos, block in blocks:
        for _, _, other in blocks:
            extra = [e for e in other if e > min(block) and e != min(other)]
            if other is not block and extra:
                group = image.outer_blocks[gi]
                return _with_groups(image, {gi: group[:pos] + (block + tuple(extra[:1]),)
                                            + group[pos + 1:]})
    return None


def _two_distinguished_labels(cfg, image):
    # label 2 leaves its exempt block for the arranged block led by 1
    (led_by_2,) = image.exempt
    if len(led_by_2) == 1:
        return None
    gi, pos, block = bj._locate(image, 1)
    group = image.outer_blocks[gi]
    return replace(_with_groups(image, {gi: group[:pos] + (block + (2,),) + group[pos + 1:]}),
                   exempt=(tuple(e for e in led_by_2 if e != 2),))


def _field(**changes):
    return lambda cfg, image: replace(image, **changes)


#: One malformed image per membership clause, each built from the image of
#: a real pair and breaking that clause alone; IV has no involution, so its
#: cases (the only outer increasing and inner min-first families) test the
#: two membership checks on a pair, not the verifier.
ONE_CLAUSE = [
    ("n", "I_POS", (3, 1, 1, 0), _field(n=4)),
    ("r", "I_POS", (3, 1, 1, 0), _field(r=2)),
    ("specials", "I_NEG", (3, 1, 0, 1), _field(specials=2)),
    ("outer-kind", "II_EQ", (3, 1, 1, 1), _field(outer_kind="all")),
    ("left-neighbour", "I_POS", (4, 3, 0, 0), _below_left_neighbour),
    ("right-neighbour", "I_POS", (4, 3, 0, 0), _above_right_neighbour),
    ("distinguished-lead", "I_NEG", (3, 1, 0, 2), _second_distinguished_in_the_first_group),
    ("outer-min_first", "II_EQ", (3, 1, 1, 1), _not_led_by_its_least),
    ("outer-increasing", "IV", (3, 1, 1, 1), _out_of_increasing_order),
    ("inner-min_first", "IV", (3, 1, 1, 1), _block_not_led_by_its_minimum),
    ("positive-int", "I_POS", (3, 1, 1, 0), _singleton_as_an_int),
    ("block-as-a-list", "I_POS", (3, 1, 1, 0), _block_as_a_list),
    ("special-in-a-block", "I_NEG", (3, 1, 0, 1), _special_as_a_block),
    ("two-distinguished-labels", "I_POS", (3, 1, 2, 1), _two_distinguished_labels),
    ("arranged-block-led-by-low-plus-1", "I_POS", (3, 1, 1, 0),
     lambda cfg, image: _ordinary_exempt(image)),
    ("exempt-lead", "I_POS", (3, 1, 2, 0), _exempt_out_of_order),
    ("lost-label", "I_POS", (3, 1, 1, 0), _label_lost),
    ("duplicated-label", "I_POS", (4, 1, 1, 0), _label_duplicated),
]


@pytest.mark.parametrize("cid,params,malform", [case[1:] for case in ONE_CLAUSE],
                         ids=[case[0] for case in ONE_CLAUSE])
def test_image_breaking_one_membership_clause_fails(monkeypatch, capsys, cid, params, malform):
    family = bj._family(cid, *params)
    if cid == "IV":
        cfg, bad = next((cfg, bad) for cfg in bj.iter_pairs(cid, *params)
                        if (bad := malform(cfg, cfg)) is not None)
        assert not family.holds(bad) and not family.holds_after(cfg, bad)
        return
    kind = cid.split("_")[0]
    invol, predicate = bj._INVOLUTIONS[kind], bj._FIXED[kind]
    cfg, bad = next((cfg, bad) for cfg in bj.iter_pairs(cid, *params, signs=(1,))
                    if not predicate(cfg) and (bad := malform(cfg, invol(cfg))) is not None)
    assert family.holds(invol(cfg)) and not family.holds(bad)
    assert not family.holds_after(cfg, bad)
    assert bj.verify_construction(cid, *params).passed
    monkeypatch.setitem(bj._INVOLUTIONS, kind, lambda pair: bad if pair == cfg else invol(pair))
    report = bj.verify_construction(cid, *params)
    assert not report.involutive and not report.passed
    # a non-member's sign is read from its blocks, as before the delta check
    n, k, r = params[:3]
    assert report.sign_reversing == (family.sign(n, len(bad.inner_blocks()) - r, k) < 0)


def test_trace_texts():
    events = [(before.text(), after.text())
              for before, after in bj.trace_construction("I_POS", 2, 1, 1, 0)]
    assert len(events) == 4
    for before, after in events:
        assert "(" in before and "(" in after
    cyc = next(bj.iter_pairs("II_MID", 2, 1, 1, 2))
    assert "⟨" in cyc.text() and "[-1]" in cyc.text()


def test_closed_forms():
    assert bj.closed_form("I_POS", 2, 1, 1, 0) == 4
    assert bj.closed_form("I_NEG", 2, 0, 0, 1) == 2
    assert bj.closed_form("IV", 3, 1, 1, 1) == 36


# ----------------------------------------------------------------------
# reference copies of the move order and the I predicate: every special
# located by its own scan, the blocks listed before the groups are read


def _ref_seg_step(segment):
    if sum(map(len, segment)) < 2:
        return None
    first = segment[0]
    if len(first) == 1:
        return ((first[0],) + segment[1],) + segment[2:]
    return ((first[0],), first[1:]) + segment[1:]


def _ref_locate(cfg, label):
    for gi, group in enumerate(cfg.outer_blocks):
        for pos, it in enumerate(group):
            if it == label if isinstance(it, int) else label in it:
                return gi, pos, it
    raise bj.MalformedConfiguration(f"label {label} is not arranged")


def _ref_step(cfg, group_step, section_step, trade=None):
    for gi, group in enumerate(cfg.outer_blocks):
        if cfg.specials and any(isinstance(it, int) for it in group):
            continue
        moved = group_step(group)
        if moved is not None:
            return bj._with_group(cfg, gi, moved)
    for i in range(1, cfg.specials + 1):
        gi, pos, _ = _ref_locate(cfg, -i)
        group = cfg.outer_blocks[gi]
        left, right = group[:pos], group[pos + 1:]
        moved = section_step(left)
        if moved is not None:
            return bj._with_group(cfg, gi, moved + (-i,) + right)
        moved = section_step(right)
        if moved is not None:
            return bj._with_group(cfg, gi, left + (-i,) + moved)
        if trade is not None:
            moved = trade(cfg, i, gi)
            if moved is not None:
                return moved
    return None


def _ref_is_fixed_i(cfg):
    if cfg.specials == 0:
        return all(sum(map(len, g)) == 1 for g in cfg.outer_blocks)
    blocks = [it for g in cfg.outer_blocks for it in g if not isinstance(it, int)]
    if any(len(b) != 1 for b in blocks + list(cfg.exempt)):
        return False
    for group in cfg.outer_blocks:
        pos = next((i for i, it in enumerate(group) if isinstance(it, int)), None)
        if pos is None:
            if len(group) != 1:
                return False
        elif pos > 1 or len(group) - pos - 1 > 1:
            return False
    return True


_REF_STEPS = {"I": lambda cfg: _ref_step(cfg, _ref_seg_step, _ref_seg_step),
              "II": lambda cfg: _ref_step(cfg, bj._cycle_step, _ref_seg_step, bj._trade_ii),
              "III": lambda cfg: (_ref_step(cfg, bj._sorted_step, bj._sorted_step)
                                  or bj._trade_iii(cfg))}


def _ref_invol(kind, cfg):
    moved = _REF_STEPS[kind](cfg)
    if moved is None:
        raise bj.FixedPointError("no move applies")
    return moved


def _outcome(call, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return call(*args)
    except Exception as error:  # malformed input may raise anything
        return type(error), str(error)


def _agrees_with_the_reference(kind, cfg):
    return (_outcome(bj._INVOLUTIONS[kind], cfg) == _outcome(_ref_invol, kind, cfg)
            and _outcome(bj._is_fixed_i, cfg) == _outcome(_ref_is_fixed_i, cfg))


def _malformed_controls():
    """Every malformed configuration the negative controls above build."""
    yield from (bj.OuterArrangement(3, 1, *case) for case in MALFORMED)
    for cid, params, malform in (case[1:] for case in ONE_CLAUSE):
        kind = cid.split("_")[0]
        for cfg in bj.iter_pairs(cid, *params):
            image = cfg if cid == "IV" else _outcome(bj._INVOLUTIONS[kind], cfg)
            if isinstance(image, bj.OuterArrangement) and (bad := malform(cfg, image)) is not None:
                yield bad
    for cfg in bj.iter_pairs("I_POS", 3, 1, 1, 0):
        *groups, last = cfg.outer_blocks
        yield _held_twice(cfg)
        yield _ordinary_exempt(cfg)
        for junk in ((), ("x",), ([9],)):
            yield replace(cfg, outer_blocks=(*groups, last[:-1] + (junk,)))


def test_moves_and_the_i_predicate_match_the_reference():
    # the maps' move order is pinned only by trace digests: here every pair
    # of every involution with n <= 3, r <= 1, s <= 4 gets the reference's
    # image (or FixedPointError) and I predicate verdict
    tuples = [(cid, (n, k, r, s)) for cid in bj.CONSTRUCTION_IDS if cid != "IV"
              for n in range(4) for k in range(n + 1) for r in range(2) for s in range(5)
              if bj.construction_applies(cid, n, k, r, s)]
    pairs = 0
    for cid, params in tuples:
        kind = cid.split("_")[0]
        for cfg in bj.iter_pairs(cid, *params):
            assert _agrees_with_the_reference(kind, cfg), (cid, params, cfg)
            pairs += 1
    assert (len(tuples), pairs) == (230, 16038)
    controls = 0
    for cfg in _malformed_controls():
        for kind in bj._INVOLUTIONS:
            assert _agrees_with_the_reference(kind, cfg), (kind, cfg)
        controls += 1
    assert controls == 1254


def test_configurations_compare_by_value():
    # OuterArrangement and LahDistribution are not frozen; equal field values
    # still make equal objects with equal hashes, and their text is unchanged
    cfg = next(bj.iter_pairs("II_MID", 2, 1, 1, 2))
    twin = bj.OuterArrangement(cfg.n, cfg.r, cfg.specials, tuple(map(tuple, cfg.outer_blocks)),
                               tuple(cfg.exempt), cfg.outer_kind)
    assert twin is not cfg and twin == cfg and hash(twin) == hash(cfg)
    assert len({cfg, twin}) == 1 and twin.text() == cfg.text() == "⟨[-1]⟩|⟨(3,1)⟩|⟨(2)⟩"
    assert replace(cfg, n=3) != cfg
    dist = cfg.inner
    again = LahDistribution(dist.n, dist.r, tuple(map(tuple, dist.blocks)))
    assert again == dist and hash(again) == hash(dist) and len({dist, again}) == 1
    assert again.text() == dist.text() == "(3,1)|(2)"
