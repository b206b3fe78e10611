"""Executable combinatorial constructions behind the alternating-sum identities.

Each construction proves one alternating identity of
``identities.ALTERNATING`` in the cases of r - s that ``_CONSTRUCTIONS``
lists; IV is a bijection, the others are sign-reversing involutions.
Its pair family is the identity's term product: an inner distribution
over 1..n+r whose blocks follow the first factor's weights, and an outer
arrangement of its blocks following the second's ((1, 1) any order,
(1, 0) min-first "cycles", (0, 1) increasing), signed by the identity's
sign and padded as needed with special singleton items labelled -1, -2,
...  The involutions' survivor sets realize the identity's closed side;
for II and III the verifier relabels each survivor as a distribution at
level 2r - s (min-first blocks) or 2s - r (increasing blocks) and checks
that the survivors are exactly those distributions, not merely as many.

The involutions move mass between adjacent items of one outer group (or
one section of a group, for the special-singleton variants), flipping
the count of non-distinguished inner blocks by exactly one, hence the
sign.  All three choose their move in one order (``_step``): the
outer groups holding no special, left to right; then, for each special
-i in order of i, the items left of it, the items right of it and, for
II only, a trade with the block holding label i.  III then tries a trade
with the exempt blocks.  One pass over the groups locates all specials;
``_locate`` serves the trades and predicates.  The order is part of
each map's definition: a map that tries the same moves in another order
is another involution, and every verdict may still pass, so only the
golden trace digests pin it.  Fixed-set membership is decided by a
separate declarative predicate so the two can disagree and expose bugs.

A configuration stores each inner block once: an arranged block as an
item of its outer group, and a block that no group holds (a left-out
distinguished block, or a distinguished cycle of IV) among the exempt
blocks, ordered by minimum.  The canonical inner distribution is derived
from them where one is needed.  No sign is stored either: a pair's sign
is that of its layer, the identity's sign at the pair's number of inner
non-distinguished blocks.

Trace text renders a configuration as its outer groups joined by ``|``,
min-first groups in angle brackets and the others in parentheses,
special items as ``[-i]``, with exempt blocks after a double bar, e.g.
``⟨[-1]⟩|⟨(3,1)⟩|⟨(2)⟩`` (II_MID) or ``((1,4))|((3))  ‖ (2)`` (III_MID).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass

from . import identities
from .distributions import (MODES, LahDistribution, check_cap, enumerate_distributions,
                            is_arrangement, iter_arrangements)
from .identities import InvalidParameters

class FixedPointError(Exception):
    """The involution was applied to a member of its fixed set."""


class MalformedConfiguration(ValueError):
    """A configuration violates the structural invariants of its family."""


# ----------------------------------------------------------------------
# configurations


def _rank(item) -> int:
    return item if isinstance(item, int) else min(item)


def _group_key(group) -> int:
    return min(map(_rank, group))


@dataclass(unsafe_hash=True)
class OuterArrangement:
    """A pair of a construction's family: an inner distribution of 1..n+r
    and an arrangement of some of its blocks.  Each inner block is stored
    once, either as an item of an outer group (with the specials -1, -2,
    ...) or among ``exempt``, the blocks no group holds, by minimum.
    Immutable by convention (frozen, it took 3-4x as long to build):
    nothing in ``src`` assigns to a field, so ``==`` and ``hash`` hold."""

    n: int
    r: int
    specials: int
    outer_blocks: tuple
    exempt: tuple
    outer_kind: str  # one of distributions.MODES

    def inner_blocks(self) -> list:
        """The inner blocks in no canonical order: arranged, then exempt."""
        arranged = [it for g in self.outer_blocks for it in g if not isinstance(it, int)]
        return arranged + list(self.exempt)

    @property
    def inner(self) -> LahDistribution:
        """The inner distribution in canonical form, rebuilt on each read."""
        return LahDistribution(self.n, self.r, tuple(sorted(self.inner_blocks(), key=min)))

    def validate(self) -> None:
        """Raise MalformedConfiguration unless the family this configuration
        implies holds it: its n, r, specials and outer kind, inner blocks in
        any order, any k, and ``low = r - len(exempt)`` arranged
        distinguished blocks (those led by 1..low).  Every outer item must
        be an int or a block, and every exempt item a block: a nonempty
        tuple of ints."""
        low = self.r - len(self.exempt)
        well_formed = self.specials >= 0 and self.outer_kind in MODES and all(
            isinstance(b, tuple) and b and all(isinstance(e, int) for e in b)
            for b in self.inner_blocks())
        family = _Family(self.n, None, self.r, self.specials + low, "all", self.outer_kind,
                         None, None, self.specials, low)
        if not (well_formed and family.holds(self)):
            raise MalformedConfiguration(
                f"outer groups {self.outer_blocks} and exempt blocks {self.exempt} are not "
                f"a canonical {self.outer_kind} arrangement of {self.specials} specials "
                f"and the blocks of a distribution of 1..{self.n + self.r}")

    def text(self) -> str:
        opener, closer = ("⟨", "⟩") if self.outer_kind == "min_first" else ("(", ")")

        def item_text(it):
            if isinstance(it, int):
                return f"[{it}]"
            return "(" + ",".join(str(e) for e in it) + ")"

        body = "|".join(opener + ",".join(item_text(it) for it in g) + closer
                        for g in self.outer_blocks)
        if self.exempt:
            body += "  ‖ " + "|".join(item_text(b) for b in self.exempt)
        return body


@dataclass(frozen=True)
class InvolutionReport:
    """Verdict for one construction at one parameter tuple."""

    construction_id: str
    params: tuple[int, int, int, int]
    total_pairs: int
    fixed_points: int
    signed_sum: int
    closed_form: int
    involutive: bool
    sign_reversing: bool
    bijective: bool | None
    passed: bool

    def line(self) -> str:
        n, k, r, s = self.params
        flags = f"inv={'y' if self.involutive else 'n'} sign={'y' if self.sign_reversing else 'n'}"
        if self.bijective is not None:
            flags += f" bij={'y' if self.bijective else 'n'}"
        return (f"{self.construction_id} n={n} k={k} r={r} s={s} "
                f"pairs={self.total_pairs} fixed={self.fixed_points} "
                f"signed={self.signed_sum} target={self.closed_form} {flags} "
                f"{'PASS' if self.passed else 'FAIL'}")


# ----------------------------------------------------------------------
# enumeration of the pair families

#: The alternating identity each construction proves, and the signs of
#: r - s it covers; everything else about its pair family is derived.
_CONSTRUCTIONS = {
    "I_POS": ("RLAH_I", (0, 1)),
    "I_NEG": ("RLAH_I_NEG", (-1,)),
    "II_EQ": ("RLAH_II", (0,)),
    "II_MID": ("RLAH_II", (-1,)),
    "II_GT": ("RLAH_II", (1,)),
    "III_EQ": ("RLAH_III", (0,)),
    "III_LT": ("RLAH_III", (-1,)),
    "III_MID": ("RLAH_III", (1,)),
    "IV": ("RLAH_IV", (-1, 0, 1)),
}

CONSTRUCTION_IDS = tuple(_CONSTRUCTIONS)

#: The block order that specialising a factor's weights (a, b) counts.
_WEIGHT_MODES = {(1, 1): "all", (1, 0): "min_first", (0, 1): "increasing"}


class _Family(namedtuple("_Family", "n k r s inner_mode outer_mode sign closed specials low")):
    """The signed pairs of one construction: the term product of its
    identity.  The outer arrangement's s distinguished items are the
    specials and the inner blocks led by 1..low; the distinguished blocks
    led by low+1..r are left out of it.  The involutions arrange min(r, s)
    distinguished blocks, the bijection IV none.

    ``k`` is None for any number of outer groups; ``sign`` and ``closed``
    are the identity's (see ``identities.ALTERNATING``)."""

    __slots__ = ()

    def items(self, inner: LahDistribution) -> tuple:
        """The outer items in rank order: the specials, then the kept blocks
        (canonical blocks are ordered by minimum, those led by 1..r first)."""
        return tuple(range(-self.specials, 0)) + inner.blocks[:self.low] + inner.blocks[self.r:]

    def holds(self, cfg: OuterArrangement) -> bool:
        """Whether a configuration belongs to the family (``iter_pairs``
        yields it): its blocks, arranged and exempt, form a canonical
        distribution in the inner mode, the exempt ones are exactly the
        left-out blocks (led by low+1..r), and its outer groups, read as
        the ranks of the family's items (-1 for an item that is none of
        them), are an arrangement the family yields.  An item that cannot be
        sorted or hashed as a block (an empty one, or one holding a str or
        a list) makes it False, not an exception."""
        try:
            inner = cfg.inner
            if not (cfg.n == self.n and cfg.r == self.r and cfg.specials == self.specials
                    and cfg.outer_kind == self.outer_mode and inner.follows(self.inner_mode)
                    and cfg.exempt == inner.blocks[self.low:self.r]):
                return False
            rank = {item: i for i, item in enumerate(self.items(inner))}
            return is_arrangement(tuple([tuple([rank.get(it, -1) for it in g])
                                         for g in cfg.outer_blocks]),
                                  inner.k, self.s, self.k, self.outer_mode)
        except (TypeError, ValueError):
            return False

    def holds_after(self, cfg: OuterArrangement, image: OuterArrangement) -> bool:
        """``holds(image)`` for an image that differs from a member ``cfg``
        (``iter_pairs`` yielded it) only in the groups and exempt blocks that
        are not ``cfg``'s own objects at the same position, with ``k`` fixed.
        Only those parts are read.  Their labels are ``cfg``'s there, ints
        negative and block labels positive: so the blocks hold 1..n+r once
        each.  Each read group follows the outer mode by ``_rank``, which
        orders items as the family's ranks do; its least rank lies strictly
        between its neighbours' and, for i < s, is the i-th distinguished
        item's.  The other groups keep their least ranks and positions, so the
        groups form an arrangement the family yields.  Each read block follows
        the inner mode, and each read exempt block p is led by low+1+p.  So
        every label l <= r leads a block (in group specials+l-1 or as exempt
        block l-low-1), and the exempt blocks are the left-out ones in order."""
        groups, old_groups, exempt = image.outer_blocks, cfg.outer_blocks, image.exempt
        if (image.n, image.r, image.specials, image.outer_kind, len(groups), len(exempt)) != (
                cfg.n, cfg.r, cfg.specials, cfg.outer_kind, len(old_groups), len(cfg.exempt)):
            return False
        s, specials, last = self.s, self.specials, len(groups) - 1
        inner_mode, outer_mode = self.inner_mode, self.outer_mode
        if exempt is not cfg.exempt:  # exempt block p is read as a one-item group at last+1+p
            groups += tuple((block,) for block in exempt)
            old_groups += tuple((block,) for block in cfg.exempt)
        before, after = [], []
        try:
            for i, group in enumerate(groups):
                old = old_groups[i]
                if group is old:
                    continue
                for it in old:
                    before += (it,) if isinstance(it, int) else it
                ranks = []
                for it in group:
                    if type(it) is tuple:
                        low = min(it)
                        if (low < 1 or inner_mode == "min_first" and it[0] != low
                                or inner_mode == "increasing" and list(it) != sorted(it)):
                            return False
                        after += it
                    elif isinstance(it, int) and it < 0:
                        low = it
                        after.append(it)
                    else:
                        return False
                    ranks.append(low)
                least = min(ranks)
                if (least != self.low + i - last if i > last
                        else outer_mode == "min_first" and ranks[0] != least
                        or outer_mode == "increasing" and ranks != sorted(ranks)
                        or i and _group_key(groups[i - 1]) >= least
                        or i < last and _group_key(groups[i + 1]) <= least
                        or i < s and least != i - specials + (i >= specials)):
                    return False
        except (TypeError, ValueError):
            return False
        return sorted(before) == sorted(after)


def construction_applies(construction_id: str, n: int, k: int, r: int, s: int) -> bool:
    if construction_id not in _CONSTRUCTIONS:
        raise InvalidParameters(f"unknown construction {construction_id!r}")
    identity, cases = _CONSTRUCTIONS[construction_id]
    precondition = identities.IDENTITIES[identity][1]
    return precondition(n, k, r, s) and (r > s) - (r < s) in cases


def _family(construction_id: str, n: int, k: int, r: int, s: int) -> _Family:
    if not construction_applies(construction_id, n, k, r, s):
        raise InvalidParameters(
            f"{construction_id} does not apply at n={n} k={k} r={r} s={s}")
    inner_weights, outer_weights, sign, closed = identities.ALTERNATING[
        _CONSTRUCTIONS[construction_id][0]]
    low = 0 if construction_id == "IV" else min(r, s)
    return _Family(n, k, r, s, _WEIGHT_MODES[inner_weights], _WEIGHT_MODES[outer_weights],
                   sign, closed, s - low, low)


def _layer_pairs(family: _Family, j: int, cap: int | None) -> Iterator[OuterArrangement]:
    """The pairs with ``j`` inner non-distinguished blocks, all of sign
    ``family.sign(n, j, k)``; the outer groupings are enumerated once for
    the layer, and the inner distributions of n+r labels are subject to
    the enumeration cap."""
    n, r, specials, outer_mode = family.n, family.r, family.specials, family.outer_mode
    outer = tuple(iter_arrangements(j, family.s, family.k, outer_mode))
    for inner in enumerate_distributions(n, j, r, family.inner_mode, cap):
        items = family.items(inner)
        exempt = inner.blocks[family.low:r]
        for groups in outer:
            arranged = tuple([tuple([items[idx] for idx in grp]) for grp in groups])
            yield OuterArrangement(n, r, specials, arranged, exempt, outer_mode)


def _layer_size(family: _Family, j: int, cap: int | None) -> int:
    """How many pairs ``_layer_pairs`` yields at ``j``, counted without
    building one: the inner groupings times the outer groupings.  The
    cap applies as if the layer were built."""
    check_cap(family.n, family.r, cap, family.s)
    inner = sum(1 for _ in iter_arrangements(family.n, family.r, j, family.inner_mode))
    return inner and inner * sum(
        1 for _ in iter_arrangements(j, family.s, family.k, family.outer_mode))


def iter_pairs(construction_id: str, n: int, k: int, r: int, s: int,
               cap: int | None = None, signs: tuple = (1, -1)) -> Iterator[OuterArrangement]:
    """Enumerate the pair family of one construction layer by layer (by the
    inner non-distinguished block count ``j``, whose sign every pair of
    the layer carries), building only the layers whose sign is in
    ``signs``.  A request over the enumeration cap on either side is
    refused by the call itself, not at the first pair."""
    family = _family(construction_id, n, k, r, s)
    check_cap(n, r, cap, s)
    return (cfg for j in range(k, n + 1) if family.sign(n, j, k) in signs
            for cfg in _layer_pairs(family, j, cap))


# ----------------------------------------------------------------------
# moves (each returns the moved items, or None where it cannot move) and
# surgery helpers


def _seg_step(segment):
    """Merge a leading singleton into its right neighbour, or split the
    leading element off a larger first block.  None on fewer than two
    labels; self-inverse where it moves."""
    if sum(map(len, segment)) < 2:
        return None
    first = segment[0]
    if len(first) == 1:
        return ((first[0],) + segment[1],) + segment[2:]
    return ((first[0],), first[1:]) + segment[1:]


def _cycle_step(group):
    """Min-first variant: split the first block at its minimum, or fold
    it onto the end of the second block when it already leads with it.
    None on a lone block that leads with its minimum."""
    block = group[0]
    low = min(block)
    if block[0] != low:
        cut = block.index(low)
        return (block[cut:], block[:cut]) + group[1:]
    if len(group) == 1:
        return None
    return (group[1] + block,) + group[2:]


def _sorted_step(segment):
    """First deviation from 'singletons in increasing order': either merge a
    descent pair (append the larger singleton to the block after it) or
    split off the last element of an over-full block.  None on sorted
    singletons."""
    prev = None
    for t, item in enumerate(segment):
        if len(item) >= 2:
            if t == 0 or prev < max(item):
                return segment[:t] + ((item[-1],), item[:-1]) + segment[t + 1:]
            return segment[:t - 1] + (item + (prev,),) + segment[t + 1:]
        value = item[0]
        if t > 0 and prev > value:
            return segment[:t - 1] + ((value, prev),) + segment[t + 1:]
        prev = value
    return None


def _regrouped(cfg: OuterArrangement, groups, exempt=None) -> OuterArrangement:
    """``cfg`` with the outer groups ``groups`` and, if given, the exempt
    blocks ``exempt``."""
    return OuterArrangement(cfg.n, cfg.r, cfg.specials, tuple(groups),
                            cfg.exempt if exempt is None else exempt, cfg.outer_kind)


def _with_group(cfg: OuterArrangement, index: int, new_group) -> OuterArrangement:
    return _regrouped(cfg, cfg.outer_blocks[:index] + (new_group,) + cfg.outer_blocks[index + 1:])


def _locate(cfg: OuterArrangement, label: int):
    """(group index, position, item) of the special ``label`` < 0, or of
    the arranged block holding ``label`` > 0."""
    for gi, group in enumerate(cfg.outer_blocks):
        for pos, it in enumerate(group):
            if it == label if isinstance(it, int) else label in it:
                return gi, pos, it
    raise MalformedConfiguration(f"label {label} is not arranged")


# ----------------------------------------------------------------------
# the involutions


def _step(cfg: OuterArrangement, group_step, section_step,
          trade=None) -> OuterArrangement | None:
    """The first move in the order all three involutions share (see the
    module docstring): ``group_step`` on each outer group holding no
    special, then, for each special -i in order of i, ``section_step`` on
    the items left of it, then on those right of it, then ``trade(cfg, i,
    gi)`` if given.  The moved configuration, or None where nothing moves.
    The group pass records where each special stands; a special it did
    not see goes to ``_locate``.  Only trace digests pin the order."""
    groups, specials = cfg.outer_blocks, cfg.specials
    held = {}  # i -> (group index, position) of the first int item -i
    for gi, group in enumerate(groups):
        if specials:
            skip = False
            for pos, it in enumerate(group):
                if isinstance(it, int):
                    held.setdefault(-it, (gi, pos))
                    skip = True
            if skip:
                continue
        moved = group_step(group)
        if moved is not None:
            return _with_group(cfg, gi, moved)
    for i in range(1, specials + 1):
        gi, pos = held[i] if i in held else _locate(cfg, -i)[:2]
        group = groups[gi]
        left, right = group[:pos], group[pos + 1:]
        moved = section_step(left)
        if moved is not None:
            return _with_group(cfg, gi, moved + (-i,) + right)
        moved = section_step(right)
        if moved is not None:
            return _with_group(cfg, gi, left + (-i,) + moved)
        if trade is not None:
            moved = trade(cfg, i, gi)
            if moved is not None:
                return moved
    return None


def _moved(moved: OuterArrangement | None) -> OuterArrangement:
    if moved is None:
        raise FixedPointError("no move applies")
    return moved


def _trade_ii(cfg: OuterArrangement, i: int, gi: int) -> OuterArrangement | None:
    """Append the lone label of special -i's cycle (group ``gi``) to the
    block holding label i, or, with that cycle empty, move the block's last
    label into it; None with the cycle empty and label i a singleton."""
    tgi, tpos, block = _locate(cfg, i)
    rest = cfg.outer_blocks[gi][1:]  # the special leads its cycle
    if rest:
        block, rest = block + rest[0], ()
    elif len(block) >= 2:
        block, rest = block[:-1], ((block[-1],),)
    else:
        return None
    groups = list(cfg.outer_blocks)
    groups[gi] = (-i,) + rest
    groups[tgi] = groups[tgi][:tpos] + (block,) + groups[tgi][tpos + 1:]
    return _regrouped(cfg, groups)


def _trade_iii(cfg: OuterArrangement) -> OuterArrangement | None:
    """Trade the largest ordinary label between the group holding label i
    and the exempt block holding r+1-i (the i-th from the end), for the
    first i where one exists."""
    exempt, r = cfg.exempt, cfg.r
    for i0 in range(1, len(exempt) + 1):
        tgi, _, _ = _locate(cfg, i0)
        group = cfg.outer_blocks[tgi]
        at = len(exempt) - i0
        partner = exempt[at]
        tau_ordinary = [it[0] for it in group if it[0] > r]
        partner_ordinary = [e for e in partner if e > r]
        if not tau_ordinary and not partner_ordinary:
            continue
        top = max(tau_ordinary + partner_ordinary)
        groups = list(cfg.outer_blocks)
        if top in partner:
            partner = partner[:-1]
            groups[tgi] = tuple(sorted(group + ((top,),), key=_rank))
        else:
            groups[tgi] = tuple(it for it in group if it != (top,))
            partner += (top,)
        return _regrouped(cfg, groups, exempt[:at] + (partner,) + exempt[at + 1:])
    return None


def invol_i(cfg: OuterArrangement) -> OuterArrangement:
    """Merge/split on the first group or section holding two or more labels."""
    return _moved(_step(cfg, _seg_step, _seg_step))


def invol_ii(cfg: OuterArrangement) -> OuterArrangement:
    """Cycle-type involution: fix the first bad non-special cycle; then, per
    special, merge/split inside its cycle or trade with the block holding
    the matching positive label."""
    return _moved(_step(cfg, _cycle_step, _seg_step, _trade_ii))


def invol_iii(cfg: OuterArrangement) -> OuterArrangement:
    """Sorted-singleton involution on groups and sections, extended by the
    largest-label trade with the exempt blocks for the truncated variant."""
    return _moved(_step(cfg, _sorted_step, _sorted_step) or _trade_iii(cfg))


_INVOLUTIONS = {"I": invol_i, "II": invol_ii, "III": invol_iii}


# ----------------------------------------------------------------------
# fixed-set predicates (declarative, independent of the involutions)


def _is_fixed_i(cfg: OuterArrangement) -> bool:
    if cfg.specials == 0:
        return all(sum(map(len, g)) == 1 for g in cfg.outer_blocks)
    if any(len(b) != 1 for b in cfg.exempt):
        return False
    for group in cfg.outer_blocks:
        pos = None
        for i, it in enumerate(group):
            if isinstance(it, int):
                pos = i if pos is None else pos
            elif len(it) != 1:
                return False
        if len(group) != 1 if pos is None else pos > 1 or len(group) - pos - 1 > 1:
            return False
    return True


def _is_fixed_ii(cfg: OuterArrangement) -> bool:
    for group in cfg.outer_blocks:
        if len(group) != 1:
            return False
        item = group[0]
        if not isinstance(item, int) and item[0] != min(item):
            return False
    for i0 in range(1, cfg.specials + 1):
        _, _, block = _locate(cfg, i0)
        if len(block) != 1:
            return False
    return True


def _is_fixed_iii(cfg: OuterArrangement) -> bool:
    for group in cfg.outer_blocks:
        previous = None
        for it in group:
            if isinstance(it, int):
                previous = None
                continue
            if len(it) != 1:
                return False
            if previous is not None and previous > it[0]:
                return False
            previous = it[0]
    exempt, r = cfg.exempt, cfg.r
    for i0 in range(1, len(exempt) + 1):
        tgi, _, block = _locate(cfg, i0)
        if len(block) != 1 or len(cfg.outer_blocks[tgi]) != 1:
            return False
        partner = next(b for b in exempt if r + 1 - i0 in b)
        if len(partner) != 1:
            return False
    return True


_FIXED = {"I": _is_fixed_i, "II": _is_fixed_ii, "III": _is_fixed_iii}


def closed_form(construction_id: str, n: int, k: int, r: int, s: int) -> int:
    """Predicted survivor count: the closed side of the construction's identity."""
    return _family(construction_id, n, k, r, s).closed(n, k, r, s)


# ----------------------------------------------------------------------
# survivors as plain distributions


def _cycle_survivor(family: _Family, cfg: OuterArrangement) -> tuple:
    """The min-first blocks at level 2r - s that a II survivor stands for:
    the singleton blocks of the labels 1..specials go, and each left-out
    block, led by some l in low+1..r, is cut before l, the cut-off prefix
    becoming the block of a new distinguished label."""
    r, drop, extra = family.r, family.specials, family.r - family.low

    def label(e: int) -> int:
        return e - drop + (extra if e > r else 0)

    blocks = []
    for block in cfg.inner_blocks():
        lead = min(block)
        if lead <= drop:
            continue
        moved = tuple(map(label, block))
        if family.low < lead <= r:
            cut = block.index(lead)
            blocks += [(label(lead) + extra,) + moved[:cut], moved[cut:]]
        else:
            blocks.append(moved)
    return tuple(sorted(blocks, key=min))


def _subset_survivor(family: _Family, cfg: OuterArrangement) -> tuple:
    """The increasing blocks at level 2s - r that a III survivor stands for:
    each outer group becomes the block of its labels, a group holding the
    special -i splits there into blocks led by the new labels 2i and
    2i - 1, and the groups of the labels 1..r-low go (with the left-out
    blocks, which no group holds)."""
    r, added, drop = family.r, family.specials, family.r - family.low

    def relabel(items) -> tuple:
        return tuple(e + 2 * added - (drop if e <= r else 2 * drop) for it in items for e in it)

    blocks = []
    for group in cfg.outer_blocks:
        pos = next((i for i, it in enumerate(group) if isinstance(it, int)), None)
        if pos is not None:
            i = -group[pos]
            blocks += [(2 * i,) + relabel(group[:pos]), (2 * i - 1,) + relabel(group[pos + 1:])]
        elif min(map(min, group)) > drop:
            blocks.append(relabel(group))
    return tuple(sorted(blocks, key=min))


#: The identities whose survivors are plain distributions: the block order
#: and the level (a function of r, s) of those distributions, and the
#: relabelling that takes a survivor to its distribution's blocks.
_SURVIVORS = {"RLAH_II": ("min_first", lambda r, s: 2 * r - s, _cycle_survivor),
              "RLAH_III": ("increasing", lambda r, s: 2 * s - r, _subset_survivor)}


# ----------------------------------------------------------------------
# construction IV: the bijection


def _parse_min_led_cycles(word):
    """Cut a word at its left-to-right minima: the inverse of concatenating
    min-first cycles in decreasing order of their minima."""
    cycles = []
    current: list[int] | None = None
    for value in word:
        if current is None or value < current[0]:
            if current is not None:
                cycles.append(tuple(current))
            current = [value]
        else:
            current.append(value)
    if current is not None:
        cycles.append(tuple(current))
    return tuple(cycles)


def _concat_desc(cycles) -> tuple[int, ...]:
    ordered = sorted(cycles, key=lambda c: c[0], reverse=True)
    return tuple(e for c in ordered for e in c)


def map_iv(cfg: OuterArrangement) -> LahDistribution:
    """Flatten an (inner cycles, outer arrangement) pair into a single
    distribution at level mid = (r+s)/2; the distinguished cycles are the
    exempt blocks, led by 1..r.  A group becomes the word of its cycles in
    decreasing order of their minima, w(i) for special -i.  With half =
    |r-s|/2 and shift = half if r < s else 0, w(i + shift) takes cycle i
    for i <= min(r, s); the surplus joins cycle top in mid+1..r, less its
    label, to cycle top - half, or gives w(i) + (mid - i,) + w(i - mid) for
    i in mid+1..s.  Labels e < 0 become e + mid + 1, and e > r, e + mid - r.
    Only the parity and the outer kind are checked: the input is a pair of
    the IV family (``iter_pairs`` yields it, or ``OuterArrangement.validate``
    accepts it), and the verifier's codomain test checks the output."""
    r, s = cfg.r, cfg.specials
    if (r - s) % 2:
        raise InvalidParameters("r and s must have the same parity")
    if cfg.outer_kind != "increasing":
        raise MalformedConfiguration("construction IV expects an increasing outer family")
    mid, half = (r + s) // 2, abs(r - s) // 2
    shift = half if r < s else 0
    lead = {b[0]: b for b in cfg.exempt}
    word, out = {}, []
    for group in cfg.outer_blocks:
        if isinstance(group[0], int):
            word[-group[0]] = _concat_desc(group[1:])
        else:
            out.append(_concat_desc(group))
    out += [word[i + shift] + lead[i] for i in range(1, min(r, s) + 1)]
    for top in range(mid + 1, r + 1):
        out.append(lead[top][1:] + lead[top - half])
    for i in range(mid + 1, s + 1):
        low = i - mid
        out.append(word[i] + (-low,) + word[low])
    relabeled = (tuple(e + mid - r if e > r else e + mid + 1 if e < 0 else e for e in blk)
                 for blk in out)
    return LahDistribution(cfg.n, mid, tuple(sorted(relabeled, key=min)))


def inv_iv(dist: LahDistribution, r: int, s: int) -> OuterArrangement:
    """Rebuild the unique pre-image of a distribution under map_iv: its
    outer groups, and the distinguished cycles led by 1..r as its exempt
    blocks.  Undo the relabelling (r < e <= mid becomes e - mid - 1 and
    e > mid, e + r - mid), then read each block by its least label low:
    above min(r, mid) a plain group; below 0 the specials mid - low and
    -low; above s the cycles low and low + half; otherwise cycle low after
    the word of special low + shift.  Only the parity and the level are
    checked: the input is a canonical distribution (the verifier has tested
    it against the codomain, or ``LahDistribution.validate`` accepts it),
    and the verifier compares the output with the enumerated pair."""
    if (r - s) % 2:
        raise InvalidParameters("r and s must have the same parity")
    mid, half = (r + s) // 2, abs(r - s) // 2
    if dist.r != mid:
        raise MalformedConfiguration(f"expected distinguished level {mid}, got {dist.r}")
    shift = half if r < s else 0
    lead: dict[int, tuple[int, ...]] = {}
    special_cycles: dict[int, tuple] = {i: () for i in range(1, s + 1)}
    groups: list[tuple] = []
    for blk in dist.blocks:
        blk = tuple(e + r - mid if e > mid else e - mid - 1 if e > r else e for e in blk)
        low = min(blk)
        if low > min(r, mid):
            groups.append(tuple(sorted(_parse_min_led_cycles(blk), key=min)))
            continue
        cut = blk.index(low)
        if low < 0:
            special_cycles[mid - low] = _parse_min_led_cycles(blk[:cut])
            special_cycles[-low] = _parse_min_led_cycles(blk[cut + 1:])
            continue
        lead[low] = blk[cut:]
        if low > s:
            lead[low + half] = (low + half,) + blk[:cut]
        else:
            special_cycles[low + shift] = _parse_min_led_cycles(blk[:cut])
    groups += [(-i,) + tuple(sorted(special_cycles[i], key=min)) for i in range(1, s + 1)]
    groups.sort(key=_group_key)
    return OuterArrangement(dist.n, r, s, tuple(groups),
                            tuple(lead[i] for i in range(1, r + 1)), "increasing")


# ----------------------------------------------------------------------
# verification


def _image(invol, cfg: OuterArrangement) -> OuterArrangement | LahDistribution | None:
    """The map's image of a pair, or None where it raises FixedPointError;
    ``map_iv`` never does, so its images pass through unchanged."""
    try:
        return invol(cfg)
    except FixedPointError:
        return None


def verify_construction(construction_id: str, n: int, k: int, r: int, s: int,
                        cap: int | None = None) -> InvolutionReport:
    """Enumerate one construction, exercise its map, and check every claim.

    For the involutions: the declarative fixed predicate's count and the
    signed sum both match the closed form, and the map raises
    ``FixedPointError`` on every fixed pair; for II and III, the survivors
    relabel one-to-one onto the distributions the closed side counts.

    A pair carries no sign of its own: all pairs of one layer (one inner
    block count ``j``) have the sign ``family.sign(n, j, k)``.  The layers
    of sign +1 are built: the fixed predicate runs on each of their pairs,
    and the map is applied to each non-fixed one.  Its image must lie in
    the pair family (``holds_after``, which reads only what the move
    changed), lie in a layer of sign -1 (the family's sign at the image's
    block count, read without sorting its blocks), fail the fixed
    predicate and map back to the pair; a ``FixedPointError`` from either
    application counts as not involutive.  The layers of sign -1 are
    counted, not built (``_layer_size``, under the same cap).  That checks
    every 2-orbit once and is still complete: a PASS needs
    ``signed == fixed == target``, where ``fixed`` counts positive pairs
    only, so there are exactly as many negative pairs as positive
    non-fixed ones.  The images of those positive pairs are distinct
    (each maps back to its own pair), non-fixed members of sign -1, so
    they are all of the negative pairs: none of them is fixed, and the
    map has been checked on each.  The verifier takes no trace input:
    ``trace_construction`` applies the map again for trace text.

    For IV: ``map_iv`` takes each enumerated pair as it is, every image
    lies in the codomain (tested before ``inv_iv`` sees it) and ``inv_iv``
    takes it back to its pair, so ``map_iv`` is injective, and the number
    of pairs equals the closed form, which certifies bijectivity.
    """
    family = _family(construction_id, n, k, r, s)
    check_cap(n, r, cap, s)
    target = family.closed(n, k, r, s)
    params = (n, k, r, s)
    if construction_id == "IV":
        mid = (r + s) // 2
        total = 0
        round_trips = True
        for cfg in iter_pairs(construction_id, n, k, r, s, cap):
            total += 1
            image = map_iv(cfg)
            # inv_iv is not defined off the codomain
            if not (image.n == n and image.r == mid and image.k == k and image.follows("all")
                    and inv_iv(image, r, s) == cfg):
                round_trips = False
        bijective = round_trips and total == target
        return InvolutionReport(construction_id, params, total, total, total, target,
                                round_trips, True, bijective, bijective)

    kind = construction_id.split("_")[0]
    invol = _INVOLUTIONS[kind]
    predicate = _FIXED[kind]
    mode, level_of, relabel = _SURVIVORS.get(_CONSTRUCTIONS[construction_id][0],
                                             (None, None, None))
    survivors = set()
    negative = sum(_layer_size(family, j, cap) for j in range(k, n + 1)
                   if family.sign(n, j, k) < 0)  # counted before any pair is built
    positive = fixed = 0
    involutive = True
    sign_reversing = True
    for cfg in iter_pairs(construction_id, n, k, r, s, cap, (1,)):
        positive += 1
        if predicate(cfg):
            fixed += 1
            if relabel is not None:
                survivors.add(relabel(family, cfg))
            if _image(invol, cfg) is not None:
                involutive = False
            continue
        image = _image(invol, cfg)
        if image is None:
            involutive = False
            continue
        member = family.holds_after(cfg, image)
        # a member's only int items are its specials
        blocks = (sum(map(len, image.outer_blocks)) - image.specials + len(image.exempt)
                  if member else len(image.inner_blocks()))
        if family.sign(n, blocks - r, k) > 0:
            sign_reversing = False
        if not member:
            involutive = False  # neither the predicate nor the map is defined off the family
            continue
        if predicate(image) or _image(invol, image) != cfg:
            involutive = False
    total, signed = positive + negative, positive - negative
    passed = involutive and sign_reversing and signed == target and fixed == target
    if passed and relabel is not None:
        # the closed side counts these distributions, and the signed sum of
        # the pairs already enumerated equals it: no cap on n + level
        level = level_of(r, s)
        passed = len(survivors) == fixed and survivors == {
            d.blocks for d in enumerate_distributions(n, k, level, mode, n + level)}
    return InvolutionReport(construction_id, params, total, fixed, signed, target,
                            involutive, sign_reversing, None, passed)


def trace_construction(construction_id: str, n: int, k: int, r: int, s: int,
                       cap: int | None = None) -> Iterator[tuple]:
    """Yield ``(before, after)`` for each pair of the family, in
    ``iter_pairs`` order and over both signs, that the construction's map
    moves: the pair's configuration and that of its image.  Under IV every
    pair moves (``after`` is a ``LahDistribution``); under an involution
    every pair on which the map does not raise ``FixedPointError``.  Both
    render with ``text()``.  Nothing is checked here and nothing is kept:
    the verdict comes from ``verify_construction`` alone."""
    invol = map_iv if construction_id == "IV" else _INVOLUTIONS[construction_id.split("_")[0]]
    for cfg in iter_pairs(construction_id, n, k, r, s, cap):
        image = _image(invol, cfg)
        if image is not None:
            yield cfg, image
