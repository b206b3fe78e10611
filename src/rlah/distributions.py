"""Distributions into contents-ordered blocks, their statistics, and the oracle.

A distribution here is a partition of the labels 1..n+r into nonempty
blocks whose contents are linearly ordered, with the r smallest labels
(the distinguished ones) lying in r distinct blocks.  ``stats`` computes,
object by object, the record-low statistics that define the weight of a
distribution.  ``oracle_g`` sums those weights by brute force -- the
independent check against the recurrence-filled triangles in
:mod:`rlah.lah_core`.  Distributions are in bijection with pairs of a
canonical set partition (distinguished labels in distinct blocks, blocks
ordered by minimum) and one linear order per block, and nrec and rec* are
sums over the blocks of counts on each block's order.  So the oracle takes
each set partition, counts the record lows of each block's orders from
``itertools`` once per call, and convolves the blocks' counts; no
"all"-mode insertion move (the recurrence it checks) is on its path.

Generation is by incremental insertion: label m+1 enters a distribution
of 1..m either as a new singleton block, at the front of an existing
block, or immediately after an existing element.  Restricting the
insertion positions gives the three enumeration modes:

    all         every contents-ordered distribution
    min_first   the smallest element is first within each block
    increasing  elements occur in increasing order within each block

Each object is produced exactly once (the parent of a distribution is
recovered by deleting its largest label) and blocks always appear in
ascending order of their minima, which is the canonical form.
``is_arrangement`` accepts exactly what the generator yields; every
validator and family-membership test calls it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import permutations

from .lah_core import DEFAULT_CAP
from .poly import ZERO, Polynomial

MODES = ("all", "min_first", "increasing")


class SizeLimitError(RuntimeError):
    """Raised when an enumeration request exceeds the configured cap."""


@dataclass(frozen=True)
class StatPair:
    nrec: int
    rec_star: int


@dataclass(unsafe_hash=True)
class LahDistribution:
    """A canonical distribution of 1..n+r into contents-ordered blocks.
    Immutable by convention, like ``bijections.OuterArrangement``."""

    n: int
    r: int
    blocks: tuple[tuple[int, ...], ...]

    @property
    def k(self) -> int:
        """Number of non-distinguished blocks."""
        return len(self.blocks) - self.r

    def validate(self) -> None:
        if not self.follows("all"):
            raise ValueError(
                f"not a canonical distribution of 1..{self.n + self.r}: {self.blocks}")

    def follows(self, mode: str) -> bool:
        """Whether this is a canonical distribution whose blocks follow ``mode``."""
        return is_arrangement(self.blocks, self.n, self.r, None, mode, start=1)

    def text(self) -> str:
        """Render as e.g. ``(1,5,3)|(2,9)|(6)``."""
        return "|".join("(" + ",".join(str(e) for e in block) + ")" for block in self.blocks)


def record_lows(dist: LahDistribution) -> frozenset[int]:
    """Labels with no smaller label to their left within their block.

    Every block's first element and every block's minimum qualify.
    """
    lows: set[int] = set()
    for block in dist.blocks:
        current = None
        for e in block:
            if current is None or e < current:
                lows.add(e)
                current = e
    return frozenset(lows)


def stats(dist: LahDistribution) -> StatPair:
    """Record-low statistics over all n+r elements.

    ``rec_star`` counts record lows that are not their block's minimum,
    ``nrec`` counts elements that are not record lows.  Distinguished
    labels are block minima, so they contribute to neither.
    """
    lows = record_lows(dist)
    return StatPair(nrec=dist.n + dist.r - len(lows), rec_star=len(lows) - len(dist.blocks))


def iter_arrangements(num_ordinary: int, num_distinguished: int, k: int | None,
                      mode: str = "all") -> Iterator[tuple[tuple[int, ...], ...]]:
    """An iterator over the groupings of the ranks 0..num_ordinary+num_distinguished-1.

    Ranks below ``num_distinguished`` each occupy their own group; with
    ``k`` given, exactly ``k + num_distinguished`` groups are produced.
    Groups appear in ascending order of their smallest rank.  This is the
    insertion engine shared by distribution enumeration and the outer
    arrangements of the proof constructions.

    The order is depth first: each rank in turn goes first into a new
    singleton group, then into the groups left to right, within a group
    at its allowed positions left to right.  A bad mode or a negative count
    is refused by the call itself, not at the first grouping.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if num_ordinary < 0 or num_distinguished < 0:
        raise ValueError("counts must be nonnegative")
    total = num_ordinary + num_distinguished
    least = 0 if k is None else k + num_distinguished
    most = total if k is None else least
    front = 1 if mode == "min_first" else 0

    def walk():
        # children go on in reverse so that they come off in the order above;
        # a child that adds no group goes on only if it can still reach ``least``
        stack: list[tuple[tuple[tuple[int, ...], ...], int]] = [((), 0)]
        while stack:
            groups, idx = stack.pop()
            if idx == total:
                yield groups
                continue
            if idx >= num_distinguished and len(groups) + total - idx > least:
                for gi in range(len(groups) - 1, -1, -1):
                    group = groups[gi]
                    low = len(group) if mode == "increasing" else front
                    for p in range(len(group), low - 1, -1):
                        stack.append((groups[:gi] + (group[:p] + (idx,) + group[p:],)
                                      + groups[gi + 1:], idx + 1))
            if len(groups) < most:
                stack.append((groups + ((idx,),), idx + 1))

    return iter(()) if k is not None and not 0 <= k <= num_ordinary else walk()


def is_arrangement(groups: tuple[tuple[int, ...], ...], num_ordinary: int,
                   num_distinguished: int, k: int | None, mode: str, start: int = 0) -> bool:
    """Whether ``iter_arrangements`` with the same arguments yields ``groups``
    once ``start`` is added to each of its ranks.

    One pass over the groups: their minima rise, group ``i`` has the
    distinguished rank ``start + i`` as its minimum for each ``i`` below
    ``num_distinguished`` (so no group holds two, and no later group
    holds one), and the ranks are ``start, start + 1, ...`` each once.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if (num_ordinary < 0 or num_distinguished < 0 or len(groups) < num_distinguished
            or k is not None and len(groups) != k + num_distinguished):
        return False
    seen: list[int] = []
    previous = start - 1
    for i, group in enumerate(groups, start):
        if not group:
            return False
        low = min(group)
        if low <= previous or i < start + num_distinguished and low != i:
            return False
        if mode != "all" and (group[0] != low if mode == "min_first"
                              else list(group) != sorted(group)):
            return False
        previous = low
        seen += group
    seen.sort()
    return seen == list(range(start, start + num_ordinary + num_distinguished))


def check_cap(n: int, r: int, cap: int | None, s: int = 0) -> None:
    """Raise SizeLimitError when enumerating n+r labels, or a construction's
    n+s outer items, exceeds the cap.  The one cap check: every enumeration
    and construction request is refused on the call, before any object."""
    limit = DEFAULT_CAP if cap is None else cap
    for side, size in (("r", n + r), ("s", n + s)):
        if size > limit:
            raise SizeLimitError(f"n+{side} = {size} exceeds the enumeration cap {limit}; "
                                 f"raise the cap explicitly to proceed")


def _admit(n: int, k: int | None, r: int, cap: int | None) -> None:
    """Refuse a bad or oversized request before any object is generated."""
    if n < 0 or r < 0 or k is not None and k < 0:
        raise ValueError("n, k, r must be nonnegative")
    check_cap(n, r, cap)


def enumerate_distributions(n: int, k: int | None, r: int, mode: str = "all",
                            cap: int | None = None) -> Iterator[LahDistribution]:
    """Each distribution of 1..n+r with k non-distinguished blocks (any
    number when k is None) once; a bad or oversized request is refused by
    the call itself, not at the first object."""
    _admit(n, k, r, cap)
    return (LahDistribution(n=n, r=r, blocks=tuple(tuple(rank + 1 for rank in group)
                                                   for group in groups))
            for groups in iter_arrangements(n, r, k, mode))


def _lows(order: tuple[int, ...]) -> int:
    """How many entries of ``order`` are smaller than every entry before them."""
    lows, current = 0, order[0] + 1
    for rank in order:
        if rank < current:
            lows += 1
            current = rank
    return lows


def _weight_sums(n: int, k: int | None, r: int, cap: int | None) -> dict[int, Polynomial]:
    """Sum a^nrec b^rec* over every distribution, per value of k.

    Each distribution is one set partition of the ranks (an "increasing"
    grouping, a rank being a label minus one) with one contents order per
    group, so its record lows are the sum of ``_lows`` over its orders.
    Each group's orders are tallied once per call into a histogram of
    record lows, and a partition's tally is the convolution of its groups'
    histograms; ``stats`` is the per-object definition the tests hold this
    tally to.
    """
    _admit(n, k, r, cap)
    total = n + r
    rows: dict[int, dict[tuple[int, int, int, int], int]] = {}
    histograms: dict[tuple[int, ...], tuple[tuple[int, int], ...]] = {}
    for groups in iter_arrangements(n, r, k, "increasing"):
        tally = {0: 1}
        for group in groups:
            histogram = histograms.get(group)
            if histogram is None:
                histogram = histograms[group] = tuple(
                    Counter(map(_lows, permutations(group))).items())
            merged: dict[int, int] = {}
            for lows, count in tally.items():
                for more, ways in histogram:
                    merged[lows + more] = merged.get(lows + more, 0) + count * ways
            tally = merged
        row = rows.setdefault(len(groups) - r, {})
        for lows, count in tally.items():
            key = (total - lows, lows - len(groups), 0, 0)
            row[key] = row.get(key, 0) + count
    return {j: Polynomial(terms) for j, terms in sorted(rows.items())}


def oracle_g(n: int, k: int, r: int, cap: int | None = None) -> Polynomial:
    """Brute-force weight sum over all distributions: the triangle oracle."""
    return _weight_sums(n, k, r, cap).get(k, ZERO)


def oracle_row(n: int, r: int, cap: int | None = None) -> dict[int, Polynomial]:
    """Weight sums for every k of one row, from a single enumeration pass."""
    return _weight_sums(n, None, r, cap)
