"""Span tracing for the traced benchmark pass, installed from outside rlah.

``install`` wraps the public functions of every rlah layer at run time and
patches each reference to them: module globals, names imported into other
modules (``cli`` and ``bijections`` import functions directly), dispatch
dicts such as ``identities._CHECK_FUNCS`` and class attributes, including
aliases like ``Polynomial.__rmul__``.  A target that cannot be found, or
that no reference points to, raises, so a function left unwrapped fails
loudly instead of reading as 0 s.

A span is one call (for a generator, one ``next``): its name, start, end
and parent span, kept in compact arrays in memory and written out by
``Tracer.dump`` when the command ends.  Every span of one file shares the
command id in its header.  ``load`` reads a file back and folds it into
per-name totals; self time is a span's duration minus that of its
children.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter

# (module, dotted attribute, span name, kind); kind is "call" or "gen".
# Every check_* function of identities is a target too (see install).
TARGETS = (
    ("poly", "Polynomial.__add__", "poly.add", "call"),
    ("poly", "Polynomial.__sub__", "poly.sub", "call"),
    ("poly", "Polynomial.__rsub__", "poly.sub", "call"),
    ("poly", "Polynomial.__neg__", "poly.neg", "call"),
    ("poly", "Polynomial.__mul__", "poly.mul", "call"),
    ("poly", "Polynomial.__pow__", "poly.pow", "call"),
    ("poly", "Polynomial.__eq__", "poly.eq", "call"),
    ("poly", "Polynomial.eval", "poly.eval", "call"),
    ("poly", "Polynomial.substitute", "poly.substitute", "call"),
    ("poly", "Polynomial.swap_ab", "poly.swap_ab", "call"),
    ("poly", "Polynomial.__str__", "poly.str", "call"),
    ("poly", "range_product", "poly.range_product", "call"),
    ("lah_core", "LahTriangle.poly", "lah_core.read", "call"),
    ("lah_core", "LahTriangle._extend", "lah_core.fill", "call"),
    ("lah_core", "g_poly", "lah_core.g_poly", "call"),
    ("lah_core", "g_eval", "lah_core.g_eval", "call"),
    ("lah_core", "row_sum_poly", "lah_core.row_sum", "call"),
    ("lah_core", "row_sum_marked", "lah_core.row_sum", "call"),
    ("distributions", "iter_arrangements", "distributions.iter_arrangements", "gen"),
    ("distributions", "enumerate_distributions", "distributions.enumerate", "gen"),
    ("distributions", "stats", "distributions.stats", "call"),
    ("distributions", "oracle_row", "distributions.oracle_row", "call"),
    ("distributions", "LahDistribution.validate", "distributions.validate", "call"),
    ("identities", "sweep_detailed", "identities.sweep", "call"),
    ("identities", "Checker.g", "identities.cell", "call"),
    ("identities", "Checker._derived_cell", "identities.derived", "call"),
    ("bijections", "iter_pairs", "bijections.iter_pairs", "gen"),
    ("bijections", "invol_i", "bijections.invol", "call"),
    ("bijections", "invol_ii", "bijections.invol", "call"),
    ("bijections", "invol_iii", "bijections.invol", "call"),
    ("bijections", "_is_fixed_i", "bijections.fixed_predicate", "call"),
    ("bijections", "_is_fixed_ii", "bijections.fixed_predicate", "call"),
    ("bijections", "_is_fixed_iii", "bijections.fixed_predicate", "call"),
    ("bijections", "OuterArrangement.validate", "bijections.validate", "call"),
    ("bijections", "map_iv", "bijections.map_iv", "call"),
    ("bijections", "inv_iv", "bijections.inv_iv", "call"),
    ("bijections", "closed_form", "bijections.closed_form", "call"),
    ("bijections", "verify_construction", "bijections.verify", "call"),
    ("cli", "main", "cli.main", "call"),
)

MODULES = ("poly", "lah_core", "distributions", "identities", "bijections", "cli")


class Tracer:
    """Spans of one command, in parallel arrays indexed by span number."""

    def __init__(self, command_id: int) -> None:
        self.command_id = command_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, after=None):
        """A traced stand-in for ``fn``.  ``name`` is a span name or a
        function of the call's arguments that returns one; ``after`` sees
        the arguments and the result once the span has ended."""
        names, parents, starts, ends, stack = (self.name, self.parent, self.start,
                                               self.end, self.stack)
        fixed = None if callable(name) else self.name_id(name)
        name_id = self.name_id

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(fixed if fixed is not None else name_id(name(args)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, fn, name):
        """Like ``wrap`` for a generator function: one span per ``next``,
        and a ``<name>.items`` counter of the items yielded."""
        names, parents, starts, ends, stack = (self.name, self.parent, self.start,
                                               self.end, self.stack)
        nid = self.name_id(name)
        items_key = name + ".items"
        counters = self.counters

        def drive(inner):
            while True:
                i = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(i)
                starts.append(perf_counter())
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    ends[i] = perf_counter()
                    stack.pop()
                counters[items_key] = counters.get(items_key, 0) + 1
                yield item

        def traced(*args, **kwargs):
            return drive(fn(*args, **kwargs))

        return traced

    def dump(self, path: str) -> None:
        header = {"command_id": self.command_id, "names": self.names,
                  "counters": self.counters, "spans": len(self.start)}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(out)


def _patch_everywhere(modules, owner, attr: str, original, replacement) -> int:
    """Point every reference to ``original`` at ``replacement``."""
    patched = 0
    if isinstance(owner, type):
        for key, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, key, replacement)
                patched += 1
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                patched += 1
            elif isinstance(value, dict):
                for slot, entry in list(value.items()):
                    if entry is original:
                        value[slot] = replacement
                        patched += 1
    if not patched:
        raise RuntimeError(f"no reference to {attr} found to trace")
    return patched


def _identity_checks(identities):
    return tuple(name for name, value in vars(identities).items()
                 if name.startswith("check_") and callable(value))


def install(command_id: int) -> Tracer:
    """Wrap every target in the loaded rlah package; return the tracer."""
    tracer = Tracer(command_id)
    modules = {name: importlib.import_module(f"rlah.{name}") for name in MODULES}
    package = importlib.import_module("rlah")
    everywhere = (package, *modules.values())

    def terms_out(args, result):
        tracer.count("poly.mul.terms_out", len(getattr(result, "_terms", ())))

    def filled(args, result):
        tracer.count("lah_core.cells", args[0].max_n + 1)

    def skipped(args, result):
        tracer.count("identities.skipped", len(result[1]))

    def fixed(args, result):
        if result:
            tracer.count("bijections.fixed")

    def pairs(args, result):
        tracer.count(f"bijections.pairs.{args[0]}", result.total_pairs)

    after = {"poly.mul": terms_out, "lah_core.fill": filled,
             "identities.sweep": skipped, "bijections.fixed_predicate": fixed,
             "bijections.verify": pairs}
    span_name = {"bijections.verify": lambda args: f"bijections.verify.{args[0]}"}
    targets = list(TARGETS)
    targets += [("identities", name, "identities.check", "call")
                for name in _identity_checks(modules["identities"])]
    for module_name, dotted, name, kind in targets:
        owner = modules[module_name]
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner).get(attr)
        if original is None:
            raise RuntimeError(f"trace target rlah.{module_name}.{dotted} is missing")
        if kind == "gen":
            replacement = tracer.wrap_generator(original, name)
        else:
            replacement = tracer.wrap(original, span_name.get(name, name), after.get(name))
        _patch_everywhere(everywhere, owner, dotted, original, replacement)
    return tracer


def load(path) -> dict:
    """Fold one span file into per-name totals.

    Returns ``{"command_id", "counters", "spans", "names": {name: {"calls",
    "incl_s", "self_s", "with_children"}}}`` where ``with_children`` counts
    the spans of that name that had at least one child span.
    """
    with open(path, "rb") as src:
        header = json.loads(src.readline())
        count = header["spans"]
        columns = []
        for code in ("H", "i", "d", "d"):
            column = array(code)
            column.fromfile(src, count)
            columns.append(column)
    name, parent, start, end = columns
    duration = [e - s for s, e in zip(start, end)]
    child_time = [0.0] * count
    has_child = bytearray(count)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += duration[i]
            has_child[p] = 1
    width = len(header["names"])
    calls = [0] * width
    incl = [0.0] * width
    self_time = [0.0] * width
    with_children = [0] * width
    for i, nid in enumerate(name):
        calls[nid] += 1
        incl[nid] += duration[i]
        self_time[nid] += duration[i] - child_time[i]
        with_children[nid] += has_child[i]
    totals = {label: {"calls": calls[nid], "incl_s": incl[nid], "self_s": self_time[nid],
                      "with_children": with_children[nid]}
              for nid, label in enumerate(header["names"])}
    return {"command_id": header["command_id"], "counters": header["counters"],
            "spans": count, "names": totals}
