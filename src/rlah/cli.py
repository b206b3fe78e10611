"""Command-line front end: tables, identity sweeps, oracle comparison,
construction verification, and integer-sequence cross-checks.

Exit codes are a stable contract for CI: 0 all-pass, 1 verification
failure, 2 usage error, 3 enumeration cap exceeded.  A request exits 2
or 3 before any work starts (caps included), printing nothing to stdout.
Otherwise each line or row prints as it is made, and the code is read
after the last; if the reader closes stdout early, the rest is made and
sent to ``os.devnull``.  An exception raised mid-output propagates out of
``main``: what was printed stays, and the interpreter exits nonzero with a
traceback.

Each command loads only the modules it runs: ``table`` and ``sequences``
read the triangles of :mod:`rlah.lah_core`, and the other handlers import
the identities, the enumeration oracle or the constructions when they
are entered.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from itertools import chain, product
from math import prod

from .lah_core import DEFAULT_CAP, binomial, g_eval, g_poly
from .poly import ZERO

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3

#: Most values one ``LO..HI`` span may hold: far above any sweep that ends
#: in useful time (the widest in use is 0..20), and cheap to build at once.
MAX_SPAN = 1_000

#: Largest triangle row and level ``check`` reads unless ``--cap-override``
#: raises it: far above every sweep in use (rows to 19, levels to 8).
CHECK_CAP = 100

#: Most (identity, params) tuples one ``check`` request may name, run or
#: skipped, since each prints a line: far above every sweep in use (the
#: widest names 80,250).  No flag moves it.
CHECK_TUPLES = 1_000_000


class Output(namedtuple("Output", "code header rows lines payload",
                        defaults=((), (), (), None))):
    """What a command prints: ``code``, a function giving the exit code once
    the output is emitted, and a tuple of column names ``header``.  ``rows``
    are dicts keyed by ``header`` (csv writes the header's columns, json the
    whole objects) unless a ``payload`` gives the json document; ``lines``
    are the text format's strs.  Rows and lines may be lazy, made as they
    print: only the chosen format is ever built."""

    __slots__ = ()


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it with minimal quoting: ``None``
    is empty, anything else is ``str(value)``, wrapped in double quotes
    (inner ones doubled) if it holds a comma, a double quote or a newline.
    A carriage return, a tab or a leading space is not quoted."""
    if value is None:
        return ""
    text = str(value)
    if "," in text or '"' in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit(fmt: str, out: Output) -> None:
    """Print ``out`` in ``fmt``.  csv writes the header, then each row's
    ``header`` columns (a missing one empty, others ignored) through
    ``_csv_field``, one row at a time.  For every header of two or more
    columns (the writer quotes a lone empty field) these are the bytes of
    ``csv.DictWriter(..., extrasaction="ignore", lineterminator="\\n")``
    without the csv module's writer, which tests every character of every
    field: on the 38 MB of polynomial text of ``table --n 120 --r 2`` it
    took 0.75 s where the join takes 0.03 s (CPython 3.11, one Xeon core).
    json rows stream, row by row, as the bytes of one ``json.dumps`` of their list."""
    write = sys.stdout.write
    if fmt == "json":
        import json  # only json output loads the module

        # sort_keys plus default separators keep load/dump round trips byte-identical
        if out.payload is not None:
            print(json.dumps(out.payload, sort_keys=True))
            return
        write("[")
        for i, row in enumerate(out.rows):
            write((", " if i else "") + json.dumps(row, sort_keys=True))
        write("]\n")
    elif fmt == "csv":
        write(",".join(map(_csv_field, out.header)) + "\n")
        for row in out.rows:
            write(",".join([_csv_field(row.get(key)) for key in out.header]) + "\n")
    else:
        for line in out.lines:
            write(line + "\n")  # one write per line, where print makes two


def _refuse(command: str, code: int, message) -> SystemExit:
    print(f"{command}: {message}", file=sys.stderr)
    return SystemExit(code)


def _verdict(reports):
    """``reports`` passed through as they are made, and a function giving
    the exit code of those made so far: EXIT_FAIL once one has failed."""
    seen = set()  # the ``passed`` values met so far
    return ((seen.add(rep.passed) or rep) for rep in reports), \
        lambda: EXIT_FAIL if False in seen else EXIT_OK


def _parse_span(text: str) -> tuple[int, ...]:
    """``LO..HI`` inclusive, or a single value; HI < LO is the empty selection.
    A span of more than MAX_SPAN values is refused, on one stderr line, before
    it is built."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi - lo >= MAX_SPAN:
                print(f"rlah: span {text} holds more than {MAX_SPAN} values", file=sys.stderr)
                raise SystemExit(EXIT_USAGE)
            return tuple(range(lo, hi + 1))
        return (int(text),)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected N or LO..HI")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "csv", "json"), default="text")

    parser = argparse.ArgumentParser(prog="rlah",
                                     description="exact generalized r-Lah toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", parents=[common], help="print triangle rows")
    p_table.add_argument("--n", type=int, required=True, help="largest row")
    p_table.add_argument("--r", type=int, required=True)
    p_table.add_argument("--a", type=int, default=None)
    p_table.add_argument("--b", type=int, default=None)

    p_check = sub.add_parser("check", parents=[common], help="verify identities")
    p_check.add_argument("--id", default="all",
                         help="comma-separated identity ids, or 'all'")
    for flag in ("--n", "--k", "--m", "--r", "--s"):
        p_check.add_argument(flag, type=_parse_span, default=(0,), metavar="LO..HI")
    p_check.add_argument("--cap-override", type=int, default=None, metavar="N",
                         help=f"raise the largest row and level read (default {CHECK_CAP})")

    p_oracle = sub.add_parser("oracle", parents=[common],
                              help="compare the triangles to brute-force enumeration")
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--r", type=int, required=True)

    p_con = sub.add_parser("constructions", parents=[common],
                           help="verify the involution/bijection constructions")
    p_con.add_argument("--id", default="all")
    for flag in ("--n", "--k", "--r", "--s"):
        p_con.add_argument(flag, type=_parse_span, default=(0,), metavar="LO..HI")
    p_con.add_argument("--trace", action="store_true",
                       help="print before/after text for each map application")

    for enumerating in (p_oracle, p_con):
        enumerating.add_argument("--cap-override", type=int, default=None, metavar="N",
                                 help=f"raise the enumeration cap (default {DEFAULT_CAP})")

    p_seq = sub.add_parser("sequences", parents=[common],
                           help="row-sum specializations vs integer recurrences")
    p_seq.add_argument("which", choices=("bell", "a000262", "r_bell"))
    p_seq.add_argument("--n", type=int, required=True, help="largest index (<= 12)")
    p_seq.add_argument("--r", type=int, default=0)

    return parser


# ----------------------------------------------------------------------
# table


def cmd_table(args) -> Output:
    if args.n < 0 or args.r < 0:
        raise _refuse("table", EXIT_USAGE, "need --n and --r nonnegative")
    bindings = {name: value for name, value in (("a", args.a), ("b", args.b))
                if value is not None}
    numeric = len(bindings) == 2

    def row(n):
        if numeric:
            return (g_eval(n, k, args.r, args.a, args.b) for k in range(n + 1))
        cells = (g_poly(n, k, args.r) for k in range(n + 1))
        return (str(cell.eval(**bindings) if bindings else cell) for cell in cells)

    rows = ({"n": n, "k": k, "value": value}
            for n in range(args.n + 1) for k, value in enumerate(row(n)))
    separator = " " if numeric else " | "
    lines = (separator.join(str(value) for value in row(n)) for n in range(args.n + 1))
    return Output(lambda: EXIT_OK, ("n", "k", "value"), rows, lines)


# ----------------------------------------------------------------------
# check


def _ids(text: str, known: tuple[str, ...]) -> tuple[list[str], list[str]]:
    """The ids an ``--id`` list names (``all``: every known one, else
    comma-separated and case-insensitive), and those of them not known."""
    ids = list(known) if text == "all" else [piece.strip().upper() for piece in text.split(",")]
    return ids, [i for i in ids if i not in known]


def cmd_check(args) -> Output:
    from . import identities

    ids, unknown = _ids(args.id, identities.IDENTITY_IDS)
    if unknown:
        raise _refuse("check", EXIT_USAGE, f"unknown identity id in {args.id!r}")
    spans = vars(args)
    tuples = sum(prod(len(spans[slot]) for slot in identities.IDENTITIES[ident][0])
                 for ident in ids)
    if tuples > CHECK_TUPLES:
        raise _refuse("check", EXIT_CAP, f"names {tuples} tuples, past the limit "
                      f"{CHECK_TUPLES}; narrow the ranges")
    row, level = identities.reach(ids, spans)
    limit = CHECK_CAP if args.cap_override is None else args.cap_override
    if max(row, level) > limit:
        raise _refuse("check", EXIT_CAP, f"reads row {row} and level {level}, past the cap "
                      f"{limit}; raise the cap explicitly to proceed")
    ranges = {slot: spans[slot] for slot in identities.SLOTS}
    # skipped tuples print after every report, from a walk testing preconditions only
    reports, code = _verdict(identities.sweep(ids, **ranges))

    def rows():
        for rep in reports:
            row = {"identity": rep.identity_id, **dict(zip(identities.SLOTS, rep.params)),
                   "status": "PASS" if rep.passed else "FAIL"}
            if not rep.passed:
                row.update(lhs=str(rep.lhs), rhs=str(rep.rhs))
            yield row
        for ident, params in identities.sweep(ids, **ranges, skipped=True):
            yield {"identity": ident, **dict(zip(identities.SLOTS, params)), "status": "SKIP"}

    def lines():
        for rep in reports:
            yield rep.line()
            if not rep.passed:
                yield f"  lhs: {rep.lhs}"
                yield f"  rhs: {rep.rhs}"
        for ident, params in identities.sweep(ids, **ranges, skipped=True):
            yield f"{ident} {identities.format_params(params)} SKIP"

    return Output(code, ("identity", *identities.SLOTS, "status"), rows(), lines())


# ----------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> Output:
    from .distributions import SizeLimitError, check_cap, oracle_row

    if args.n < 0 or args.r < 0:
        raise _refuse("oracle", EXIT_USAGE, "need --n and --r nonnegative")
    try:
        check_cap(args.n, args.r, args.cap_override)
    except SizeLimitError as exc:
        raise _refuse("oracle", EXIT_CAP, exc)
    cells = 0
    mismatches = []
    for r in range(args.r + 1):
        for n in range(args.n + 1):
            row = oracle_row(n, r, cap=args.cap_override)
            for k in range(n + 1):
                expected = row.get(k, ZERO)
                actual = g_poly(n, k, r)
                cells += 1
                if expected != actual:
                    mismatches.append((n, k, r, str(expected), str(actual)))
    status = "PASS" if not mismatches else "FAIL"
    lines = chain((f"MISMATCH n={n} k={k} r={r} oracle={expected} triangle={actual}"
                   for n, k, r, expected, actual in mismatches), [f"cells={cells} {status}"])
    return Output(lambda: EXIT_FAIL if mismatches else EXIT_OK,
                  ("cells", "mismatches", "status"),
                  [{"cells": cells, "mismatches": len(mismatches), "status": status}], lines,
                  {"cells": cells, "mismatches": [list(m) for m in mismatches],
                   "status": status})


# ----------------------------------------------------------------------
# constructions


def cmd_constructions(args) -> Output:
    from . import bijections
    from .distributions import SizeLimitError, check_cap

    ids, unknown = _ids(args.id, bijections.CONSTRUCTION_IDS)
    if unknown:
        raise _refuse("constructions", EXIT_USAGE, f"unknown id(s) {unknown}")
    selected = []
    try:
        for cid in ids:
            for n, k, r, s in product(args.n, args.k, args.r, args.s):
                if bijections.construction_applies(cid, n, k, r, s):
                    check_cap(n, r, args.cap_override, s)
                    selected.append((cid, n, k, r, s))
    except SizeLimitError as exc:
        raise _refuse("constructions", EXIT_CAP, exc)
    reports, code = _verdict(bijections.verify_construction(*task, cap=args.cap_override)
                             for task in selected)
    header = ("construction", "n", "k", "r", "s", "pairs", "fixed", "signed", "target",
              "status")
    rows = (dict(zip(header, (rep.construction_id, *rep.params, rep.total_pairs,
                              rep.fixed_points, rep.signed_sum, rep.closed_form,
                              "PASS" if rep.passed else "FAIL")))
            for rep in reports)

    def lines():  # each tuple is verified just before its trace and its report line
        for task, rep in zip(selected, reports):
            if args.trace:  # a second pass over the family, rendered as it goes
                for before, after in bijections.trace_construction(
                        *task, cap=args.cap_override):
                    yield f"  {before.text()}  ->  {after.text()}"
            yield rep.line()

    return Output(code, header, rows, lines())


# ----------------------------------------------------------------------
# sequences


def _reference(which: str, n_max: int, r: int) -> list[int]:
    """The sequence from an integer recurrence that never reads the triangles."""
    if which == "a000262":
        seq = [1, 1]
        for n in range(2, n_max + 1):
            seq.append((2 * n - 1) * seq[-1] - (n - 1) * (n - 2) * seq[-2])
        return seq[:n_max + 1]
    bell, row = [1], [1]
    for _ in range(n_max):  # Bell triangle: each row starts with the last entry above
        nxt = [row[-1]]
        for above in row:
            nxt.append(nxt[-1] + above)
        row = nxt
        bell.append(row[0])
    if which == "bell":
        return bell
    # r-Bell numbers (Mezo, J. Integer Seq. 2011): B_{n,r} = sum_i C(n,i) B_i r^(n-i)
    return [sum(binomial(n, i) * bell[i] * r ** (n - i) for i in range(n + 1))
            for n in range(n_max + 1)]


def cmd_sequences(args) -> Output:
    if args.n < 0 or args.n > 12:
        raise _refuse("sequences", EXIT_USAGE, "--n must be between 0 and 12")
    if args.r < 0:
        raise _refuse("sequences", EXIT_USAGE, "--r must be nonnegative")
    if args.r and args.which != "r_bell":
        raise _refuse("sequences", EXIT_USAGE, f"--r is only read by r_bell, not {args.which}")
    a_val = 1 if args.which == "a000262" else 0
    values = [sum(g_eval(n, k, args.r, a_val, 1) for k in range(n + 1))
              for n in range(args.n + 1)]
    status = "PASS" if values == _reference(args.which, args.n, args.r) else "FAIL"
    return Output(lambda: EXIT_OK if status == "PASS" else EXIT_FAIL, ("n", "value"),
                  ({"n": n, "value": value} for n, value in enumerate(values)),
                  chain((f"{n} {value}" for n, value in enumerate(values)), [status]),
                  {"status": status, "values": values, "which": args.which})


_HANDLERS = {
    "table": cmd_table,
    "check": cmd_check,
    "oracle": cmd_oracle,
    "constructions": cmd_constructions,
    "sequences": cmd_sequences,
}


def main(argv: list[str] | None = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # exact values may run past CPython's default 4,300-digit int/str limit
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        out = _HANDLERS[args.command](args)  # a refusal raises before any work
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        _emit(args.format, out)
        sys.stdout.flush()  # a reader that closes after the last write is met here
    except BrokenPipeError:
        # the reader closed stdout early: make the rest, for the verdict, and
        # send it and the interpreter's final flush nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _emit(args.format, out)
    return out.code()


if __name__ == "__main__":
    sys.exit(main())
