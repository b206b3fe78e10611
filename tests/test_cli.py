"""CLI behaviour: formats, exit codes, and content parity across formats."""

import contextlib
import csv
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlah import bijections, cli, distributions, identities, lah_core
from rlah.lah_core import g_eval
from test_cli_golden import GOLDEN


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_table_numeric(capsys):
    code, out = run(capsys, "table", "--n", "3", "--r", "0", "--a", "1", "--b", "1")
    assert code == 0
    assert out.splitlines() == ["1", "0 1", "0 2 1", "0 6 6 1"]


def test_table_symbolic(capsys):
    code, out = run(capsys, "table", "--n", "2", "--r", "1")
    assert code == 0
    assert out.splitlines()[1].startswith("a + b")


def test_table_single_cell(capsys):
    code, out = run(capsys, "table", "--n", "0", "--r", "5")
    assert code == 0
    assert out.strip() == "1"


def test_table_partial_binding(capsys):
    code, out = run(capsys, "table", "--n", "1", "--r", "1", "--a", "0")
    assert code == 0
    assert out.splitlines()[1].split(" | ")[0] == "b"


def test_check_all_pass(capsys):
    code, out = run(capsys, "check", "--id", "connection", "--n", "0..6", "--r", "0..3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 28
    assert all(line.endswith("PASS") for line in lines)


def test_check_skip_line(capsys):
    code, out = run(capsys, "check", "--id", "rlah_ii", "--n", "2", "--k", "1",
                    "--r", "0", "--s", "3")
    assert code == 0
    assert out.strip() == "RLAH_II n=2 k=1 r=0 s=3 SKIP"


def test_check_empty_selection(capsys):
    code, out = run(capsys, "check", "--id", "connection", "--n", "1..0", "--r", "0..2")
    assert code == 0
    assert out == ""


def test_check_precondition_only_tuples(capsys):
    code, out = run(capsys, "check", "--id", "vertical", "--n", "0", "--k", "5")
    assert code == 0
    assert "SKIP" in out  # the only tuple violates the precondition


def test_check_unknown_id(capsys):
    code, _ = run(capsys, "check", "--id", "bogus", "--n", "1")
    assert code == 2


def test_check_failure_exit_and_witness(capsys, monkeypatch):
    poisoned = identities.Checker()
    poisoned.corrupt_cell(1, 3, 1)
    monkeypatch.setattr(lah_core, "DEFAULT", poisoned)
    code, out = run(capsys, "check", "--id", "connection", "--n", "3", "--r", "1")
    assert code == 1
    assert "FAIL" in out and "lhs:" in out and "rhs:" in out


def test_check_json_round_trip(capsys):
    code, out = run(capsys, "check", "--id", "vertical", "--n", "0..3", "--k", "0..3",
                    "--r", "1", "--format", "json")
    assert code == 0
    emitted = out.strip()
    assert json.dumps(json.loads(emitted), sort_keys=True) == emitted


def test_empty_json_selection_prints_an_empty_list(capsys):
    assert run(capsys, "check", "--id", "all", "--n", "9..8", "--format", "json") == (0, "[]\n")


@pytest.mark.parametrize("weights", [(), (2, 3)])
def test_streamed_json_table_is_one_dump_of_the_rows(capsys, weights):
    argv = ["table", "--n", "6", "--r", "2", "--format", "json"]
    if weights:
        argv += ["--a", str(weights[0]), "--b", str(weights[1])]
    store = lah_core.TriangleStore()
    rows = [{"n": n, "k": k,
             "value": store.g_int(n, k, 2, *weights) if weights else str(store.g(n, k, 2))}
            for n in range(7) for k in range(n + 1)]
    assert run(capsys, *argv) == (0, json.dumps(rows, sort_keys=True) + "\n")


def test_check_formats_carry_identical_content(capsys):
    args = ("check", "--id", "shift", "--n", "0..3", "--k", "0..3", "--r", "1", "--s", "0..1")
    _, text_out = run(capsys, *args)
    _, csv_out = run(capsys, *args, "--format", "csv")
    _, json_out = run(capsys, *args, "--format", "json")

    from_text = set()
    for line in text_out.strip().splitlines():
        pieces = line.split()
        params = {p.split("=")[0]: p.split("=")[1] for p in pieces[1:-1]}
        from_text.add((pieces[0], params.get("n"), params.get("k"),
                       params.get("s"), pieces[-1]))
    from_csv = set()
    for row in csv.DictReader(io.StringIO(csv_out)):
        from_csv.add((row["identity"], row["n"] or None, row["k"] or None,
                      row["s"] or None, row["status"]))
    from_json = set()
    for entry in json.loads(json_out):
        from_json.add((entry["identity"],
                       None if entry["n"] is None else str(entry["n"]),
                       None if entry["k"] is None else str(entry["k"]),
                       None if entry["s"] is None else str(entry["s"]),
                       entry["status"]))
    assert from_text == from_csv == from_json


def test_oracle_pass(capsys):
    code, out = run(capsys, "oracle", "--n", "4", "--r", "2")
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "cells=" in out


def test_oracle_cap_refusal(capsys):
    code, _ = run(capsys, "oracle", "--n", "9", "--r", "3")
    assert code == 3
    code, out = run(capsys, "oracle", "--n", "0", "--r", "0")
    assert code == 0 and "cells=1" in out


def test_oracle_refuses_before_enumerating(capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("an object was generated before the cap refusal")

    monkeypatch.setattr(distributions, "iter_arrangements", no_enumeration)
    assert run(capsys, "oracle", "--n", "6", "--r", "3", "--cap-override", "8") == (3, "")
    # an admitted request does reach the patched name, so the refusal above
    # is not vacuous
    with pytest.raises(AssertionError, match="generated"):
        run(capsys, "oracle", "--n", "1", "--r", "0")


def test_oracle_cap_override(capsys):
    code, out = run(capsys, "oracle", "--n", "4", "--r", "2", "--cap-override", "5")
    assert code == 3
    code, out = run(capsys, "oracle", "--n", "4", "--r", "2", "--cap-override", "12")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("check", "--id", "connection", "--n", str(cli.CHECK_CAP + 1)),
    ("check", "--id", "splitting", "--n", "0..60", "--m", "0..41"),
    ("check", "--id", "shift,inversion", "--n", "1", "--r", "50", "--s", "51"),
    ("check", "--id", "rlah_ii", "--n", "2", "--r", str(cli.CHECK_CAP // 2 + 1)),
])
def test_check_refuses_past_the_cap_before_filling_a_triangle(capsys, monkeypatch, argv):
    def no_fill(*args):
        raise AssertionError("a triangle row was filled before the cap refusal")

    monkeypatch.setattr(lah_core, "DEFAULT", lah_core.TriangleStore())
    monkeypatch.setattr(lah_core.LahTriangle, "_extend", no_fill)
    assert cli.main(list(argv)) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    # an admitted request does fill a row, so the refusal above is not vacuous
    with pytest.raises(AssertionError, match="filled"):
        cli.main(["check", "--id", "connection", "--n", "1"])


def test_check_cap_override_admits_the_refused_request(capsys):
    argv = ("check", "--id", "connection", "--n", str(cli.CHECK_CAP + 1))
    assert run(capsys, *argv, "--cap-override", "5") == (3, "")
    code, out = run(capsys, *argv, "--cap-override", str(cli.CHECK_CAP + 1))
    assert (code, out) == (0, f"CONNECTION n={cli.CHECK_CAP + 1} r=0 PASS\n")


def test_check_reads_the_inversion_seed_as_no_level(capsys):
    # the identities benchmark passes seeds past a million
    code, out = run(capsys, "check", "--id", "inversion", "--n", "10", "--r", "0..3",
                    "--s", "1000000..1000002")
    assert code == 0 and out.count("PASS") == 12


def test_constructions_refuse_an_outer_side_over_the_cap_before_enumerating(capsys,
                                                                           monkeypatch):
    # n + r = 5 is within the cap, the n + s = 17 outer items are not
    def no_enumeration(*args, **kwargs):
        raise AssertionError("a grouping was generated before the cap refusal")

    monkeypatch.setattr(bijections, "iter_arrangements", no_enumeration)
    assert run(capsys, "constructions", "--id", "i_neg", "--n", "5", "--k", "0", "--r", "0",
               "--s", "12") == (3, "")
    # an admitted request does reach the patched name, so the refusal above
    # is not vacuous
    with pytest.raises(AssertionError, match="generated"):
        run(capsys, "constructions", "--id", "i_neg", "--n", "1", "--k", "0", "--r", "0",
            "--s", "1")


def test_constructions_cap_override_raises_the_outer_bound(capsys):
    argv = ("constructions", "--id", "i_neg", "--n", "2", "--k", "0", "--r", "0", "--s", "8")
    assert run(capsys, *argv) == (3, "")
    code, out = run(capsys, *argv, "--cap-override", "10")
    assert code == 0 and out.endswith("PASS\n")


def test_constructions_refuse_over_the_cap_while_selecting(capsys, monkeypatch):
    # the cap is checked on each applicable tuple as it is selected, so a
    # request far past the cap is refused without testing all 21**4 tuples
    calls = []
    applies = bijections.construction_applies

    def counted(*args):
        calls.append(args)
        return applies(*args)

    monkeypatch.setattr(bijections, "construction_applies", counted)
    assert run(capsys, "constructions", "--id", "i_pos", "--n", "0..20", "--k", "0..20",
               "--r", "0..20", "--s", "0..20") == (3, "")
    assert 0 < len(calls) < 1000


def test_constructions_pass(capsys):
    code, out = run(capsys, "constructions", "--id", "iv", "--n", "0..3", "--k", "0..3",
                    "--r", "0..2", "--s", "0..2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.endswith("PASS") for line in lines)


def test_constructions_trace(capsys):
    code, out = run(capsys, "constructions", "--id", "i_pos", "--n", "2", "--k", "1",
                    "--r", "1", "--s", "0", "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # four applications plus the report line
    assert sum("->" in line for line in lines) == 4


def test_trace_lines_are_made_while_printing(monkeypatch):
    # each tuple's trace is a pass of its own, started just before its lines
    started = []
    trace = bijections.trace_construction

    def counted(*args, **kwargs):
        started.append(args)
        return trace(*args, **kwargs)
    monkeypatch.setattr(bijections, "trace_construction", counted)
    args = cli.build_parser().parse_args(["constructions", "--id", "i_pos", "--n", "2",
                                          "--k", "1", "--r", "1", "--s", "0..1", "--trace"])
    lines = iter(cli.cmd_constructions(args).lines)
    assert "->" in next(lines) and len(started) == 1
    rest = list(lines)
    assert len(started) == 2 and sum(line.endswith("PASS") for line in rest) == 2


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trace_is_not_made_for_csv_or_json(capsys, monkeypatch, fmt):
    def no_trace(*args, **kwargs):
        raise AssertionError("a trace was made")
    monkeypatch.setattr(bijections, "trace_construction", no_trace)
    traced = [entry for entry in GOLDEN if "--trace" in entry[0] and f"--format {fmt}" in entry[0]]
    assert traced
    for command, code, digest in traced:
        got, out = run(capsys, *command.split())
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), command


def test_constructions_unknown_id(capsys):
    code, _ = run(capsys, "constructions", "--id", "zzz", "--n", "1")
    assert code == 2


def test_constructions_cap_contract(capsys, monkeypatch):
    args = ("constructions", "--id", "i_pos", "--n", "8", "--k", "8", "--r", "2", "--s", "0")
    assert run(capsys, *args) == (3, "")
    code, out = run(capsys, *args, "--cap-override", "10")
    assert code == 0 and out.endswith("PASS\n")

    def no_verification(*args, **kwargs):
        raise AssertionError("a tuple was verified before the cap refusal")

    monkeypatch.setattr(bijections, "verify_construction", no_verification)
    assert run(capsys, "constructions", "--id", "i_pos", "--n", "7..8", "--k", "7..8",
               "--r", "2", "--s", "0") == (3, "")


def test_constructions_csv(capsys):
    code, out = run(capsys, "constructions", "--id", "ii_eq", "--n", "2", "--k", "1",
                    "--r", "1", "--s", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["status"] == "PASS" and rows[0]["construction"] == "II_EQ"


def test_sequences_bell(capsys):
    code, out = run(capsys, "sequences", "bell", "--n", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "PASS"
    values = [int(line.split()[1]) for line in lines[:-1]]
    assert values == [1, 1, 2, 5, 15, 52, 203, 877]


def test_sequences_a000262(capsys):
    code, out = run(capsys, "sequences", "a000262", "--n", "6")
    assert code == 0
    values = [int(line.split()[1]) for line in out.strip().splitlines()[:-1]]
    assert values == [1, 1, 3, 13, 73, 501, 4051]


def test_sequences_r_bell_reduces_to_bell(capsys):
    _, bell = run(capsys, "sequences", "bell", "--n", "6")
    _, rb = run(capsys, "sequences", "r_bell", "--n", "6", "--r", "0")
    assert bell.strip().splitlines()[:-1] == rb.strip().splitlines()[:-1]


@pytest.mark.parametrize("argv", [("bell",), ("a000262",)] +
                         [("r_bell", "--r", str(r)) for r in range(4)])
def test_sequences_checked_to_index_12(capsys, argv):
    code, out = run(capsys, "sequences", *argv, "--n", "12")
    assert code == 0 and out.splitlines()[-1] == "PASS"
    assert len(out.splitlines()) == 14


def test_sequences_limit(capsys):
    code, _ = run(capsys, "sequences", "bell", "--n", "13")
    assert code == 2


def test_usage_error_exit_code(capsys):
    assert cli.main(["table"]) == 2
    assert cli.main(["nonsense"]) == 2


@pytest.mark.parametrize("argv", [
    ("table", "--n", "2", "--r", "0", "--jobs", "4", "--cap-override", "1"),
    ("table", "--n", "2", "--r", "0", "--jobs", "4"),
    ("check", "--id", "connection", "--trace"),
    ("check", "--id", "connection", "--jobs", "2"),
    ("oracle", "--n", "1", "--r", "0", "--jobs", "2"),
    ("sequences", "bell", "--n", "3", "--cap-override", "12"),
    ("sequences", "bell", "--n", "4", "--r", "3"),
    ("sequences", "a000262", "--n", "4", "--r", "1"),
])
def test_flags_only_where_they_act(capsys, argv):
    assert run(capsys, *argv) == (2, "")


@pytest.mark.parametrize("argv", [
    ("check", "--id", "connection", "--n", "0..10000000000"),
    ("constructions", "--id", "iv", "--s", "2..20000000000"),
])
def test_a_span_too_wide_is_refused_before_it_is_built(capsys, monkeypatch, argv):
    def no_tuple(*args):
        raise AssertionError("a span was built before the refusal")

    # _parse_span reads this name before the builtin, so a missing bound
    # fails here instead of allocating ten billion entries
    monkeypatch.setattr(cli, "tuple", no_tuple, raising=False)
    assert cli.main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    monkeypatch.undo()
    assert cli._parse_span(f"1..{cli.MAX_SPAN}") == tuple(range(1, cli.MAX_SPAN + 1))
    with pytest.raises(SystemExit):
        cli._parse_span(f"0..{cli.MAX_SPAN}")


def _span(hi):
    ends = st.integers(-2, hi)
    return ends.map(str) | st.tuples(ends, ends).map(lambda pair: "%d..%d" % pair)


def _value(lo, hi):
    return st.integers(lo, hi).map(str)


# each subcommand's flags with the values the fuzzer draws for them (None: a
# switch); enumerating commands stay at n <= 3, r, s <= 2
FUZZ_FLAGS = {
    "table": {"--n": _value(-2, 4), "--r": _value(-2, 4), "--a": _value(-2, 4),
              "--b": _value(-2, 4)},
    "check": {"--id": st.sampled_from(["all", "connection", "rlah_i,rlah_iv", "nope", ""]),
              **{flag: _span(4) for flag in ("--n", "--k", "--m", "--r", "--s")},
              "--cap-override": _value(-2, 4)},
    "oracle": {"--n": _value(-2, 3), "--r": _value(-2, 2), "--cap-override": _value(-2, 4)},
    "constructions": {"--id": st.sampled_from(["all", "i_pos", "iv", "zzz"]),
                      "--n": _span(3), "--k": _span(4), "--r": _span(2), "--s": _span(2),
                      "--trace": None, "--cap-override": _value(-2, 4)},
    "sequences": {"--n": _value(-2, 4), "--r": _value(-2, 4)},
}
JUNK = st.sampled_from(["--bogus", "x", "--n", "1..", "..", "-1..2", "--jobs", "--trace",
                        "bell", "--format", "yaml"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [command]
    if command == "sequences":
        argv.append(draw(st.sampled_from(["bell", "a000262", "r_bell", "fib"])))
    flags = FUZZ_FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags) + ["--format"]), max_size=6)):
        argv.append(flag)
        if flag == "--format":
            argv.append(draw(st.sampled_from(["text", "csv", "json"])))
        elif flags[flag] is not None:
            argv.append(draw(flags[flag]))
    for token in draw(st.lists(JUNK, max_size=2)):
        argv.insert(draw(st.integers(1, len(argv))), token)
    return argv


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_argv())
def test_main_fuzz_keeps_the_exit_contract(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), argv
    if code >= 2:
        assert out.getvalue() == "", argv


# ----------------------------------------------------------------------
# negative controls: one poisoned cell of the shared store reaches every path


@pytest.fixture
def poisoned_store(monkeypatch):
    poisoned = lah_core.TriangleStore()
    poisoned.corrupt_cell(1, 3, 1)
    monkeypatch.setattr(lah_core, "DEFAULT", poisoned)
    return poisoned


def test_poisoned_store_fails_the_oracle(capsys, poisoned_store):
    code, out = run(capsys, "oracle", "--n", "4", "--r", "1")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("MISMATCH")] == [
        "MISMATCH n=3 k=1 r=1 oracle=11*a^2 + 18*a*b + 7*b^2 "
        "triangle=11*a^2 + 18*a*b + 7*b^2 + 1"]


def test_poisoned_store_inversion_witness_differs(capsys, poisoned_store):
    # the witness is the first entry the round trip moved, not entry 0,
    # which a cell of row n >= 1 cannot move
    report = identities.check_inversion(5, 1, 1)
    assert not report.passed and report.lhs != report.rhs
    code, out = run(capsys, "check", "--id", "inversion", "--n", "5", "--r", "1", "--s", "1")
    lhs, rhs = (line.split(":")[1] for line in out.splitlines()[1:])
    assert code == 1 and lhs != rhs


def test_poisoned_store_fails_sequences(capsys, poisoned_store):
    code, out = run(capsys, "sequences", "r_bell", "--n", "5", "--r", "1")
    assert code == 1 and out.splitlines()[-1] == "FAIL"


@pytest.mark.parametrize("which,r,a", [("bell", 0, 0), ("a000262", 0, 1), ("r_bell", 2, 0)])
def test_sequences_read_the_integer_cells(capsys, monkeypatch, which, r, a):
    # one corrupted cell (r, 4, 1) moves exactly the value at n = 4, by its
    # offset; the command fills only the integer triangle at (a, b) = (a, 1)
    argv = ("sequences", which, "--n", "6", "--r", str(r))
    _, clean = run(capsys, *argv)
    poisoned = lah_core.TriangleStore()
    poisoned.corrupt_cell(r, 4, 1, delta=7)
    monkeypatch.setattr(lah_core, "DEFAULT", poisoned)
    code, out = run(capsys, *argv)
    values = [[int(v) for v in line.split()] for line in clean.splitlines()[:-1]]
    values[4][1] += 7
    assert out.splitlines() == [f"{n} {v}" for n, v in values] + ["FAIL"] and code == 1
    assert list(poisoned._triangles) == [(r, a, 1)]


def test_poisoned_store_fails_closed_forms(capsys, poisoned_store):
    code, out = run(capsys, "constructions", "--id", "ii_eq", "--n", "3", "--k", "1",
                    "--r", "1", "--s", "1")
    assert code == 1 and out.endswith("FAIL\n")


def test_poisoned_store_reaches_the_table(capsys, poisoned_store):
    code, out = run(capsys, "table", "--n", "3", "--r", "1")
    assert code == 0
    assert out.splitlines()[3].split(" | ")[1] == str(lah_core.TriangleStore().g(3, 1, 1) + 1)


def _table_cells(fmt, out):
    """{(n, k): value} from a numeric table in any format."""
    if fmt == "json":
        return {(row["n"], row["k"]): row["value"] for row in json.loads(out)}
    if fmt == "csv":
        return {(int(row["n"]), int(row["k"])): int(row["value"])
                for row in csv.DictReader(io.StringIO(out))}
    return {(n, k): int(value) for n, line in enumerate(out.splitlines())
            for k, value in enumerate(line.split(" "))}


@pytest.fixture
def default_int_digits():
    """CPython's default limit on int/str conversion, restored afterwards
    (interpreters before 3.10.7 have no limit)."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_table_prints_integers_of_any_length(capsys, default_int_digits, fmt):
    big = 10 ** 100  # row 50 holds values of over 5,000 digits
    code, out = run(capsys, "table", "--n", "50", "--r", "0", "--a", str(big), "--b", str(big),
                    "--format", fmt)
    assert code == 0
    cells = _table_cells(fmt, out)
    assert len(str(cells[50, 1])) > 4300
    assert cells == {(n, k): g_eval(n, k, 0, big, big) for n in range(51) for k in range(n + 1)}


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_poisoned_store_reaches_the_numeric_table(capsys, poisoned_store, fmt):
    clean = lah_core.TriangleStore().g(3, 1, 1).eval(a=2, b=3).as_int()
    code, out = run(capsys, "table", "--n", "3", "--r", "1", "--a", "2", "--b", "3",
                    "--format", fmt)
    assert code == 0
    assert _table_cells(fmt, out)[3, 1] == clean + 1


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_numeric_table_equals_the_evaluated_cells(capsys, fmt):
    code, out = run(capsys, "table", "--n", "30", "--r", "2", "--a", "2", "--b", "3",
                    "--format", fmt)
    assert code == 0
    store = lah_core.TriangleStore()
    assert _table_cells(fmt, out) == {(n, k): store.g(n, k, 2).eval(a=2, b=3).as_int()
                                      for n in range(31) for k in range(n + 1)}


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "rlah", "table", "--n", "1", "--r", "0",
                           "--a", "1", "--b", "1"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["1", "0 1"]


def test_cli_import_starts_no_process_machinery():
    # importing the CLI loads nothing for worker processes or pickling
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, rlah.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True).stdout.split()
    assert "rlah.cli" in loaded
    assert not [name for name in loaded
                if name.split(".")[0] in ("concurrent", "multiprocessing", "pickle")]


def test_csv_quotes_as_the_csv_module_does(capsys):
    header = ("a", "b", "c")
    rows = [{"a": "x,y", "b": 'say "hi"', "c": "two\nlines"},
            {"a": "cr\rhere", "b": "tab\there", "c": " leading space"},
            {"a": "", "b": None},                                 # "c" missing
            {"a": -7, "b": 10 ** 200, "c": '"', "extra": "ignored"},
            {"a": ',"\n', "b": "a + b", "c": 0}]
    expected = io.StringIO()
    writer = csv.DictWriter(expected, header, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    cli._emit("csv", cli.Output(0, header, iter(rows)))
    assert capsys.readouterr().out == expected.getvalue()


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_closed_stdout_stops_quietly(fmt):
    proc = subprocess.Popen([sys.executable, "-m", "rlah", "table", "--n", "120", "--r", "2",
                             "--format", fmt], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(100)
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 0
    assert "Traceback" not in stderr
