"""End-to-end benchmark of the rlah command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

A user runs ``rlah`` commands, each in a fresh interpreter, and waits for
a PASS/FAIL verdict.  A workload is a fixed list of such commands
(``workloads.json``); the seed orders them and, for the ``identities``
workload, picks the PRNG seeds of the inversion check.  Commands run one
child process at a time with the default ``--jobs 1``, so every command's
triangle caches start cold, as they do for a user.

``--trace 0`` repeats the workload until ``--seconds`` have passed (at
least once), then launches the interpreter ``SETUP_PROBES`` more times
only to time set-up, and reports the end-to-end metrics of
``BENCHMARK.json``: the median over passes (over launches for
``setup_s``), timings scaled for the host's drift (see ``REFERENCE_S``).
``--trace 1`` runs the workload once untraced and once with
every rlah layer traced (see ``tracer.py``) and reports the per-layer
metrics.  Every command's exit code, stdout digest and unit count are
checked against ``workloads.json`` on every pass, traced or not.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its quartiles and sample count.  The exit code is 0 only if
every command matched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# One directory per run, so that runs sharing a checkout do not collide.
WORK = ROOT / ".perfbench_work" / str(os.getpid())
CHILD = BENCH / "child.py"
MARKER = b"perfbench-main-entered "
SETUP_PROBES = 12
# On a shared host the speed of each CPU drifts by tens of per cent over
# seconds to minutes, mostly independently of the other CPUs.  A run keeps
# to one CPU and times reference_loop() on it between commands.  Over
# ten-run sets the drift slowed rlah by anywhere from none to all of what
# it slowed the loop (as a power of the loop's slowdown), so timings are
# scaled by the square root of REFERENCE_S / (median loop time of the run),
# which at most halves the drift either way.  REFERENCE_S is the loop's
# typical time on the host the benchmark was written on.
REFERENCE_S = 0.036
# Children keep compiled bytecode under src/, as an installed package does,
# so set-up time is interpreter start plus imports, not compilation.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
# Digests in workloads.json were captured with the inversion seeds this
# seed selects; other seeds check that command by exit code and count.
RECORDED_SEED = 1
CONSTRUCTION_IDS = ("I_POS", "I_NEG", "II_EQ", "II_MID", "II_GT",
                    "III_EQ", "III_LT", "III_MID", "IV")

sys.path.insert(0, str(BENCH))
import tracer  # noqa: E402


class BenchmarkError(Exception):
    """The benchmark cannot run here at all."""


def lah_distribution_count(n_max: int, r_max: int) -> int:
    """Distributions enumerated by ``rlah oracle --n n_max --r r_max``.

    Sums the rows of the r-Lah triangles (a = b = 1) for r <= r_max and
    n <= n_max, from the integer recurrence, independently of rlah.
    """
    total = 0
    for r in range(r_max + 1):
        row = [1]
        for n in range(n_max + 1):
            total += sum(row)
            row = [(row[k - 1] if k else 0) + (n + k + 2 * r) * (row[k] if k <= n else 0)
                   for k in range(n + 2)]
    return total


def count_units(kind: str, data: bytes) -> int:
    """The unit count a command's stdout reports, read the way ``kind`` says."""
    if kind == "none":
        return 0
    if kind == "cells=":
        return sum(int(m) for m in re.findall(rb"^cells=(\d+) PASS$", data, re.M))
    if kind == "pairs=":
        return sum(int(m) for m in re.findall(rb" pairs=(\d+) .* PASS$", data, re.M))
    if kind == "PASS":
        return len(re.findall(rb" PASS$", data, re.M))
    if kind == "json_list":
        return len(json.loads(data))
    if kind == "json_values":
        return len(json.loads(data)["values"])
    if kind == "csv_rows":
        return data.count(b"\n") - 1
    if kind == "words":
        return len(data.split())
    raise BenchmarkError(f"unknown unit parser {kind!r}")


def load_workload(name: str, seed: int) -> tuple[dict, list[dict]]:
    workloads = json.loads((BENCH / "workloads.json").read_text())["workloads"]
    if name not in workloads:
        raise BenchmarkError(f"unknown workload {name!r}; choose from {sorted(workloads)}")
    spec = workloads[name]
    base = (seed - RECORDED_SEED) % 1_000_000 + RECORDED_SEED
    commands = []
    for index, entry in enumerate(spec["commands"]):
        argv = [f"{base}..{base + 2}" if arg == "SEEDS" else arg for arg in entry["argv"]]
        digest = entry["sha256"] if "SEEDS" not in entry["argv"] or base == RECORDED_SEED \
            else None
        commands.append(dict(entry, id=index, argv=argv, sha256=digest))
        if entry.get("oracle"):
            n_max, r_max = entry["oracle"]
            if lah_distribution_count(n_max, r_max) != entry["units"]:
                raise BenchmarkError(f"workloads.json: wrong distribution count for {argv}")
    if sum(c["units"] for c in commands) != spec["units"]:
        raise BenchmarkError(f"workloads.json: command units do not add up to {spec['units']}")
    random.Random(seed).shuffle(commands)
    return spec, commands


def launch(command_id: int, argv: list[str], trace_file: str = "-") -> dict:
    """Run one child interpreter to completion; time it and read its usage."""
    out_path = WORK / f"{command_id}.out"
    with open(out_path, "wb") as out, open(WORK / f"{command_id}.err", "wb+") as err:
        spawned = time.perf_counter()
        child = subprocess.Popen([sys.executable, str(CHILD), str(command_id), trace_file, *argv],
                                 stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT,
                                 env=CHILD_ENV)
        _, status, usage = os.wait4(child.pid, 0)
        exited = time.perf_counter()
        child.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        first_line = err.readline()
    setup = None
    if first_line.startswith(MARKER):
        setup = float(first_line[len(MARKER):]) - spawned
    return {"code": child.returncode, "spawned": spawned, "exited": exited,
            "setup_s": setup, "rss_mib": usage.ru_maxrss / 1024, "out": out_path}


def check(command: dict, result: dict) -> tuple[list[str], int]:
    """Compare one command's result with its recorded verdict."""
    data = result["out"].read_bytes()
    problems = []
    if result["code"] != command["exit"]:
        problems.append(f"exit code {result['code']}, expected {command['exit']}")
    if result["setup_s"] is None:
        problems.append("cli.main was never entered")
    if command["sha256"] is not None and hashlib.sha256(data).hexdigest() != command["sha256"]:
        problems.append("stdout digest differs from the recorded one")
    if b"FAIL" in data:
        problems.append("stdout has a FAIL verdict")
    try:
        counted = count_units(command["parse"], data)
    except (ValueError, KeyError, TypeError):
        counted = "unreadable"
    if counted != command["count"]:
        problems.append(f"stdout reports {counted} units, expected {command['count']}")
    return problems, len(data)


def reference_loop() -> float:
    """Time a fixed piece of pure-Python work that runs no rlah code."""
    start = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(150_000):
        acc[i & 1023] = acc.get(i & 1023, 0) + i * 3
    return time.perf_counter() - start


def run_pass(commands: list[dict], traced: bool = False) -> dict:
    """Run every command once, in order, with the reference loop timed
    before the first and after each; then check each verdict."""
    results, reference = [], [reference_loop()]
    for command in commands:
        trace_file = str(WORK / f"{command['id']}.spans") if traced else "-"
        results.append(launch(command["id"], command["argv"], trace_file))
        reference.append(reference_loop())
    wall = sum(r["exited"] - r["spawned"] for r in results)
    failures, stdout_bytes = [], 0
    for command, result in zip(commands, results):
        problems, size = check(command, result)
        stdout_bytes += size
        result["out"].unlink()
        if problems:
            failures.append(f"{' '.join(command['argv'])}: {'; '.join(problems)}")
    return {"wall_s": wall, "results": results, "failures": failures,
            "stdout_bytes": stdout_bytes, "reference": reference}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def end_to_end(spec: dict, commands: list[dict], seconds: float) -> tuple[dict, list, int]:
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        passes.append(run_pass(commands))
    probes, reference = [], [t for p in passes for t in p["reference"]]
    for _ in range(SETUP_PROBES):
        probes.append(launch(len(commands), ["--setup-only"]))
        reference.append(reference_loop())
    failures = [f for p in passes for f in p["failures"]]
    failures += ["set-up probe failed" for p in probes if p["code"] != 0 or p["setup_s"] is None]
    setups = [r["setup_s"] for p in passes for r in p["results"] if r["setup_s"] is not None]
    setups += [p["setup_s"] for p in probes if p["setup_s"] is not None]
    walls = [p["wall_s"] for p in passes]
    scale = math.sqrt(REFERENCE_S / statistics.median(reference))
    print(f"# as measured: wall_s of each pass {' '.join(f'{w:.4f}' for w in walls)}; "
          f"setup_s median {statistics.median(setups):.6g}; reference loop median "
          f"{statistics.median(reference):.6g} s (n={len(reference)}); scale {scale:.6g}")
    samples = {
        "wall_s": [w * scale for w in walls],
        "units_per_s": [spec["units"] / (w * scale) for w in walls],
        "setup_s": [t * scale for t in setups],
        "peak_rss_mib": [max(r["rss_mib"] for r in p["results"]) for p in passes],
    }
    attempted = len(passes) * len(commands) + len(probes)
    return samples, failures, attempted


def traced_metrics(spec: dict, workload: str, commands: list[dict]) -> tuple[dict, list, int]:
    plain = run_pass(commands)
    traced = run_pass(commands, traced=True)
    failures = plain["failures"] + traced["failures"]
    totals: dict[str, dict] = {}
    counters: dict[str, int] = {}
    wasted = 0
    codes = {c["id"]: r["code"] for c, r in zip(commands, traced["results"])}
    for command in commands:
        spans_path = WORK / f"{command['id']}.spans"
        if not spans_path.exists():
            failures.append(f"{' '.join(command['argv'])}: no span file written")
            continue
        loaded = tracer.load(spans_path)
        spans_path.unlink()
        for name, entry in loaded["names"].items():
            into = totals.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                into[key] += value
        for key, value in loaded["counters"].items():
            counters[key] = counters.get(key, 0) + value
        if codes[command["id"]] == 3:
            wasted += loaded["counters"].get("distributions.iter_arrangements.items", 0)
    layers_map = json.loads((BENCH / "layers.json").read_text())
    for layer in layers_map["active_layers"][workload]:
        if not any(name.startswith(layer + ".") and entry["calls"] for name, entry in totals.items()):
            failures.append(f"layer {layer} recorded no spans on workload {workload}")
    values = layer_values(totals, counters, wasted)
    values["cli.stdout_bytes"] = traced["stdout_bytes"]
    values["cli.commands"] = len(commands)
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    for layer in ("poly", "lah_core", "distributions", "identities", "bijections", "cli"):
        print(f"# self time {layer:<14}{values[layer + '.self_s']:10.3f} s "
              f"of traced wall {traced['wall_s']:.3f} s")
    return {name: [value] for name, value in values.items()}, failures, 2 * len(commands)


def layer_values(totals: dict, counters: dict, wasted: int) -> dict:
    """Every per-layer metric from the merged span totals and counters."""
    def stat(name: str, key: str):
        return totals.get(name, {}).get(key, 0)

    def layer_self(layer: str) -> float:
        return sum(e["self_s"] for name, e in totals.items() if name.startswith(layer + "."))

    def ratio(part, whole) -> float:
        return part / whole if whole else 0.0

    values = {}
    for op in ("mul", "add", "eval", "range_product", "str"):
        values[f"poly.{op}.calls"] = stat(f"poly.{op}", "calls")
    for op in ("mul", "add", "eval", "substitute", "range_product", "str"):
        values[f"poly.{op}.self_s"] = stat(f"poly.{op}", "self_s")
    values["poly.mul.terms_out"] = counters.get("poly.mul.terms_out", 0)
    reads, fills = stat("lah_core.read", "calls"), stat("lah_core.read", "with_children")
    values.update({
        "lah_core.reads": reads, "lah_core.fills": fills,
        "lah_core.hit_ratio": ratio(reads - fills, reads),
        "lah_core.cells": counters.get("lah_core.cells", 0),
        "lah_core.fill.self_s": stat("lah_core.fill", "self_s"),
        "lah_core.read.self_s": stat("lah_core.read", "self_s"),
    })
    objects = counters.get("distributions.iter_arrangements.items", 0)
    values.update({
        "distributions.objects": objects,
        "distributions.iter_arrangements.self_s": stat("distributions.iter_arrangements", "self_s"),
        "distributions.stats.calls": stat("distributions.stats", "calls"),
        "distributions.stats.self_s": stat("distributions.stats", "self_s"),
        "distributions.oracle_row.self_s": stat("distributions.oracle_row", "self_s"),
        "distributions.us_per_object": ratio(layer_self("distributions") * 1e6, objects),
        "distributions.wasted_objects": wasted,
        "distributions.useful_ratio": ratio(objects - wasted, objects),
    })
    checks, skipped = stat("identities.check", "calls"), counters.get("identities.skipped", 0)
    values.update({
        "identities.checks": checks, "identities.skipped": skipped,
        "identities.run_ratio": ratio(checks, checks + skipped),
        "identities.cells_read": stat("identities.cell", "calls"),
        "identities.derived_cells": stat("identities.derived", "with_children"),
        "identities.check.self_s": stat("identities.check", "self_s"),
        "identities.sweep.self_s": stat("identities.sweep", "self_s"),
    })
    values.update({
        "bijections.pairs": counters.get("bijections.iter_pairs.items", 0),
        "bijections.fixed": counters.get("bijections.fixed", 0),
        "bijections.iter_pairs.self_s": stat("bijections.iter_pairs", "self_s"),
        "bijections.invol.calls": stat("bijections.invol", "calls"),
        "bijections.invol.self_s": stat("bijections.invol", "self_s"),
        "bijections.validate.calls": stat("bijections.validate", "calls"),
        "bijections.validate.self_s": stat("bijections.validate", "self_s"),
        "bijections.fixed_predicate.self_s": stat("bijections.fixed_predicate", "self_s"),
        "bijections.map_iv.self_s": stat("bijections.map_iv", "self_s"),
    })
    for cid in CONSTRUCTION_IDS:
        values[f"bijections.us_per_pair.{cid}"] = ratio(
            stat(f"bijections.verify.{cid}", "incl_s") * 1e6,
            counters.get(f"bijections.pairs.{cid}", 0))
    values["cli.main.self_s"] = stat("cli.main", "self_s")
    for layer in ("poly", "lah_core", "distributions", "identities", "bijections", "cli"):
        values[f"{layer}.self_s"] = layer_self(layer)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "rlah" / "cli.py").is_file():
            raise BenchmarkError(f"no rlah sources under {ROOT / 'src'}")
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics = declared["per_layer" if args.trace else "end_to_end"]
        spec, commands = load_workload(args.workload, args.seed)
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # see REFERENCE_S
    try:
        warm = launch(len(commands), ["--setup-only"])  # compiles bytecode; untimed
        if warm["code"] != 0 or warm["setup_s"] is None:
            print(f"perfbench: rlah does not start: {(WORK / f'{len(commands)}.err').read_text()}",
                  file=sys.stderr)
            return 2
        if args.trace:
            samples, failures, attempted = traced_metrics(spec, args.workload, commands)
        else:
            samples, failures, attempted = end_to_end(spec, commands, args.seconds)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    result = {}
    for metric in metrics:
        values = samples[metric["name"]]
        median, q1, q3 = quartiles(values)
        detail = f" (q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})" if len(values) > 1 else ""
        print(f"# {metric['name']:<40} {median:<12.6g} {metric['unit']}{detail}")
        result[metric["name"]] = {"value": median, "unit": metric["unit"]}
    for failure in failures:
        print(f"# FAILED {failure}", file=sys.stderr)
    print(f"# workload {args.workload} seed {args.seed}: {attempted} commands, "
          f"fail_ratio {len(failures) / attempted:.6g}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
