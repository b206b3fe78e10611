"""Every name the benchmark tracer wraps exists in the package, and a traced
command of every benchmark workload runs and records spans in each layer
that workload must show.

``perfbench/tracer.py`` raises when a trace target is missing, so a
refactor that deletes or renames one would only fail the traced benchmark
run.  These tests read the tracer and fail first.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

#: Small commands standing in for each workload of perfbench/workloads.json.
WORKLOAD_COMMANDS = {
    "tables": (["table", "--n", "4", "--r", "1"],
               ["table", "--n", "4", "--r", "1", "--a", "2", "--b", "3"]),
    "identities": (["check", "--id", "all", "--n", "0..2", "--k", "0..2", "--m", "0..1",
                    "--r", "0..1", "--s", "0..1"],),
    "oracle": (["oracle", "--n", "3", "--r", "1"],),
    "constructions": (["constructions", "--id", "all", "--n", "0..2", "--k", "0..2",
                       "--r", "0..1", "--s", "0..1"],),
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_trace_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for module_name, dotted, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"rlah.{module_name}")
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"rlah.{module_name}.{dotted}"


@pytest.mark.parametrize("workload", sorted(WORKLOAD_COMMANDS))
def test_traced_workload_records_every_active_layer(workload, tmp_path):
    tracer = _load_tracer()
    active = json.loads((ROOT / "perfbench" / "layers.json").read_text())["active_layers"]
    called = set()
    for i, argv in enumerate(WORKLOAD_COMMANDS[workload]):
        spans = tmp_path / f"spans{i}"
        # the benchmark's own launcher installs the tracer before running the
        # command; no bytecode is written, so perfbench/ is left as it was
        proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(i),
                               str(spans), *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
        assert proc.returncode == 0, proc.stderr
        called |= {name for name, entry in tracer.load(spans)["names"].items() if entry["calls"]}
    for layer in active[workload]:
        assert any(name.startswith(layer + ".") for name in called), (workload, layer)


def test_traced_constructions_record_every_map(tmp_path):
    # a map reached through a reference the tracer does not patch (a
    # closure, or a tuple built at import) would record no call here
    tracer = _load_tracer()
    spans = tmp_path / "spans"
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), "0",
                           str(spans), *WORKLOAD_COMMANDS["constructions"][0]],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    names = tracer.load(spans)["names"]
    for name in ("bijections.map_iv", "bijections.inv_iv", "bijections.invol",
                 "bijections.fixed_predicate"):
        assert name in names and names[name]["calls"] > 0, name
