"""Every name the benchmark tracer wraps exists in the package.

``perfbench/tracer.py`` raises when a trace target is missing, so a
refactor that deletes or renames one would only fail the traced benchmark
run.  This test reads the tracer's ``TARGETS`` and fails first.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module_name, dotted, _, _ in tracer.TARGETS:
        owner = importlib.import_module(f"rlah.{module_name}")
        *path, attr = dotted.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"rlah.{module_name}.{dotted}"
