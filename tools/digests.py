"""Rerun the long rlah commands of ``digests.json`` and check their output.

    python3 tools/digests.py

Each entry gives the argv of one command, its exit code and the SHA-256
of its stdout.  The commands run one at a time, each in a fresh
interpreter on this checkout's ``src``, with stdout streamed into the
hash (the full trace is about 110 MB).  One line per command reports
``ok`` or ``DIFF``, the digest and the wall time; the exit code is 1 on
any difference.  Standard library only, and not part of the test suite:
together the commands take a few minutes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).resolve().with_name("digests.json")
CHUNK = 1 << 20


def run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout SHA-256 of ``python -m rlah argv``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    digest = hashlib.sha256()
    with subprocess.Popen([sys.executable, "-m", "rlah", *argv], cwd=ROOT, env=env,
                          stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as child:
        while chunk := child.stdout.read(CHUNK):
            digest.update(chunk)
    return child.returncode, digest.hexdigest()


def main() -> int:
    different = 0
    for entry in json.loads(TABLE.read_text())["commands"]:
        start = time.perf_counter()
        code, sha = run(entry["argv"])
        wall = time.perf_counter() - start
        ok = code == entry["exit"] and sha == entry["sha256"]
        different += not ok
        detail = "" if ok else f"  (expected exit {entry['exit']}, sha256 {entry['sha256']})"
        print(f"{'ok  ' if ok else 'DIFF'}  exit {code}  {sha}  {wall:7.1f} s  "
              f"{' '.join(entry['argv'])}{detail}", flush=True)
    return 1 if different else 0


if __name__ == "__main__":
    sys.exit(main())
