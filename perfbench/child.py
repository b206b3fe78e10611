"""Run one rlah command the way the ``rlah`` console script does.

    python3 perfbench/child.py COMMAND_ID TRACE_FILE|- RLAH_ARGS...

The first line written to stderr is ``perfbench-main-entered <t>``, the
``time.perf_counter()`` reading (the system-wide monotonic clock) taken
after ``import rlah.cli`` and just before ``cli.main`` is entered; the
parent subtracts its spawn time from it to get the set-up time.  With
RLAH_ARGS equal to ``--setup-only`` the command stops there.  With a
TRACE_FILE, every rlah layer is traced (see ``tracer.py``) and the spans
are written to that file after ``cli.main`` returns.
"""

import os
import sys
import time

MARKER = "perfbench-main-entered"


def main() -> int:
    command_id, trace_file, *argv = sys.argv[1:]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    from rlah import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"child: imported rlah from {cli.__file__}, not from {src}\n")
        return 70
    tracer = None
    if trace_file != "-":
        import tracer as tracing

        tracer = tracing.install(int(command_id))
    sys.stderr.write(f"{MARKER} {time.perf_counter()!r}\n")
    sys.stderr.flush()
    if argv == ["--setup-only"]:
        return 0
    code = cli.main(argv)
    sys.stdout.flush()
    if tracer is not None:
        tracer.dump(trace_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
