"""Run one ``maglogic`` command with span tracing and dump the spans.

    python3 bench/traced_child.py SPANS.json <maglogic arguments...>

Used by the ``cli`` workload's traced run in place of the plain
``maglogic`` command. The exit code and output are the command's own; the
spans are written even when the command raises.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer().install()
    try:
        from maglogic.cli import main

        code = main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])
    sys.exit(code)
