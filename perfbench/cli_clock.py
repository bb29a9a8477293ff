"""Runs ``python -m endotransfer.cli ARGS`` with the host calibrated inside.

    python3 perfbench/cli_clock.py MARKS_FILE verify scenario.scn ...

The command runs in this interpreter exactly as ``-m`` would run it, with
the timer of hostclock.py marking every 50 ms.  Its output and exit code
are the command's own; the calibration marks go to MARKS_FILE as JSON.
time.perf_counter is the system's monotonic clock, so the caller can merge
these marks with its own and correct the subprocess's whole wall time.
"""

from __future__ import annotations

import json
import runpy
import sys

from hostclock import HostClock


def main() -> None:
    marks_file, args = sys.argv[1], sys.argv[2:]
    host = HostClock()
    host.start()
    sys.argv = ["endotransfer", *args]
    try:
        runpy.run_module("endotransfer.cli", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as e:
        code = e.code
    finally:
        host.stop()
        sys.stdout.flush()
        with open(marks_file, "w", encoding="utf-8") as fh:
            json.dump({"starts": host.starts, "ends": host.ends, "slowdowns": host.slowdowns}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
