"""Start-up hook of the benchmark's job processes.

run.py puts this directory on each job's PYTHONPATH, so Python imports
this module at start-up.  When PERFBENCH_PEAK_RSS names a file, the
process writes its own peak resident set (VmHWM, in KiB) there at exit.
The rusage max-RSS a parent reaps is no use for this: on Linux, exec folds
the peak of the address space it leaves (the spawning runner's) into it.
"""

import atexit
import os

_out = os.environ.get("PERFBENCH_PEAK_RSS")


def _write_peak() -> None:
    with open("/proc/self/status") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(_out, "w") as fh:
        fh.write(kib)


if _out:
    atexit.register(_write_peak)
