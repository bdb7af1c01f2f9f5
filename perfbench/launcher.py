"""Spawn benchmark children from a small process.

Linux starts a child's peak-RSS counter at the size of the process that
forked it, so children forked by the harness (which holds numpy, scipy and
the references) would report the harness's memory. This process imports
only the standard library. It reads one JSON request per line on stdin,
runs the command to completion and answers with one JSON line: wall time
from spawn to exit, exit code, peak RSS and CPU time from ``os.wait4``.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                    env=req["env"], cwd=req["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({
            "wall_s": wall,
            "exit_code": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
        }) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
