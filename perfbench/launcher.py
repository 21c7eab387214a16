"""Starts, times and reaps the benchmark's verb processes.

The peak RSS the kernel reports for a child includes the RSS of the
process that spawned it, and the benchmark process holds corpora and
loaded models. So ``run.py`` starts this small process first and has it
spawn every verb. Requests arrive one JSON object a line on stdin::

    {"cmd": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path,
     "timeout": seconds}

and each is answered with one line ``{"rc": ..., "wall_s": ..., "rss_kb": ...}``
once the child has exited. A child still running after ``timeout`` is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main():
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdout=out, stderr=err, env=req["env"],
                                    cwd=req["cwd"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"rc": proc.returncode, "wall_s": wall, "rss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
