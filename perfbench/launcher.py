"""Starts the measured processes on behalf of the benchmark.

A child's ru_maxrss starts from the peak RSS of the process it was forked
from, because the high-water mark of the parent's memory is carried across
exec. The benchmark process holds numpy and parsed outputs of 100 MB and
more, so it would inflate every child's peak RSS. It therefore sends each
command to this small process (run with python -S, importing nothing
large), which starts it, waits for it and answers with what it measured.

Protocol, one JSON object per line: the request on stdin is
{"argv", "out", "err", "timeout"}; the answer on stdout is
{"wall_s", "exit", "cpu_s", "rss_kib", "timed_out"}. The process ends when
stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(argv, out, err, timeout):
    killed = threading.Event()
    with open(out, "w") as fo, open(err, "w") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_kib": usage.ru_maxrss,
        "timed_out": killed.is_set(),
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        answer = run(req["argv"], req["out"], req["err"], req["timeout"])
        sys.stdout.write(json.dumps(answer) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
