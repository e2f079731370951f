"""Run one job and print its wall time and resource usage as one JSON line.

    python3 -S bench/launch.py TIMEOUT_S LOG_FILE PROGRAM [ARG ...]

On Linux a child's ``ru_maxrss`` includes the resident size of the process
that spawned it.  ``run.py`` grows while it checks reports, so it starts
every job through this small process: the job's peak RSS then includes at
most this process's own (about 13 MB), not the harness's.  The job's stdout
and stderr go to LOG_FILE; a job still running after TIMEOUT_S seconds is
killed and reported as timed out.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    timeout, log, *cmd = sys.argv[1:]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
         0o644),
        (os.POSIX_SPAWN_DUP2, 1, 2),
    ]
    timed_out = False
    pid = None

    def kill(signum, frame):
        nonlocal timed_out
        timed_out = True
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    t0 = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, float(timeout))
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,     # ru_maxrss is in KiB on Linux
        "exit_code": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
    }))


if __name__ == "__main__":
    main()
