"""Starts the benchmark's CLI invocations, one at a time, from a small
process.

A child's ru_maxrss also counts the memory of the process it was forked
from (the child shares or copies that address space until it execs), so
children started from the benchmark itself would report the benchmark's
size.  This process stays small.  It reads one JSON request per line on
stdin and answers each with one JSON line once the child has exited:

    {"argv": [...], "cwd": ..., "env": {...}, "out": path, "err": path,
     "timeout": seconds}
    {"seconds": wall time, "code": exit code, "maxrss_kib": peak RSS}
"""

import json
import os
import signal
import sys
import time


def _expire(signum, frame):
    raise TimeoutError


def run(req: dict) -> dict:
    os.chdir(req["cwd"])
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, req["out"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, req["err"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    signal.signal(signal.SIGALRM, _expire)
    start = time.perf_counter()
    pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
    signal.alarm(req["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        return {"error": f"timed out after {req['timeout']} s"}
    finally:
        signal.alarm(0)
    return {"seconds": time.perf_counter() - start,
            "code": os.waitstatus_to_exitcode(status),
            "maxrss_kib": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
