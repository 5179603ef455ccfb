"""Run one request as a child process and measure it."""

from __future__ import annotations

import os
import select
import signal
import time
from dataclasses import dataclass


@dataclass
class Outcome:
    seconds: float          # from spawn to reaped exit
    returncode: int
    timed_out: bool
    maxrss_kb: int          # the child's peak resident set
    stdout: str
    stderr: str


def spawn(argv: list[str], env: dict, workdir: str, timeout: float) -> Outcome:
    """Run ``argv`` with stdout and stderr sent to files in ``workdir``.

    The child is reaped with ``wait4`` so its own peak RSS is known; a
    pidfd gives the timeout without a polling loop or a reaper thread.
    """
    out_path = os.path.join(workdir, "stdout")
    err_path = os.path.join(workdir, "stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_CLOSE, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o600),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    reaped = False
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
        timed_out = not ready
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:  # interrupted: leave no child behind
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        os.close(pidfd)
    seconds = time.perf_counter() - start
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return Outcome(seconds, os.waitstatus_to_exitcode(status), timed_out,
                   usage.ru_maxrss, stdout, stderr)
