"""Child processes with a time limit, one at a time.

``run`` starts a child in its own session, drains its stdout, stderr and a
report pipe, kills the whole session when the limit passes, and reaps it
with ``os.wait4`` for its CPU time.  No child outlives the call, whatever
the outcome.

The child is started by a shell that waits for it, not by ``exec`` from
this process: Linux carries the RSS high-water mark of the process that
calls ``exec`` into the new program's ``ru_maxrss``, so a child started
directly would report at least this process's peak RSS.  A child reports
its own peak through the report pipe instead.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import subprocess
import time
from dataclasses import dataclass, field


@dataclass
class ChildResult:
    pid: int
    exit_code: int
    timed_out: bool
    latency_s: float  # start of the child to its exit, as a caller waits
    cpu_s: float  # user + sys of the child, from wait4
    stdout: bytes
    stderr: bytes
    reports: list = field(default_factory=list)  # JSON lines from the report pipe
    started: float = 0.0  # time.monotonic() just before the child was started


def _kill(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(argv, limit_s, env, cwd) -> ChildResult:
    """Run ``argv``, where ``{fd}`` stands for the descriptor number of the
    report pipe's write end, and kill it after ``limit_s`` seconds."""
    read_fd, write_fd = os.pipe()
    argv = ["/bin/sh", "-c", '"$@"; exit $?', "sh"] + [a.replace("{fd}", str(write_fd)) for a in argv]
    started = time.monotonic()
    try:
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd,
            pass_fds=(write_fd,), start_new_session=True,
        )
    except BaseException:
        os.close(read_fd)
        raise
    finally:
        os.close(write_fd)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks = {out_fd: [], err_fd: [], read_fd: []}
    timed_out = False
    status = rusage = None
    try:
        with selectors.DefaultSelector() as sel:
            for fd in chunks:
                sel.register(fd, selectors.EVENT_READ)
            deadline = started + limit_s
            while sel.get_map():
                wait = deadline - time.monotonic()
                if wait <= 0 and not timed_out:
                    _kill(proc.pid)
                    timed_out = True
                for key, _ in sel.select(None if timed_out else wait):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        if status is None:
            _kill(proc.pid)
            _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        os.close(read_fd)
    ended = time.monotonic()
    reports = []
    for line in b"".join(chunks[read_fd]).splitlines():
        try:
            reports.append(json.loads(line))
        except ValueError:
            break  # a killed child can leave a partial line
    return ChildResult(
        pid=proc.pid,
        exit_code=proc.returncode,
        timed_out=timed_out,
        latency_s=ended - started,
        cpu_s=rusage.ru_utime + rusage.ru_stime,
        stdout=b"".join(chunks[out_fd]),
        stderr=b"".join(chunks[err_fd]),
        reports=reports,
        started=started,
    )
