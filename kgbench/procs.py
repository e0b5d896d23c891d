"""Process-tree observation and teardown, read from ``/proc``.

A Ray session started by a driver lives in the driver's process tree: the
GCS server, raylet and helpers are its children, the workers are the
raylet's children and rename themselves ``ray::<task>``.
"""

from __future__ import annotations

import os
import signal
import threading
import time


def _ppids() -> dict[int, int]:
    out = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    out[int(name)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                pass  # the process ended while we looked
    return out


def tree(root: int) -> list[int]:
    """``root`` and all its live descendants."""
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppids().items():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, []))
    return out


def _pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().startswith(b"ray::")
    except OSError:
        return False


class TreeSampler:
    """Samples summed PSS and the Ray worker count of ``root``'s process tree
    every ``interval`` seconds on a background thread, keeping the peaks."""

    def __init__(self, root: int, interval: float = 0.5):
        self.root = root
        self.interval = interval
        self.peak_mb = 0.0
        self.workers_peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        pids = tree(self.root)
        self.peak_mb = max(self.peak_mb, sum(_pss_kb(p) for p in pids) / 1024)
        self.workers_peak = max(self.workers_peak, sum(map(_is_worker, pids)))

    def _run(self) -> None:
        while True:
            self._sample()
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "TreeSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def kill_all(pids: list[int], timeout: float = 30.0) -> None:
    """SIGKILL ``pids`` and wait until none is alive (zombies count as ended)."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + timeout
    while any(alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
