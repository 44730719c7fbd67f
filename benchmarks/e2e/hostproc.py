"""Process-tree accounting and the post-workload hygiene gate (Linux procfs).

``cpu_s_per_cube`` and ``peak_rss_mb`` must include the worker processes,
and the workers are not always children the benchmark can reap: the socket
transport's workers are *grandchildren* (the node agent forks them), and
``SocketTransport.close`` SIGKILLs the agent, so they are re-parented and
never show up in ``RUSAGE_CHILDREN``.  The accounting therefore samples the
live process tree from ``/proc`` at the edges of the measured window and
adds what has already been reaped:

    cpu = self + reaped children + sum over live descendants of
          (own user+sys + their own reaped children)

Reaped time moves from a descendant's row to its parent's ``c*time`` row
when it is waited for, so nothing is counted twice and a worker killed and
re-spawned mid-window (the kill-storm workload) is still paid for.

The hygiene gate checks what ROADMAP needle 3 promises after every workload:
no owned shared-memory segment, no new ``/dev/shm`` or spool entry, no zombie
and no surviving descendant.  A violation taints every request of the
workload (see ``measure.py``).
"""

from __future__ import annotations

import os
import resource
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

_CLOCK_TICKS = float(os.sysconf("SC_CLK_TCK"))
_SHM_DIR = "/dev/shm"

#: Seconds the gate waits for descendants to exit after ``session.close()``
#: (orphaned socket workers notice their agent's death on a 1 s inbox poll).
DESCENDANT_EXIT_TIMEOUT = 5.0


def _read_stat(pid: int) -> Optional[List[str]]:
    """Fields of ``/proc/<pid>/stat`` after the command name, or ``None``."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii", errors="replace") as fh:
            text = fh.read()
    except OSError:  # the process exited between listing and reading
        return None
    # comm may contain spaces and parentheses; everything after the last ')'
    # is space separated, starting with the state field.
    return text[text.rfind(")") + 2:].split()


def process_table() -> Dict[int, List[str]]:
    """``pid -> stat fields`` (state, ppid, pgrp, ...) of every visible process."""
    table: Dict[int, List[str]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _read_stat(int(entry))
            if fields is not None:
                table[int(entry)] = fields
    return table


def process_group(pgid: int) -> List[int]:
    """Live (non-zombie) members of a process group."""
    return [pid for pid, fields in process_table().items()
            if int(fields[2]) == pgid and fields[0] != "Z"]


def _is_resource_tracker(pid: int) -> bool:
    """multiprocessing's tracker lives until interpreter exit; it is not a worker."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return b"resource_tracker" in fh.read()
    except OSError:
        return False


def descendants(root: Optional[int] = None) -> Dict[int, str]:
    """``pid -> state`` of the live descendants of ``root`` (default: this
    process) at any depth, multiprocessing's resource tracker excluded."""
    root = os.getpid() if root is None else root
    table = process_table()
    children: Dict[int, List[int]] = {}
    for pid, fields in table.items():
        children.setdefault(int(fields[1]), []).append(pid)
    found: Dict[int, str] = {}
    frontier = [root]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            if not _is_resource_tracker(child):
                found[child] = table[child][0]
                frontier.append(child)
    return found


def _tree_cpu_seconds(pid: int) -> float:
    fields = _read_stat(pid)
    if fields is None:
        return 0.0
    # utime, stime, cutime, cstime are fields 14-17 of stat(5); the list
    # starts at field 3 (state).
    return sum(int(fields[index]) for index in (11, 12, 13, 14)) / _CLOCK_TICKS


def cpu_seconds() -> float:
    """User+system CPU spent so far by this process and its whole tree."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    return total + sum(_tree_cpu_seconds(pid) for pid in descendants())


def _peak_rss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest descendant, in MiB.

    ``ru_maxrss`` is in KiB on Linux.  The largest descendant is the larger
    of the biggest one already reaped and the biggest one still alive.
    Forked workers share pages with their parent, so this over-counts the
    shared part; it is a ceiling that moves when a layer starts copying.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for pid in descendants():
        child = max(child, _peak_rss_kib(pid))
    return (own + child) / 1024.0


# ---------------------------------------------------------------------------
# Hygiene gate
# ---------------------------------------------------------------------------

def _residue_names() -> FrozenSet[str]:
    """Entries a run could leave behind: ``/dev/shm`` files and spool dirs.

    ``sem.mp-*`` are multiprocessing semaphores reaped at interpreter exit,
    not leaks.  Spool directories land in ``/dev/shm`` where it exists and in
    the temporary directory otherwise, so both are listed.
    """
    names: Set[str] = set()
    if os.path.isdir(_SHM_DIR):
        names.update(f"{_SHM_DIR}/{name}" for name in os.listdir(_SHM_DIR)
                     if not name.startswith("sem."))
    tmp = tempfile.gettempdir()
    try:
        names.update(f"{tmp}/{name}" for name in os.listdir(tmp)
                     if name.startswith("scp-"))
    except OSError:
        pass
    return frozenset(names)


@dataclass
class HygieneGate:
    """Snapshot taken before a workload; :meth:`check` diffs against it."""

    baseline: FrozenSet[str]

    @classmethod
    def arm(cls) -> "HygieneGate":
        return cls(baseline=_residue_names())

    def residue(self) -> List[str]:
        """New ``/dev/shm`` / spool entries since the gate was armed."""
        return sorted(_residue_names() - self.baseline)

    def check(self, owned_segments: Tuple[str, ...],
              watch: Tuple[int, ...] = ()) -> List[str]:
        """Violations after ``session.close()``; empty means clean.

        Waits (bounded) for descendants to exit first: the benchmark must
        stop every process it started, and a worker still shutting down
        would otherwise be reported as a stray.  ``watch`` names processes
        seen before the close; they are waited for even when their parent
        died first and they no longer hang off this process's tree (the
        socket transport's workers after their agent is killed).
        """
        violations: List[str] = []
        deadline = time.monotonic() + DESCENDANT_EXIT_TIMEOUT
        while True:
            table = process_table()
            alive = descendants()
            alive.update((pid, table[pid][0]) for pid in watch if pid in table)
            zombies = sorted(pid for pid, state in alive.items() if state == "Z")
            # Zombies never go away on their own; running processes may.
            if len(zombies) == len(alive) or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        if zombies:
            violations.append(f"zombie children: {zombies}")
        strays = sorted(pid for pid, state in alive.items() if state != "Z")
        if strays:
            violations.append(f"processes still running after close: {strays}")
        if owned_segments:
            violations.append(f"owned shared-memory segments: {list(owned_segments)}")
        residue = self.residue()
        if residue:
            violations.append(f"residue: {residue}")
        return violations


def resource_tracker_warnings(stderr_text: str) -> List[str]:
    """``resource_tracker`` complaints in a finished workload's stderr.

    The tracker prints them when the interpreter exits, so only the parent
    that captured the child's stderr can see them.
    """
    return [line for line in stderr_text.splitlines() if "resource_tracker" in line]
