"""Message envelopes, payload size accounting, and spool-file commits.

The cost model of the simulated backend needs to know how many bytes a
message occupies on the wire.  Rather than actually pickling every payload
(which would dominate the runtime of large simulations), :func:`payload_nbytes`
walks the payload structure and sums the sizes of NumPy arrays, byte strings
and scalars, falling back to :mod:`pickle` only for unknown object graphs.
The estimate errs on the side of the dominant contributors -- the sub-cube
arrays exchanged between manager and workers -- which is what matters for the
shape of Figures 4 and 5.

This module also owns the *atomic spool commit* -- the one way a result
ever crosses a process boundary on the crash-safe paths
(:mod:`repro.scp.transport`): write the payload next to its final name,
then :func:`os.rename` into place.  A SIGKILL either commits a complete
file or leaves nothing; readers never observe a torn write.  Every
transport reuses :func:`commit_spool_file` rather than growing its own
rename-commit implementation.  Beside the commit sits the *doorbell*
(:func:`ring_doorbell`): one byte into the spool's FIFO telling the owner a
scan is worth making now.  It is a hint and carries no information -- the
directory scan stays the only thing that says what was committed.  The
owner's half lives here too -- :func:`collect_spool` (the scan),
:class:`_Doorbell` (the wait) and :func:`_join_fired` -- because both spool
owners need it: the stage transports and the process backend, which
:mod:`repro.scp.transport` imports through the backend registry.
"""

from __future__ import annotations

import glob
import os
import pickle
import select
import sys
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..logging_utils import get_logger

_LOG = get_logger("scp.serialization")

#: Fixed envelope overhead in bytes: logical addresses, port name, sequence
#: number, flags.  Matches the order of magnitude of an SCPlib/TCP header.
ENVELOPE_OVERHEAD_BYTES = 96

#: Spool-file suffixes a finished stage task commits (atomic rename) and
#: the transports scan for.
RESULT_SUFFIX = ".result"
ERROR_SUFFIX = ".error"

#: Name of the wake-up FIFO inside a spool directory (no result/error suffix,
#: so the scan skips it; removed with the directory).
DOORBELL_NAME = "doorbell"

#: Commit-scan interval of a spool owner whose spool could not get a doorbell
#: (``os.mkfifo`` failed) -- the one timed scan left on the spool path.
_NO_DOORBELL_SCAN_SECONDS = 0.005


def spool_root() -> Optional[str]:
    """RAM-backed directory for result spool files where the OS has one."""
    return "/dev/shm" if os.path.isdir("/dev/shm") else None


def unlink_quietly(path: str) -> None:
    """Remove ``path`` if it exists; a concurrent unlink is not an error."""
    try:
        os.unlink(path)
    except OSError:
        pass


def commit_spool_file(spool_dir: str, name: str, payload: bytes) -> None:
    """Write ``payload`` and atomically rename into place (the commit).

    The partial file lives in the same directory as its final name so the
    rename never crosses a filesystem boundary (``os.rename`` is only
    atomic within one).  Used by every worker transport: a process killed
    mid-write leaves only the ``.tmp``, which scanners ignore and
    :func:`discard_partials` removes once the writer is reaped.
    """
    final = os.path.join(spool_dir, name)
    partial = final + ".tmp"
    with open(partial, "wb") as fh:
        fh.write(payload)
    os.rename(partial, final)


def discard_partials(spool_dir: str, prefix: str) -> None:
    """Unlink the partial (``.tmp``) commits whose names start with ``prefix``.

    Scanners ignore a partial, but nothing else removes it before its spool
    goes, and a live spool outlasts any number of killed writers.  Call it
    only once the writer is reaped: a live one would fail its rename.
    """
    pattern = glob.escape(os.path.join(spool_dir, prefix)) + "*.tmp"
    for path in glob.glob(pattern):
        unlink_quietly(path)


def ring_doorbell(spool_dir: str) -> None:
    """Hint the owner of ``spool_dir`` that a commit landed (never blocks).

    Called *after* the atomic rename.  Open, write one byte, close: the
    writer holds no descriptor and no lock between rings, so a SIGKILL
    anywhere in here tears nothing.  Every way this can fail -- no doorbell
    (the spool's filesystem has no FIFOs), no reader, the spool removed by
    ``close()``, a full pipe -- loses a hint the owner's safety-net scan
    makes up for, so all of them are swallowed.
    """
    try:
        fd = os.open(os.path.join(spool_dir, DOORBELL_NAME),
                     os.O_WRONLY | os.O_NONBLOCK)
    except OSError:
        return
    try:
        os.write(fd, b"\0")
    except OSError:  # full pipe: a wake-up is already pending
        pass
    finally:
        os.close(fd)


@dataclass
class CommittedResult:
    """A durably committed task outcome collected by ``poll_committed``.

    ``error`` marks a deterministic task failure (``value`` is the error
    text, or the exception object itself on the in-process transport);
    ``crash`` marks a committed payload that could not be read back --
    abnormal, surfaced as :class:`~repro.scp.stages.StageCrashError`.
    ``payload_nbytes`` is 0 when no serialisation happened (host
    threads), so thread-backed executors keep empty payload accounting.
    """

    task_id: int
    attempt: int
    value: Any = None
    error: bool = False
    crash: bool = False
    payload_nbytes: int = 0


def collect_spool(spool_dir: str) -> List[CommittedResult]:
    """Consume every committed spool file in ``spool_dir``.

    The shared read half of the spool protocol: stage workers commit
    ``{task_id}-{attempt}.result`` / ``.error`` files and SCP replicas
    ``{uid}-{seq}.result`` records (atomic rename, :func:`commit_spool_file`)
    and this scan picks them up, in the order the directory lists them.
    In-progress ``.tmp`` files and foreign names (the doorbell FIFO) are
    ignored; consumed files are unlinked.
    """
    try:
        names = os.listdir(spool_dir)
    except OSError:  # spool removed by close()
        return []
    committed: List[CommittedResult] = []
    for name in names:
        if name.endswith(RESULT_SUFFIX):
            error = False
        elif name.endswith(ERROR_SUFFIX):
            error = True
        else:
            continue  # an in-progress .tmp, or the doorbell
        stem = name.rsplit(".", 1)[0]
        try:
            task_id, attempt = (int(part) for part in stem.split("-"))
        except ValueError:  # pragma: no cover - foreign file in the spool
            continue
        path = os.path.join(spool_dir, name)
        crash = False
        nbytes = 0
        value: Any = None
        try:
            with open(path, "rb") as fh:
                payload = fh.read()
            nbytes = len(payload)
            if error:
                value = payload.decode("utf-8", "replace")
            else:
                value = pickle.loads(payload)
        except Exception as err:  # the rename committed, so this is abnormal
            crash = True
            value = f"could not read spooled result: {err!r}"
        unlink_quietly(path)
        committed.append(CommittedResult(task_id=task_id, attempt=attempt,
                                         value=value, error=error, crash=crash,
                                         payload_nbytes=nbytes))
    return committed


class _Doorbell:
    """Owner side of a spool's wake-up FIFO; every spool owner waits here.

    The FIFO is held ``O_RDWR | O_NONBLOCK``: a writer always exists, so
    workers coming and going never produce EOF, and :meth:`ring` is the
    owner writing to its own doorbell.  Workers ring it by path
    (:func:`repro.scp.serialization.ring_doorbell`) -- the path travels with
    every task, which reaches workers no inherited descriptor could (a pool
    warmed before the spool existed, a node agent's grandchildren).  Pending
    bytes keep the FIFO readable until the next :meth:`wait` drains them, so
    a ring that lands before the wait is not lost.

    Where the spool's filesystem has no FIFOs the transport still works:
    :meth:`wait` degrades to a short timed poll of the sentinels alone, so a
    commit is found by the next scan and a death is still reported.
    """

    def __init__(self, spool_dir: str) -> None:
        self._lock = threading.Lock()  # ring()/drain never touch a closed fd
        self._fd: Optional[int] = None
        path = os.path.join(spool_dir, DOORBELL_NAME)
        try:
            os.mkfifo(path)
            self._fd = os.open(path, os.O_RDWR | os.O_NONBLOCK)
        except OSError as err:
            _LOG.warning("no commit doorbell in %s (%r); falling back to a "
                         "timed spool scan", spool_dir, err)

    def ring(self) -> None:
        with self._lock:
            if self._fd is None:
                return
            try:
                os.write(self._fd, b"\0")
            except OSError:  # full pipe: a wake-up is already pending
                pass

    def wait(self, timeout: float, sentinels: Iterable[int] = ()) -> List[int]:
        """Sleep until rung, until a process sentinel fires, or ``timeout``;
        returns the descriptors that ended the wait (empty: the clock did).
        The FIFO is drained here, *before* the caller scans: a commit racing
        the drain leaves either its byte or its file for the scan that
        follows."""
        fd = self._fd
        # poll(), not select(): a long-lived session process may hold more
        # descriptors than FD_SETSIZE, and a descriptor closed underneath a
        # late router reads as POLLNVAL instead of raising.
        poller = select.poll()
        for watched in sentinels:
            poller.register(watched, select.POLLIN)
        if fd is None:  # nothing rings: wake for the next timed scan
            timeout = min(timeout, _NO_DOORBELL_SCAN_SECONDS)
        else:
            poller.register(fd, select.POLLIN)
        fired = [ready for ready, _ in poller.poll(timeout * 1000.0)]
        if fd in fired:
            with self._lock:
                if self._fd is not None:
                    try:
                        os.read(fd, 65536)  # the whole pipe in one read
                    except BlockingIOError:  # spurious readiness
                        pass
        return fired

    def close(self) -> None:
        with self._lock:
            fd, self._fd = self._fd, None
        if fd is not None:
            os.close(fd)


def _join_fired(watched: Dict[int, Any], fired: Iterable[Any]) -> None:
    """Reap the processes among ``watched`` (sentinel -> process) whose
    sentinel is in ``fired``.

    A sentinel fires when the dying process closes its descriptors, a moment
    before it can be reaped.  Wait that moment out (as ``Process.join``
    itself does) or the liveness check that follows would still see the
    process alive and its caller spin on the readable sentinel.
    """
    for descriptor in fired:
        process = watched.get(descriptor)
        if process is not None:
            process.join()


def payload_nbytes(payload: Any) -> int:
    """Estimate the serialised size of ``payload`` in bytes.

    NumPy arrays contribute their buffer size, containers are walked
    recursively, strings/bytes contribute their encoded length, numbers a
    fixed 8 bytes.  Objects exposing a ``nbytes_estimate()`` method (such as
    :class:`repro.data.cube.HyperspectralCube`) are asked directly.  Anything
    else is pickled as a last resort.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (bool, int, float, complex, np.generic)):
        return 8
    if isinstance(payload, (list, tuple, set, frozenset)):
        return 16 + sum(payload_nbytes(item) for item in payload)
    if isinstance(payload, dict):
        return 16 + sum(payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items())
    estimator = getattr(payload, "nbytes_estimate", None)
    if callable(estimator):
        return int(estimator())
    # Dataclass-like objects: walk their __dict__ before resorting to pickle.
    obj_dict = getattr(payload, "__dict__", None)
    if obj_dict:
        return 32 + sum(payload_nbytes(v) for v in obj_dict.values())
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return sys.getsizeof(payload)


@dataclass
class Envelope:
    """A message in flight between two logical threads.

    Attributes
    ----------
    src / src_physical:
        Logical sender name (``"worker.3"``) and the physical replica that
        actually emitted the message (``"worker.3#1"``).
    dst / port:
        Logical destination and named port.
    payload:
        Application payload.
    seq:
        Per-sender send sequence number, assigned by the sending context.
    key:
        Duplicate-suppression key; ``None`` falls back to ``seq``.
    urgent:
        Control traffic flag (heartbeats, acknowledgements).
    send_time / deliver_time:
        Timestamps filled in by the backend (virtual or wall-clock seconds).
    """

    src: str
    dst: str
    port: str
    payload: Any = None
    seq: int = 0
    key: Optional[Tuple[Any, ...]] = None
    src_physical: str = ""
    urgent: bool = False
    send_time: float = 0.0
    deliver_time: float = 0.0

    @property
    def dedup_key(self) -> Tuple[Any, ...]:
        """Key under which receivers suppress replicated duplicates."""
        if self.key is not None:
            return (self.src, self.port) + tuple(self.key)
        return (self.src, self.port, self.seq)

    @property
    def nbytes(self) -> int:
        """Estimated wire size of the envelope including headers."""
        return ENVELOPE_OVERHEAD_BYTES + payload_nbytes(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Envelope {self.src}->{self.dst}:{self.port} seq={self.seq} "
                f"bytes={self.nbytes}>")


__all__ = [
    "CommittedResult",
    "DOORBELL_NAME",
    "ENVELOPE_OVERHEAD_BYTES",
    "ERROR_SUFFIX",
    "Envelope",
    "RESULT_SUFFIX",
    "collect_spool",
    "commit_spool_file",
    "discard_partials",
    "payload_nbytes",
    "ring_doorbell",
    "spool_root",
    "unlink_quietly",
]
