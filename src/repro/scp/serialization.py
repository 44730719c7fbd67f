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
directory scan stays the only thing that says what was committed.
"""

from __future__ import annotations

import os
import pickle
import sys
from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

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
    mid-write leaves only the ``.tmp``, which scanners ignore.
    """
    final = os.path.join(spool_dir, name)
    partial = final + ".tmp"
    with open(partial, "wb") as fh:
        fh.write(payload)
    os.rename(partial, final)


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
    "DOORBELL_NAME",
    "ENVELOPE_OVERHEAD_BYTES",
    "ERROR_SUFFIX",
    "Envelope",
    "RESULT_SUFFIX",
    "commit_spool_file",
    "payload_nbytes",
    "ring_doorbell",
    "spool_root",
    "unlink_quietly",
]
