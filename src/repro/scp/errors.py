"""Error taxonomy of the SCP runtime.

Keeping a dedicated exception hierarchy makes it possible for tests (and for
the resiliency layer) to distinguish programming errors in thread programs
from infrastructure conditions such as delivery to a failed thread.
"""

from __future__ import annotations


class SCPError(RuntimeError):
    """Base class of all SCP runtime errors."""


class ThreadCrashedError(SCPError):
    """A thread program raised an unhandled exception.

    The original exception is available as ``__cause__`` and the logical
    identity of the offending thread as :attr:`thread_id`.
    """

    def __init__(self, thread_id: str, message: str) -> None:
        super().__init__(f"thread {thread_id!r} crashed: {message}")
        self.thread_id = thread_id


class ReceiveTimeout(SCPError):
    """A blocking receive exceeded its timeout.

    Programs may catch this to implement their own retry/failover logic; the
    resilient manager uses it to survive the loss of an entire worker group.
    """

    def __init__(self, thread_id: str, port: str | None, timeout: float) -> None:
        super().__init__(
            f"thread {thread_id!r} timed out after {timeout}s waiting on port {port!r}")
        self.thread_id = thread_id
        self.port = port
        self.timeout = timeout


class RuntimeStateError(SCPError):
    """The runtime was driven through an invalid state transition."""


class PlacementError(SCPError):
    """A thread could not be placed on the requested or any suitable node."""


class DeadlockError(SCPError):
    """Every live thread is blocked and no message or event can unblock them."""


__all__ = [
    "SCPError",
    "ThreadCrashedError",
    "ReceiveTimeout",
    "RuntimeStateError",
    "PlacementError",
    "DeadlockError",
]
