"""SCPlib-like concurrent programming library.

This subpackage provides the message-passing substrate the paper's
application and resiliency layers are written against: thread programs as
effect-yielding generators (:mod:`.effects`), logical-to-physical routing
with duplicate suppression (:mod:`.group`, :mod:`.channel`) and three
interchangeable execution backends -- real threads (:mod:`.local_backend`) and real
processes with shared-memory data placement (:mod:`.process_backend`), which
share one parent-side core (:mod:`.wallclock`), and a deterministic
discrete-event simulation of a workstation cluster (:mod:`.sim_backend`).

Backends are addressable by name through the registry (:mod:`.registry`,
spec strings such as ``"process:fork"`` or ``"sim:switched"``).  Every
process replica runs on a worker-pool slot (:mod:`.pool`); a pool that
outlives the run lets repeated runs reuse live worker processes.

The streaming pipeline engine executes *stage tasks* rather than SCP
programs; its worker substrates live behind the transport seam
(:mod:`.transport` -- in-process threads, forked pool slots, or a socket
node agent; ``transport_for_spec`` maps a backend spec to one), driven by
the stage executor (:mod:`.stages`).
"""

from .channel import Mailbox
from .effects import (Checkpoint, Compute, Effect, GetTime, Probe, Recv, Send,
                      Sleep)
from .errors import (DeadlockError, PlacementError, ReceiveTimeout,
                     RuntimeStateError, SCPError, ThreadCrashedError)
from .group import Router
from .local_backend import LocalBackend
from .pool import ProcessPool, default_start_method
from .process_backend import ProcessBackend
from .registry import (SIM_PRESETS, BackendContext, BackendSpec, backend_names,
                       create_backend)
from .runtime import (Application, Backend, Context, RunResult, ThreadOutcome,
                      plan_placement)
from .serialization import ENVELOPE_OVERHEAD_BYTES, Envelope, payload_nbytes
from .stages import StageCrashError, StageError, TransportStageExecutor
from .transport import (CommittedResult, ForkedProcessTransport,
                        InProcessTransport, SocketTransport, TaskFrame,
                        WorkerTransport, transport_for_spec)
from .sim_backend import (CONTROL_MESSAGE_BYTES, ProtocolConfig, SimBackend,
                          TaskStatus)
from .thread import ThreadProgram, ThreadSpec, parse_physical, physical_name

__all__ = [
    "Mailbox",
    "Checkpoint",
    "Compute",
    "Effect",
    "GetTime",
    "Probe",
    "Recv",
    "Send",
    "Sleep",
    "DeadlockError",
    "PlacementError",
    "ReceiveTimeout",
    "RuntimeStateError",
    "SCPError",
    "ThreadCrashedError",
    "Router",
    "LocalBackend",
    "ProcessPool",
    "default_start_method",
    "ProcessBackend",
    "SIM_PRESETS",
    "BackendContext",
    "BackendSpec",
    "backend_names",
    "create_backend",
    "Application",
    "Backend",
    "Context",
    "RunResult",
    "ThreadOutcome",
    "plan_placement",
    "ENVELOPE_OVERHEAD_BYTES",
    "Envelope",
    "payload_nbytes",
    "StageCrashError",
    "StageError",
    "TransportStageExecutor",
    "CommittedResult",
    "ForkedProcessTransport",
    "InProcessTransport",
    "SocketTransport",
    "TaskFrame",
    "WorkerTransport",
    "transport_for_spec",
    "CONTROL_MESSAGE_BYTES",
    "ProtocolConfig",
    "SimBackend",
    "TaskStatus",
    "ThreadProgram",
    "ThreadSpec",
    "parse_physical",
    "physical_name",
]
