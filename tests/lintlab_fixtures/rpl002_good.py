# virtual-path: src/repro/serving/result_transport.py
"""Clean twin of rpl002_bad: spool transport and in-process queues only."""

import queue

from repro.scp.stages import TransportStageExecutor
from repro.scp.transport import ForkedProcessTransport


def build_thread_queue():
    # A plain thread queue never crosses a process boundary: fine.
    return queue.Queue()


def run_stage(pool, fn, *args):
    # Stage results travel through the atomic-rename spool transport; no
    # queue is ever shared with a process that may be SIGKILLed.
    executor = TransportStageExecutor(ForkedProcessTransport(pool))
    try:
        return executor.submit("stage", fn, *args).result()
    finally:
        executor.close()
