"""Unit tests for the per-thread mailbox (port filtering, dedup, closing)."""

import threading

import pytest

from repro.scp.channel import Mailbox
from repro.scp.serialization import Envelope


def envelope(src="w", port="result", seq=1, key=None, urgent=False, payload=None):
    return Envelope(src=src, dst="m", port=port, seq=seq, key=key, urgent=urgent,
                    payload=payload)


class TestDepositConsume:
    def test_fifo_order_within_port(self):
        box = Mailbox("m")
        box.deposit(envelope(seq=1, payload="first"))
        box.deposit(envelope(seq=2, payload="second"))
        assert box.try_consume("result").payload == "first"
        assert box.try_consume("result").payload == "second"

    def test_port_filtering(self):
        box = Mailbox("m")
        box.deposit(envelope(port="hello", seq=1))
        box.deposit(envelope(port="result", seq=2))
        first_result = box.try_consume("result")
        assert first_result.port == "result"
        assert box.try_consume("hello").port == "hello"

    def test_wildcard_port(self):
        box = Mailbox("m")
        box.deposit(envelope(port="hello", seq=1))
        assert box.try_consume(None).port == "hello"

    def test_empty_returns_none(self):
        assert Mailbox("m").try_consume() is None

    def test_has_matching(self):
        box = Mailbox("m")
        assert not box.has_matching()
        box.deposit(envelope(port="task"))
        assert box.has_matching("task")
        assert not box.has_matching("result")

    def test_deposited_counter(self):
        box = Mailbox("m")
        box.deposit(envelope(seq=1))
        box.deposit(envelope(seq=2))
        assert box.deposited == 2


class TestDuplicateSuppression:
    def test_same_key_from_different_replicas_kept_once(self):
        box = Mailbox("m")
        assert box.deposit(envelope(src="worker.1", seq=5, key=("result", 3)))
        assert not box.deposit(envelope(src="worker.1", seq=9, key=("result", 3)))
        assert box.pending == 1
        assert box.suppressed_duplicates == 1

    def test_different_keys_all_kept(self):
        box = Mailbox("m")
        assert box.deposit(envelope(seq=1, key=("result", 1)))
        assert box.deposit(envelope(seq=2, key=("result", 2)))
        assert box.pending == 2

    def test_sequence_based_dedup(self):
        box = Mailbox("m")
        assert box.deposit(envelope(seq=4))
        assert not box.deposit(envelope(seq=4))

    def test_urgent_messages_never_deduplicated(self):
        box = Mailbox("m")
        assert box.deposit(envelope(seq=1, urgent=True))
        assert box.deposit(envelope(seq=1, urgent=True))
        assert box.pending == 2

    def test_dedup_disabled(self):
        box = Mailbox("m", dedup=False)
        assert box.deposit(envelope(seq=1))
        assert box.deposit(envelope(seq=1))
        assert box.pending == 2


class TestCloseAndDrain:
    def test_close_drops_pending_and_rejects_new(self):
        box = Mailbox("m")
        box.deposit(envelope(seq=1))
        box.close()
        assert box.pending == 0
        assert box.closed
        assert not box.deposit(envelope(seq=2))

    def test_drain_returns_pending(self):
        box = Mailbox("m")
        box.deposit(envelope(seq=1, payload="a"))
        box.deposit(envelope(seq=2, payload="b"))
        drained = box.drain()
        assert [e.payload for e in drained] == ["a", "b"]
        assert box.pending == 0


class TestThreadSafeBlocking:
    def test_wait_matching_requires_thread_safe(self):
        with pytest.raises(RuntimeError):
            Mailbox("m").wait_matching("result", timeout=0.01)

    def test_wait_matching_times_out(self):
        box = Mailbox("m", thread_safe=True)
        assert box.wait_matching("result", timeout=0.02) is None

    def test_wait_matching_wakes_on_deposit(self):
        box = Mailbox("m", thread_safe=True)
        received = []

        def consumer():
            received.append(box.wait_matching("result", timeout=2.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        box.deposit(envelope(seq=1, payload="hello"))
        thread.join(timeout=2.0)
        assert received and received[0].payload == "hello"

    def test_wait_matching_wakes_on_close(self):
        box = Mailbox("m", thread_safe=True)
        results = []

        def consumer():
            results.append(box.wait_matching("result", timeout=2.0))

        thread = threading.Thread(target=consumer)
        thread.start()
        box.close()
        thread.join(timeout=2.0)
        assert results == [None]

    def test_thread_safe_consume_existing(self):
        box = Mailbox("m", thread_safe=True)
        box.deposit(envelope(seq=1, payload=42))
        assert box.wait_matching("result", timeout=0.1).payload == 42
