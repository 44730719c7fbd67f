"""Property-based tests for the runtime substrate (event engine, mailbox,
serialization, placement)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.event import EventEngine
from repro.cluster.network import LinkSpec, SharedEthernet, SwitchedNetwork
from repro.scp.channel import Mailbox
from repro.scp.runtime import plan_placement
from repro.scp.serialization import ENVELOPE_OVERHEAD_BYTES, Envelope, payload_nbytes
from repro.scp.thread import ThreadSpec, parse_physical, physical_name

COMMON_SETTINGS = dict(max_examples=50, deadline=None)


def dummy_program(ctx):
    yield  # pragma: no cover


class TestEventEngineProperties:
    @given(delays=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=50))
    @settings(**COMMON_SETTINGS)
    def test_events_always_fire_in_nondecreasing_time_order(self, delays):
        engine = EventEngine()
        fired = []
        for delay in delays:
            engine.schedule(delay, lambda d=delay: fired.append(engine.now))
        while engine.step():
            pass
        assert len(fired) == len(delays)
        assert fired == sorted(fired)
        assert engine.now == max(delays)

    @given(delays=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=30),
           cancel_mask=st.lists(st.booleans(), min_size=1, max_size=30))
    @settings(**COMMON_SETTINGS)
    def test_cancelled_events_never_fire(self, delays, cancel_mask):
        engine = EventEngine()
        fired = []
        events = [engine.schedule(d, lambda i=i: fired.append(i))
                  for i, d in enumerate(delays)]
        expected = set(range(len(delays)))
        for index, (event, cancel) in enumerate(zip(events, cancel_mask)):
            if cancel:
                event.cancel()
                expected.discard(index)
        while engine.step():
            pass
        assert set(fired) == expected


class TestMailboxProperties:
    @given(keys=st.lists(st.integers(0, 10), min_size=1, max_size=60))
    @settings(**COMMON_SETTINGS)
    def test_dedup_keeps_exactly_one_copy_per_key(self, keys):
        box = Mailbox("m")
        for seq, key in enumerate(keys):
            box.deposit(Envelope(src="w", dst="m", port="p", seq=seq, key=("k", key)))
        assert box.pending == len(set(keys))
        assert box.suppressed_duplicates == len(keys) - len(set(keys))

    @given(ports=st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=40))
    @settings(**COMMON_SETTINGS)
    def test_port_filtering_preserves_per_port_fifo(self, ports):
        box = Mailbox("m", dedup=False)
        for seq, port in enumerate(ports):
            box.deposit(Envelope(src="w", dst="m", port=port, seq=seq))
        for port in ("a", "b", "c"):
            expected = [seq for seq, p in enumerate(ports) if p == port]
            received = []
            while box.has_matching(port):
                received.append(box.try_consume(port).seq)
            assert received == expected
        assert box.pending == 0


class TestSerializationProperties:
    @given(shape=st.tuples(st.integers(1, 40), st.integers(1, 40)),
           dtype=st.sampled_from([np.float32, np.float64, np.int32]))
    @settings(**COMMON_SETTINGS)
    def test_array_payload_size_exact(self, shape, dtype):
        array = np.zeros(shape, dtype=dtype)
        assert payload_nbytes(array) == array.nbytes
        envelope = Envelope(src="a", dst="b", port="p", payload=array)
        assert envelope.nbytes == array.nbytes + ENVELOPE_OVERHEAD_BYTES

    @given(values=st.lists(st.integers(-1000, 1000), max_size=30))
    @settings(**COMMON_SETTINGS)
    def test_container_size_at_least_sum_of_elements(self, values):
        assert payload_nbytes(values) >= 8 * len(values)


class TestNetworkProperties:
    @given(sizes=st.lists(st.integers(1, 10**6), min_size=1, max_size=20))
    @settings(**COMMON_SETTINGS)
    def test_shared_medium_conserves_bytes_and_orders_transfers(self, sizes):
        link = LinkSpec(bandwidth_bytes_per_s=1e6, latency_s=0.0,
                        per_message_overhead_s=0.0)
        net = SharedEthernet(link)
        finishes = []
        for index, size in enumerate(sizes):
            _, finish = net.transfer_window(f"s{index}", "dst", size, earliest=0.0)
            finishes.append(finish)
        assert net.bytes_sent == sum(sizes)
        assert finishes == sorted(finishes)
        assert finishes[-1] >= sum(sizes) / 1e6 - 1e-9

    @given(sizes=st.lists(st.integers(1, 10**5), min_size=1, max_size=15),
           seed=st.integers(0, 100))
    @settings(**COMMON_SETTINGS)
    def test_switched_never_slower_than_shared(self, sizes, seed):
        rng = np.random.default_rng(seed)
        link = LinkSpec(bandwidth_bytes_per_s=1e6, latency_s=0.0,
                        per_message_overhead_s=0.0)
        shared, switched = SharedEthernet(link), SwitchedNetwork(link)
        endpoints = [(f"s{rng.integers(0, 4)}", f"d{rng.integers(0, 4)}") for _ in sizes]
        last_shared = max(shared.transfer_window(s, d, n, 0.0)[1]
                          for (s, d), n in zip(endpoints, sizes))
        last_switched = max(switched.transfer_window(s, d, n, 0.0)[1]
                            for (s, d), n in zip(endpoints, sizes))
        assert last_switched <= last_shared + 1e-9


class TestPlacementProperties:
    @given(workers=st.integers(1, 12), replicas=st.integers(1, 3), nodes=st.integers(1, 8))
    @settings(**COMMON_SETTINGS)
    def test_every_replica_placed_and_balanced(self, workers, replicas, nodes):
        specs = [ThreadSpec(name=f"worker.{i}", program=dummy_program, replicas=replicas)
                 for i in range(workers)]
        node_names = [f"n{i}" for i in range(nodes)]
        placement = plan_placement(specs, node_names)
        assert len(placement) == workers * replicas
        assert set(placement.values()) <= set(node_names)
        # Load is balanced to within one thread per node when possible.
        load = {name: 0 for name in node_names}
        for node in placement.values():
            load[node] += 1
        assert max(load.values()) - min(load.values()) <= max(replicas, 1)

    @given(workers=st.integers(1, 10), replicas=st.integers(2, 3))
    @settings(**COMMON_SETTINGS)
    def test_replicas_on_distinct_nodes_when_enough_nodes(self, workers, replicas):
        specs = [ThreadSpec(name=f"worker.{i}", program=dummy_program, replicas=replicas)
                 for i in range(workers)]
        node_names = [f"n{i}" for i in range(max(workers, replicas))]
        placement = plan_placement(specs, node_names)
        for spec in specs:
            nodes_used = {placement[physical_name(spec.name, r)] for r in range(replicas)}
            assert len(nodes_used) == replicas

    @given(logical=st.text(alphabet="abcdef.", min_size=1, max_size=10),
           replica=st.integers(0, 99))
    @settings(**COMMON_SETTINGS)
    def test_physical_name_round_trip(self, logical, replica):
        assert parse_physical(physical_name(logical, replica)) == (logical, replica)
