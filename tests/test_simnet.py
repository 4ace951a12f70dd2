import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ravnest.errors import ProtocolError, StallError, TopologyError
from ravnest.simnet import EventQueue, LinkSpec, Message, Network, NodeSpec


def two_node_net(latency=0.0, bw=1e18):
    nodes = {
        "a": NodeSpec("a", 1.0, bw),
        "b": NodeSpec("b", 1.0, bw),
    }
    return Network(nodes, default_latency=latency)


class TestEventQueue:
    def test_empty_queue_returns_immediately(self):
        q = EventQueue()
        assert q.run_until() == 0.0

    def test_single_event_advances_clock(self):
        q = EventQueue()
        q.push(5.0, lambda now: None)
        assert q.run_until() == 5.0

    def test_time_never_decreases(self):
        q = EventQueue()
        seen = []
        q.push(2.0, lambda now: seen.append(now))
        q.push(1.0, lambda now: seen.append(now))
        q.run_until()
        assert seen == [1.0, 2.0]

    def test_ties_broken_by_insertion_order(self):
        q = EventQueue()
        seen = []
        for i in range(5):
            q.push(1.0, lambda now, i=i: seen.append(i))
        q.run_until()
        assert seen == [0, 1, 2, 3, 4]

    def test_scheduling_in_the_past_rejected(self):
        q = EventQueue()
        q.push(1.0, lambda now: None)
        q.run_until()
        with pytest.raises(ProtocolError):
            q.push(0.5, lambda now: None)

    def test_budget_exhaustion_raises_stall(self):
        q = EventQueue()

        def respawn(now):
            q.push(now + 1.0, respawn)

        q.push(0.0, respawn)
        with pytest.raises(StallError, match="budget"):
            q.run_until(max_events=10, diagnostics=lambda: "stuck forever")

    def test_predicate_stops_early(self):
        q = EventQueue()
        seen = []
        for i in range(5):
            q.push(float(i), lambda now, i=i: seen.append(i))
        q.run_until(predicate=lambda: len(seen) >= 2)
        assert seen == [0, 1]


class TestSend:
    def test_degenerate_link_delivers_now(self):
        net = two_node_net(latency=0.0, bw=1e18)
        times = []
        net.register("b", lambda msg, now: times.append(now))
        net.send(Message("control", "a", "b", 0, payload=np.zeros(1000)), now=3.0)
        net.run_until()
        assert times[0] == pytest.approx(3.0, abs=1e-9)

    def test_delivery_arithmetic(self):
        net = two_node_net(latency=0.01, bw=1e5)
        times = []
        net.register("b", lambda msg, now: times.append(now))
        net.send(Message("control", "a", "b", 0, payload=np.zeros(125)), now=0.0)
        net.run_until()
        assert times[0] == pytest.approx(0.02, rel=1e-12)  # 1000 B at 1e5 B/s + 10 ms

    def test_fifo_per_link(self):
        net = two_node_net(latency=0.005, bw=1e4)
        order = []
        net.register("b", lambda msg, now: order.append(msg.step_tag))
        net.send(Message("activation", "a", "b", 1, payload=np.zeros(500), extra={}), now=0.0)
        net.send(Message("activation", "a", "b", 2, payload=np.zeros(1), extra={}), now=1e-9)
        net.run_until()
        assert order == [1, 2]

    def test_missing_node_raises_topology_error(self):
        net = two_node_net()
        with pytest.raises(TopologyError, match="unknown node"):
            net.send(Message("control", "a", "zz", 0), now=0.0)

    def test_link_override_wins(self):
        net = two_node_net(latency=0.0, bw=1e18)
        net.link_overrides[("a", "b")] = LinkSpec("a", "b", 0.5, 1e18)
        times = []
        net.register("b", lambda msg, now: times.append(now))
        net.send(Message("control", "a", "b", 0), now=0.0)
        net.run_until()
        assert times[0] == pytest.approx(0.5)

    def test_derived_bandwidth_is_min_of_endpoints(self):
        nodes = {"a": NodeSpec("a", 1.0, 1e6), "b": NodeSpec("b", 1.0, 1e3)}
        net = Network(nodes)
        assert net.link_for("a", "b").bandwidth == 1e3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError):
            Message("telepathy", "a", "b", 0)

    def test_message_is_slotted_and_still_validates(self):
        assert not hasattr(Message("control", "a", "b", 0), "__dict__")
        with pytest.raises(ProtocolError, match="telepathy"):
            Message("telepathy", "a", "b", 0, extra={})

    def test_link_resolved_once_on_first_send(self):
        net = two_node_net(latency=0.0, bw=1e18)
        net.link_overrides[("a", "b")] = LinkSpec("a", "b", 0.5, 1e3)
        resolved = []
        link_for = net.link_for
        net.link_for = lambda src, dst: resolved.append((src, dst)) or link_for(src, dst)
        times = []
        net.register("b", lambda msg, now: times.append(now))
        net.send(Message("control", "a", "b", 0, payload=np.zeros(25)), now=0.0)
        # a later override is not consulted: the link was resolved on first use
        net.link_overrides[("a", "b")] = LinkSpec("a", "b", 9.0, 1.0)
        net.send(Message("control", "a", "b", 1, payload=np.zeros(25)), now=10.0)
        net.run_until()
        assert resolved == [("a", "b")]
        assert times == [pytest.approx(0.2 + 0.5), pytest.approx(10.0 + 0.2 + 0.5)]

    def test_unknown_receiver_raises_on_every_send(self):
        net = two_node_net()
        for _ in range(3):
            with pytest.raises(TopologyError, match="unknown node 'zz'"):
                net.send(Message("control", "a", "zz", 0), now=0.0)


class TestDeterminism:
    def _run(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        net = two_node_net(latency=0.001, bw=1e6)
        net.register("a", lambda msg, now: None)
        net.register("b", lambda msg, now: None)
        for k in range(50):
            src, dst = ("a", "b") if rng.random() < 0.5 else ("b", "a")
            net.send(
                Message("control", src, dst, k, payload=np.zeros(int(rng.integers(1, 100)))),
                now=float(rng.uniform(0, 0.01)) if net.now == 0 else None,
            )
        net.run_until()
        return net.trace_hash()

    def test_identical_seed_identical_trace_hash(self):
        assert self._run(42) == self._run(42)

    def test_different_seed_differs(self):
        assert self._run(42) != self._run(43)

    @given(st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_causality_and_fifo(self, seed):
        rng = np.random.Generator(np.random.Philox(key=seed))
        net = two_node_net(latency=float(rng.uniform(0, 0.01)), bw=float(rng.uniform(1e3, 1e6)))
        net.register("b", lambda msg, now: None)
        sends = []
        t = 0.0
        for k in range(20):
            t += float(rng.uniform(0, 0.001))
            sends.append((t, k))
            net.send(Message("control", "a", "b", k, payload=np.zeros(int(rng.integers(0, 50)))), now=t)
        net.run_until()
        deliveries = [(row[0], row[4]) for row in net.trace]
        # causality: never delivered before sent
        for (ts, tag), (td, tag2) in zip(sends, deliveries):
            assert tag == tag2 and td >= ts
        # FIFO: delivery order matches send order
        assert [tag for _, tag in deliveries] == [k for _, k in sends]

    def test_trace_csv_schema_line(self):
        net = two_node_net()
        net.register("b", lambda msg, now: None)
        net.send(Message("control", "a", "b", 7), now=0.0)
        net.run_until()
        lines = net.trace_csv().splitlines()
        assert lines[0] == "# schema: ravnest-trace-v1"
        assert lines[1] == "time,kind,sender,receiver,step_tag,bytes"
        assert lines[2].endswith(",control,a,b,7,0")
