"""Tests for input/output port state: credits, arrivals, pipelines."""

import pytest

from repro.network.packet import Packet
from repro.network.ports import InputPort, OutputPort
from repro.topology.base import PortKind


def make_packet(pid=0, size=4):
    return Packet(pid=pid, src=0, dst=1, size_phits=size, creation_cycle=0)


class TestInputPort:
    def test_arrivals_released_in_time_order(self):
        ip = InputPort(router_id=0, port=2, kind=PortKind.LOCAL, num_vcs=2, vc_capacity_phits=16)
        ip.schedule_arrival(10, 0, make_packet(0))
        ip.schedule_arrival(12, 1, make_packet(1))
        assert ip.pop_arrivals(9) == []
        ready = ip.pop_arrivals(11)
        assert [(vc, p.pid) for vc, p in ready] == [(0, 0)]
        ready = ip.pop_arrivals(20)
        assert [(vc, p.pid) for vc, p in ready] == [(1, 1)]

    def test_occupancy_accounting(self):
        ip = InputPort(router_id=0, port=0, kind=PortKind.INJECTION, num_vcs=3, vc_capacity_phits=16)
        ip.vcs[0].buffer.push(make_packet(0))
        ip.vcs[2].buffer.push(make_packet(1))
        assert ip.occupancy_phits() == 8
        assert ip.total_packets() == 2


class TestOutputPort:
    def make_port(self, vcs=2, capacity=8, latency=5):
        return OutputPort(
            router_id=0,
            port=4,
            kind=PortKind.GLOBAL,
            buffer_capacity_phits=16,
            downstream_vcs=vcs,
            downstream_vc_capacity_phits=capacity,
            link_latency=latency,
            neighbor=(1, 4),
        )

    def test_credit_lifecycle(self):
        op = self.make_port()
        assert op.credits == [8, 8]
        op.consume_credits(0, 4)
        assert op.credits[0] == 4
        assert op.credit_occupancy(0) == 4
        assert op.credit_occupancy() == 4
        op.schedule_credit_return(20, 0, 4)
        op.apply_credit_returns(19)
        assert op.credits[0] == 4  # not yet arrived
        op.apply_credit_returns(20)
        assert op.credits[0] == 8

    def test_credit_underflow_and_overflow_detected(self):
        op = self.make_port()
        with pytest.raises(RuntimeError):
            op.consume_credits(0, 9)
        op.schedule_credit_return(0, 0, 1)
        with pytest.raises(RuntimeError):
            op.apply_credit_returns(0)

    def test_ejection_port_has_effectively_infinite_credits(self):
        op = OutputPort(
            router_id=0,
            port=0,
            kind=PortKind.INJECTION,
            buffer_capacity_phits=16,
            downstream_vcs=3,
            downstream_vc_capacity_phits=16,
            link_latency=1,
            neighbor=None,
        )
        assert len(op.credits) == 1
        op.consume_credits(0, 10_000)

    def test_pipeline_drain_respects_ready_cycle(self):
        op = self.make_port()
        op.buffer.commit(4)
        op.push_pipeline(15, make_packet(0))
        op.drain_pipeline(14)
        assert op.buffer.empty
        op.drain_pipeline(15)
        assert op.buffer.head().pid == 0

    def test_total_occupancy_combines_buffer_and_credits(self):
        op = self.make_port()
        op.buffer.commit(4)
        op.consume_credits(1, 8)
        assert op.buffer.committed_phits == 4
        assert op.total_occupancy() == 12
