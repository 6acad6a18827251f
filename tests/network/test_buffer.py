"""Tests for the VC and output buffers."""

import pytest

from repro.network.buffer import OutputBuffer, VCBuffer
from repro.network.packet import Packet


def make_packet(pid=0, size=4):
    return Packet(pid=pid, src=0, dst=1, size_phits=size, creation_cycle=0)


class TestVCBuffer:
    def test_push_pop_fifo_order(self):
        buf = VCBuffer(16)
        packets = [make_packet(i) for i in range(3)]
        for p in packets:
            buf.push(p)
        assert buf.num_packets == 3
        assert buf.occupied_phits == 12
        assert [buf.pop().pid for _ in range(3)] == [0, 1, 2]
        assert buf.empty

    def test_head_does_not_remove(self):
        buf = VCBuffer(8)
        p = make_packet()
        buf.push(p)
        assert buf.head() is p
        assert buf.num_packets == 1

    def test_virtual_cut_through_admission(self):
        buf = VCBuffer(10)
        buf.push(make_packet(0, size=4))
        buf.push(make_packet(1, size=4))
        assert not buf.can_accept(4)  # only 2 phits left
        assert buf.can_accept(2)
        with pytest.raises(OverflowError):
            buf.push(make_packet(2, size=4))

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            VCBuffer(4).pop()

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            VCBuffer(0)

    def test_iteration_and_len(self):
        buf = VCBuffer(32)
        for i in range(4):
            buf.push(make_packet(i))
        assert len(buf) == 4
        assert [p.pid for p in buf] == [0, 1, 2, 3]


class TestOutputBuffer:
    def test_commit_then_enqueue_accounting(self):
        buf = OutputBuffer(16)
        buf.commit(4)
        assert buf.committed_phits == 4
        assert buf.free_phits == 12
        p = make_packet()
        buf.enqueue(p)
        assert buf.head() is p
        popped = buf.pop()
        assert popped is p
        assert buf.committed_phits == 0

    def test_over_commit_raises(self):
        buf = OutputBuffer(8)
        buf.commit(8)
        assert not buf.can_commit(1)
        with pytest.raises(OverflowError):
            buf.commit(1)

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            OutputBuffer(8).pop()

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            OutputBuffer(0)
