"""Cycle-level network model: packets, buffers, ports, routers, nodes."""

from repro.network.allocator import AllocationRequest, RoundRobinArbiter, SeparableAllocator
from repro.network.buffer import OutputBuffer, VCBuffer
from repro.network.network import Network
from repro.network.node import ComputeNode
from repro.network.packet import Packet
from repro.network.ports import InputPort, InputVC, OutputPort
from repro.network.router import Router

__all__ = [
    "AllocationRequest",
    "RoundRobinArbiter",
    "SeparableAllocator",
    "OutputBuffer",
    "VCBuffer",
    "Network",
    "ComputeNode",
    "Packet",
    "InputPort",
    "InputVC",
    "OutputPort",
    "Router",
]
