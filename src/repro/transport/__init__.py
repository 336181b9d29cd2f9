"""Transport protocols and applications: ping, UDP, and TCP with
pluggable congestion control (NewReno, Vegas, BBR, and anything in the
:mod:`repro.cc` registry via ``TcpFlow(..., controller=name)``)."""

from .base import Application, TimeSeriesLog, allocate_flow_id
from .ping import PingSession
from .tcp import TcpFlow
from .udp import UdpFlow

__all__ = [
    "Application",
    "TimeSeriesLog",
    "allocate_flow_id",
    "PingSession",
    "TcpFlow",
    "UdpFlow",
]
