"""Transport protocols and applications: ping, UDP, and TCP with a
congestion controller chosen by name (NewReno, Vegas or BBR, via
``TcpFlow(..., controller=name)``; see :data:`repro.cc.CONTROLLERS`)."""

from .base import Application
from .ping import PingSession
from .tcp import TcpFlow
from .udp import UdpFlow

__all__ = [
    "Application",
    "PingSession",
    "TcpFlow",
    "UdpFlow",
]
