"""Guest VNF applications written against the ethdev API.

The paper's VMs each run "a single core DPDK application that moves
packets from one port to another"; :class:`ForwarderApp` is exactly
that.  The other applications implement the service graph from the
paper's Figure 1 — firewall, network monitor, web cache — to exercise
classified (non-p-2-p) steering alongside the bypassable links.

Every app is transparency-agnostic: it sees ordinary ports and cannot
tell whether a bypass is active underneath.
"""

from repro.apps.base import DpdkApp, PortPair
from repro.apps.conntrack import StatefulFirewallApp
from repro.apps.forwarder import ForwarderApp
from repro.apps.firewall import FirewallApp, FirewallRule
from repro.apps.monitor import MonitorApp
from repro.apps.cache import WebCacheApp

__all__ = [
    "DpdkApp",
    "FirewallApp",
    "FirewallRule",
    "ForwarderApp",
    "MonitorApp",
    "PortPair",
    "StatefulFirewallApp",
    "WebCacheApp",
]
