"""EAL: the per-process DPDK environment.

A host process (the vSwitch) runs a *primary* EAL that can reserve
memzones; each VM's DPDK application runs a *guest* EAL whose memzone
lookups are filtered through the ivshmem visibility model — a guest can
only find zones that have been mapped into its VM.  This is the property
that makes the bypass hot-plug sequence observable: before the compute
agent plugs the bypass zone, the guest PMD genuinely cannot reach it.
"""

from typing import Dict, List, Optional

from repro.dpdk.ethdev import EthDev
from repro.mem.memzone import Memzone, MemzoneRegistry
from repro.mem.mempool import Mempool


class EalError(RuntimeError):
    """EAL-level failures (duplicate ports, invisible zones...)."""


class Eal:
    """One DPDK process environment."""

    def __init__(
        self,
        registry: MemzoneRegistry,
        *,
        vm_name: Optional[str] = None,
    ) -> None:
        """``vm_name=None`` means the primary/host process (sees all zones);
        otherwise lookups are restricted to zones mapped into that VM."""
        self.registry = registry
        self.vm_name = vm_name
        self.name = vm_name or "host"
        self._ports: Dict[int, EthDev] = {}
        self._mempools: Dict[str, Mempool] = {}
        self._next_port_id = 0

    @property
    def is_primary(self) -> bool:
        return self.vm_name is None

    # -- memzones ----------------------------------------------------------

    def reserve_memzone(self, zone_name: str, size: int = 0) -> Memzone:
        """Primary-only: allocate a shared zone."""
        if not self.is_primary:
            raise EalError(
                "guest EAL %r cannot reserve memzones" % self.name
            )
        return self.registry.reserve(zone_name, size=size, owner=self.name)

    def lookup_memzone(self, zone_name: str) -> Memzone:
        """Find a zone, honouring ivshmem visibility for guests."""
        zone = self.registry.lookup(zone_name)
        if self.is_primary:
            return zone
        if self.vm_name not in zone.mapped_by:
            raise EalError(
                "memzone %r not visible to VM %r (not hot-plugged?)"
                % (zone_name, self.vm_name)
            )
        return zone

    def visible_zones(self) -> List[Memzone]:
        if self.is_primary:
            return [self.registry.lookup(name) for name in
                    list(self.registry._zones)]
        return self.registry.zones_visible_to(self.vm_name)

    # -- mempools -------------------------------------------------------------

    def create_mempool(self, pool_name: str, size: int = 4096) -> Mempool:
        if pool_name in self._mempools:
            raise EalError("mempool %r already exists" % pool_name)
        pool = Mempool("%s.%s" % (self.name, pool_name), size=size)
        self._mempools[pool_name] = pool
        return pool

    def get_mempool(self, pool_name: str) -> Mempool:
        try:
            return self._mempools[pool_name]
        except KeyError:
            raise EalError("no mempool %r" % pool_name) from None

    # -- ethdev registry ---------------------------------------------------------

    def register_port(self, device: EthDev) -> int:
        """Assign the next port id to ``device`` and register it."""
        port_id = self._next_port_id
        self._next_port_id += 1
        device.port_id = port_id
        self._ports[port_id] = device
        return port_id

    def replace_port(self, port_id: int, device: EthDev) -> EthDev:
        """Swap the device behind a port id (PMD reconfiguration).

        The application keeps its port id; this is how the bypass
        switchover stays invisible to the VNF.  Returns the old device.
        """
        if port_id not in self._ports:
            raise EalError("no port %d to replace" % port_id)
        old = self._ports[port_id]
        device.port_id = port_id
        self._ports[port_id] = device
        return old

    def port(self, port_id: int) -> EthDev:
        try:
            return self._ports[port_id]
        except KeyError:
            raise EalError("no port %d in EAL %r" % (port_id, self.name)) \
                from None

    @property
    def port_count(self) -> int:
        return len(self._ports)

    def __repr__(self) -> str:
        role = "primary" if self.is_primary else "guest:%s" % self.vm_name
        return "<Eal %s ports=%d>" % (role, len(self._ports))
