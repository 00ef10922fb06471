"""Named shared-memory segments (DPDK memzones / ivshmem BARs).

In the real prototype, a dpdkr port's rings live in hugepage-backed
memzones, and a bypass channel is created by carving a new memzone and
exposing it to *both* VMs through ivshmem devices.  Here a
:class:`Memzone` is a named container for Python objects (rings,
mempools, stats blocks) plus an owner/permission model; a
:class:`MemzoneRegistry` plays the role of the host's hugepage area.

What matters architecturally — and what the tests pin down — is the
*visibility* model: a VM can only touch objects in zones that have been
mapped into it (boot-time dpdkr zones, or hot-plugged bypass zones), and
unmapping makes them unreachable again.
"""

from typing import Any, Dict, List, Optional

from repro.faults import MEMZONE_RESERVE, FaultMode, FaultPlan


class MemzoneError(RuntimeError):
    """Raised on memzone naming/lookup/permission violations."""


class Memzone:
    """A named shared segment holding data-plane objects."""

    def __init__(self, name: str, size: int = 0,
                 owner: Optional[str] = None) -> None:
        self.name = name
        self.size = size
        self.owner = owner
        self._objects: Dict[str, Any] = {}
        self.mapped_by: List[str] = []  # VM names this zone is visible to

    def put(self, key: str, obj: Any) -> Any:
        """Store ``obj`` under ``key``; returns the object for chaining."""
        if key in self._objects:
            raise MemzoneError(
                "object %r already exists in memzone %r" % (key, self.name)
            )
        self._objects[key] = obj
        return obj

    def get(self, key: str) -> Any:
        try:
            return self._objects[key]
        except KeyError:
            raise MemzoneError(
                "no object %r in memzone %r" % (key, self.name)
            ) from None

    def __contains__(self, key: str) -> bool:
        return key in self._objects

    def __repr__(self) -> str:
        return "<Memzone %r objects=%d mapped_by=%s>" % (
            self.name, len(self._objects), self.mapped_by
        )


class MemzoneRegistry:
    """The host-wide registry of shared segments.

    One registry per simulated host.  The compute agent maps/unmaps zones
    into VMs (the ivshmem hot-plug path); the vSwitch allocates them for
    ports and bypass channels.
    """

    def __init__(self, faults: Optional[FaultPlan] = None) -> None:
        self._zones: Dict[str, Memzone] = {}
        self.faults = faults

    def reserve(self, name: str, size: int = 0,
                owner: Optional[str] = None) -> Memzone:
        """Allocate a new named zone; name collisions are errors."""
        if self.faults is not None:
            action = self.faults.fire(MEMZONE_RESERVE)
            # Allocation has no latency model, so every non-clean mode
            # degrades to an allocation failure the caller must absorb.
            if action is not None and action.mode is not FaultMode.DELAY:
                raise MemzoneError(action.message)
        if name in self._zones:
            raise MemzoneError("memzone %r already reserved" % name)
        zone = Memzone(name, size=size, owner=owner)
        self._zones[name] = zone
        return zone

    def lookup(self, name: str) -> Memzone:
        try:
            return self._zones[name]
        except KeyError:
            raise MemzoneError("no memzone named %r" % name) from None

    def free(self, name: str) -> None:
        """Release a zone. Refuses while any VM still maps it."""
        zone = self.lookup(name)
        if zone.mapped_by:
            raise MemzoneError(
                "memzone %r still mapped by %s" % (name, zone.mapped_by)
            )
        del self._zones[name]

    def map_into(self, name: str, vm_name: str) -> Memzone:
        """Record that ``vm_name`` can now access zone ``name``."""
        zone = self.lookup(name)
        if vm_name in zone.mapped_by:
            raise MemzoneError(
                "memzone %r already mapped into VM %r" % (name, vm_name)
            )
        zone.mapped_by.append(vm_name)
        return zone

    def unmap_from(self, name: str, vm_name: str) -> None:
        zone = self.lookup(name)
        if vm_name not in zone.mapped_by:
            raise MemzoneError(
                "memzone %r not mapped into VM %r" % (name, vm_name)
            )
        zone.mapped_by.remove(vm_name)

    def zones_visible_to(self, vm_name: str) -> List[Memzone]:
        return [z for z in self._zones.values() if vm_name in z.mapped_by]

    def __contains__(self, name: str) -> bool:
        return name in self._zones

    def __len__(self) -> int:
        return len(self._zones)
