"""QEMU/KVM model: virtual machines and ivshmem device (un)plug.

A :class:`VirtualMachine` bundles a guest EAL (whose memzone visibility
is enforced by the shared :class:`~repro.mem.memzone.MemzoneRegistry`),
the set of ivshmem devices currently attached, and a virtio-serial
control channel.  The :class:`Hypervisor` exposes the monitor commands
the compute agent uses — ``device_add``/``device_del`` for ivshmem —
with the hot-plug latency that dominates bypass setup time.
"""

from typing import Dict, List, Optional

from repro.dpdk.eal import Eal
from repro.dpdk.virtio_serial import VirtioSerial
from repro.faults import VM_CRASH, FaultMode, FaultPlan
from repro.mem.memzone import MemzoneRegistry
from repro.sim.costmodel import CostModel, DEFAULT_COST_MODEL
from repro.sim.engine import Environment, Process
from repro.sim.pollloop import PollLoop


class HypervisorError(RuntimeError):
    """VM lifecycle / device model errors."""


class VirtualMachine:
    """One KVM/QEMU guest."""

    def __init__(self, name: str, registry: MemzoneRegistry,
                 serial: VirtioSerial) -> None:
        self.name = name
        self.eal = Eal(registry, vm_name=name)
        self.serial = serial
        self.ivshmem_devices: List[str] = []  # zone names, in plug order
        self.running = True
        # True after Hypervisor.crash_vm — distinguishes "QEMU process
        # died" from a graceful destroy for the layers above.
        self.crashed = False
        # Guest-side runtime (GuestPmdManager) back-pointer, set when
        # one is created; crash_vm kills it with the process.
        self.guest_runtime = None

    def has_zone(self, zone_name: str) -> bool:
        return zone_name in self.ivshmem_devices

    def __repr__(self) -> str:
        return "<VirtualMachine %s ivshmem=%d>" % (
            self.name, len(self.ivshmem_devices)
        )


class Hypervisor:
    """The host's VM manager (QEMU monitor facade)."""

    def __init__(
        self,
        registry: MemzoneRegistry,
        env: Environment,
        costs: CostModel = DEFAULT_COST_MODEL,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.registry = registry
        self.env = env
        self.costs = costs
        self.faults = faults
        self.vms: Dict[str, VirtualMachine] = {}
        self.hotplugs = 0
        self.hotunplugs = 0
        # Called with the VM name after a VM is destroyed/crashes; the
        # compute agent and the bypass manager subscribe here to clean
        # up channel state that references the dead guest.
        self.on_destroy: List = []
        # Called with the VM name after crash_vm only (before the
        # on_destroy listeners run).
        self.on_crash: List = []
        # Names whose most recent death was a crash (cleared when the
        # name is booted again, or superseded by a graceful destroy).
        self.crashed_vms = set()
        self.crashes = 0
        # Round-robin cursor for the vm.crash chaos point.
        self._chaos_cursor = 0

    # -- lifecycle ---------------------------------------------------------

    def create_vm(self, name: str,
                  boot_zones: Optional[List[str]] = None) -> VirtualMachine:
        """Boot a VM with ``boot_zones`` attached as cold-plugged ivshmem
        devices (the dpdkr normal channels the compute agent wires at VM
        creation)."""
        if name in self.vms:
            raise HypervisorError("VM %r already exists" % name)
        serial = VirtioSerial(
            "%s.serial" % name,
            env=self.env,
            one_way_latency=self.costs.virtio_serial_rtt / 2,
            faults=self.faults,
        )
        vm = VirtualMachine(name, self.registry, serial)
        for zone_name in boot_zones or []:
            self.registry.map_into(zone_name, name)
            vm.ivshmem_devices.append(zone_name)
        self.vms[name] = vm
        # A replacement VM reusing a crashed instance's name supersedes
        # the crash record: the name is alive again.
        self.crashed_vms.discard(name)
        return vm

    def destroy_vm(self, name: str) -> None:
        """Graceful teardown (guest shuts down, then QEMU exits).

        All its ivshmem mappings are released first, then the destroy
        listeners run so higher layers (compute agent, bypass manager)
        can clean up channels that referenced the guest.
        """
        vm = self._vm(name)
        for zone_name in list(vm.ivshmem_devices):
            self.registry.unmap_from(zone_name, name)
            vm.ivshmem_devices.remove(zone_name)
        vm.running = False
        del self.vms[name]
        self.crashed_vms.discard(name)
        for listener in list(self.on_destroy):
            listener(name)

    def crash_vm(self, name: str) -> None:
        """Abrupt VM death (the QEMU process is killed).

        Unlike :meth:`destroy_vm`, no guest-side teardown runs: the
        virtio-serial channel goes dead mid-conversation (in-flight
        messages and replies vanish), the guest runtime stops polling,
        and every plugged ivshmem zone — normal channels *and* bypass
        zones — is force-unplugged.  The ``on_crash`` listeners fire
        first, then the regular ``on_destroy`` listeners (the host's
        SIGCHLD view: a death is a death).
        """
        vm = self._vm(name)
        vm.serial.kill()
        if vm.guest_runtime is not None:
            vm.guest_runtime.kill()
        for zone_name in list(vm.ivshmem_devices):
            self.registry.unmap_from(zone_name, name)
            vm.ivshmem_devices.remove(zone_name)
        vm.running = False
        vm.crashed = True
        del self.vms[name]
        self.crashed_vms.add(name)
        self.crashes += 1
        for listener in list(self.on_crash):
            listener(name)
        for listener in list(self.on_destroy):
            listener(name)

    def was_crashed(self, name: str) -> bool:
        """True when ``name``'s most recent death was a crash."""
        return name in self.crashed_vms

    def chaos_tick(self) -> Optional[str]:
        """Fire the ``vm.crash`` fault point against one running VM.

        The victim is the fault action's ``message`` when it names a
        running VM, otherwise the next VM in name order (round-robin) —
        deterministic under a seeded plan.  Returns the crashed VM's
        name, or None when nothing fired.
        """
        if self.faults is None or not self.vms:
            return None
        if not self.faults.has_specs(VM_CRASH):
            return None
        action = self.faults.fire(VM_CRASH)
        if action is None:
            return None
        if action.message in self.vms:
            victim = action.message
        else:
            names = sorted(self.vms)
            victim = names[self._chaos_cursor % len(names)]
        self._chaos_cursor += 1
        self.crash_vm(victim)
        return victim

    def start_chaos(self, env: Environment, period: float = 0.001):
        """Run :meth:`chaos_tick` on a housekeeping loop."""
        def iteration() -> float:
            self.chaos_tick()
            return 0.0

        loop = PollLoop(env, "hypervisor.chaos", iteration,
                        costs=self.costs, period=period)
        loop.start()
        return loop

    def force_unplug(self, vm_name: str, zone_name: str) -> None:
        """Immediate unplug for failure handling (no monitor latency)."""
        vm = self._vm(vm_name)
        if not vm.has_zone(zone_name):
            raise HypervisorError(
                "VM %r has no ivshmem for %r" % (vm_name, zone_name)
            )
        self._complete_unplug(vm, zone_name)

    def _vm(self, name: str) -> VirtualMachine:
        try:
            return self.vms[name]
        except KeyError:
            raise HypervisorError("no VM named %r" % name) from None

    # -- ivshmem hot-plug (QEMU monitor device_add/device_del) -----------------

    def plug_ivshmem(self, vm_name: str, zone_name: str) -> Process:
        """Hot-plug ``zone_name`` into the VM.

        Takes :attr:`CostModel.ivshmem_hotplug` simulated seconds (QEMU
        device_add + guest PCI rescan); returns the process to wait on.
        """
        vm = self._vm(vm_name)
        if vm.has_zone(zone_name):
            raise HypervisorError(
                "VM %r already has ivshmem for %r" % (vm_name, zone_name)
            )
        self.registry.lookup(zone_name)  # fail fast on bogus zones
        return self.env.process(self._plug_process(vm, zone_name),
                                name="qemu.plug.%s" % zone_name)

    def _plug_process(self, vm: VirtualMachine, zone_name: str):
        yield self.env.timeout(self.costs.qemu_monitor_cmd)
        yield from self._monitor_fault(vm, "qemu.plug")
        yield self.env.timeout(self.costs.ivshmem_hotplug)
        self._complete_plug(vm, zone_name)

    def _monitor_fault(self, vm: VirtualMachine, point: str):
        """Fire the fault plan for a monitor command (plug/unplug).

        ERROR raises, CRASH kills the target VM first, DELAY stretches
        the command and DROP parks it forever (the caller's timeout is
        the only way out).
        """
        if self.faults is None:
            return
        action = self.faults.fire(point)
        if action is None:
            return
        if action.mode is FaultMode.CRASH:
            if vm.name in self.vms:
                self.destroy_vm(vm.name)
            raise HypervisorError(action.message)
        if action.mode is FaultMode.ERROR:
            raise HypervisorError(action.message)
        if action.mode is FaultMode.DELAY:
            yield self.env.timeout(action.delay)
        elif action.mode is FaultMode.DROP:
            yield self.env.event()  # never fires: the command hangs

    def _complete_plug(self, vm: VirtualMachine, zone_name: str) -> None:
        if not vm.running:
            return  # the VM died while the hot-plug was in flight
        if zone_name not in self.registry:
            # The bypass manager rolled the establishment attempt back
            # (and freed the zone) while this device_add was in flight;
            # completing it now would map a guest into freed memory.
            return
        self.registry.map_into(zone_name, vm.name)
        vm.ivshmem_devices.append(zone_name)
        self.hotplugs += 1

    def unplug_ivshmem(self, vm_name: str, zone_name: str) -> Process:
        """Hot-unplug; returns the process to wait on."""
        vm = self._vm(vm_name)
        if not vm.has_zone(zone_name):
            raise HypervisorError(
                "VM %r has no ivshmem for %r" % (vm_name, zone_name)
            )
        return self.env.process(self._unplug_process(vm, zone_name),
                                name="qemu.unplug.%s" % zone_name)

    def _unplug_process(self, vm: VirtualMachine, zone_name: str):
        yield self.env.timeout(self.costs.qemu_monitor_cmd)
        yield from self._monitor_fault(vm, "qemu.unplug")
        self._complete_unplug(vm, zone_name)

    def _complete_unplug(self, vm: VirtualMachine, zone_name: str) -> None:
        if not vm.has_zone(zone_name):
            # Already detached by the failure janitor (force_unplug) or
            # by the VM's own destruction while device_del was in flight.
            return
        self.registry.unmap_from(zone_name, vm.name)
        vm.ivshmem_devices.remove(zone_name)
        self.hotunplugs += 1
