"""repro — reproduction of "A Transparent Highway for inter-VNF
Communication with Open vSwitch" (SIGCOMM 2016).

The package implements, in pure Python, every subsystem the paper's
prototype touches — shared-memory rings, a DPDK-like port/PMD layer, an
OpenFlow-programmable vSwitch, a QEMU/compute-agent control plane — plus
the paper's contribution: a p-2-p link detector and transparent bypass
channels that remove the vSwitch from the data path between two VMs.

Quick start::

    from repro.experiments import ChainExperiment

    result = ChainExperiment(num_vms=4, bypass=True, duration=0.05).run()
    print(result.throughput_mpps)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

__version__ = "1.0.0"
