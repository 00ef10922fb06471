"""Throughput accounting."""


def to_mpps(packets: int, seconds: float) -> float:
    """Packets over a window, expressed in million packets per second."""
    if seconds <= 0:
        return 0.0
    return packets / seconds / 1e6
