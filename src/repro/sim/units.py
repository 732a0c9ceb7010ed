"""Time and size unit helpers.

The kernel clock ticks in integer nanoseconds; these constants keep model
code readable (``yield sim.timeout(2 * US)``) and conversions explicit.
"""

# Time units, expressed in nanoseconds.
NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

# Size units, expressed in bytes.
KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


def gbps_to_bytes_per_ns(gbps: float) -> float:
    """Convert a link rate in gigabits per second to bytes per nanosecond.

    Example: a 100 Gbps link moves 12.5 bytes per nanosecond.
    """
    return gbps / 8.0


def gib_per_s_to_bytes_per_ns(gib_per_s: float) -> float:
    """Convert a memory bandwidth in GiB/s to bytes per nanosecond."""
    return gib_per_s * GIB / SEC


def ns_to_us(ns: float) -> float:
    """Convert nanoseconds to microseconds (for reports)."""
    return ns / US


def ops_per_sec(op_count: int, elapsed_ns: int) -> float:
    """Throughput in operations per (simulated) second.

    Returns 0.0 for an empty interval instead of raising, because benchmark
    sweeps legitimately produce zero-op cells (e.g. a system that never
    finished warmup at the smallest scale).
    """
    if elapsed_ns <= 0:
        return 0.0
    return op_count * SEC / elapsed_ns
