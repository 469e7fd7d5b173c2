"""Host metadata and process self-metrics.

An edges/s number is only comparable when you know what machine
produced it.  :func:`host_metadata` captures the stable facts — Python
version and implementation, platform string, CPU count — as a small
JSON-ready dict embedded in every ledger result and metrics artifact.

:func:`register_process_collectors` adds the standard process
self-metrics (resident memory, user/system CPU seconds, open file
descriptors) to a :class:`~repro.obs.MetricsRegistry` as snapshot-time
collectors — zero hot-path cost, and in a sharded run every worker's
registry carries them, so the merged cluster snapshot shows per-shard
memory and CPU under ``shard=`` labels.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict, Optional


def host_metadata() -> Dict[str, object]:
    """Python/platform/CPU facts of the current host (JSON-ready)."""
    return {
        "python_version": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "executable": os.path.basename(sys.executable or "python"),
    }


def register_process_collectors(registry) -> None:
    """Attach RSS / CPU-seconds / open-fd collectors to ``registry``.

    Values refresh only inside ``registry.snapshot()``.  No-op on
    platforms without the ``resource`` module (non-POSIX); the open-fd
    gauge appears only where ``/proc/self/fd`` exists.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return
    # ru_maxrss is bytes on macOS, kilobytes everywhere else.
    scale = 1 if sys.platform == "darwin" else 1024
    rss = registry.gauge(
        "process_resident_memory_bytes",
        "resident set size (VmRSS when /proc exists, else the peak)")
    peak = registry.gauge(
        "process_max_resident_memory_bytes",
        "peak resident set size (ru_maxrss)")
    cpu_user = registry.counter(
        "process_cpu_user_seconds_total", "user-mode CPU time consumed")
    cpu_sys = registry.counter(
        "process_cpu_system_seconds_total",
        "kernel-mode CPU time consumed")

    def collect() -> None:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu_user.set_total(usage.ru_utime)
        cpu_sys.set_total(usage.ru_stime)
        peak_bytes = usage.ru_maxrss * scale
        peak.set(peak_bytes)
        rss.set(_current_rss() or peak_bytes)
        fd_count = _open_fds()
        if fd_count is not None:
            registry.gauge("process_open_fds",
                           "open file descriptors").set(fd_count)

    registry.add_collector(collect)


def _current_rss() -> Optional[int]:
    """Current resident set size in bytes via /proc, or None."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _open_fds() -> Optional[int]:
    """Open file descriptor count via /proc, or None."""
    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return None
