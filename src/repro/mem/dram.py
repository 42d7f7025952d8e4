"""DRAM channel model with service-rate queueing.

Each channel serves one request every ``service_interval`` cycles and
returns data ``access_latency`` cycles after service begins.  Requests
arriving while the channel is busy queue behind it, so bursts of page
table walks and cache misses see realistic contention — the effect that
makes GPU TLB misses roughly twice as expensive as L1 misses (paper
Figure 4).
"""

from __future__ import annotations

from typing import List

from repro.obs import events as _ev
from repro.obs import tracer as _trace
from repro.prof import profiler as _prof


class DRAMChannel:
    """One DRAM channel: fixed service rate, fixed access latency."""

    def __init__(self, access_latency: int = 200, service_interval: int = 8):
        if access_latency <= 0 or service_interval <= 0:
            raise ValueError("latencies must be positive")
        self.access_latency = access_latency
        self.service_interval = service_interval
        self.busy_until = 0
        self.requests = 0
        self.total_queue_delay = 0

    def access(self, now: int) -> int:
        """Issue a request at cycle ``now``; return its data-ready cycle."""
        start = now if now >= self.busy_until else self.busy_until
        self.total_queue_delay += start - now
        self.busy_until = start + self.service_interval
        self.requests += 1
        return start + self.access_latency


class DRAM:
    """A set of DRAM channels addressed by line-address interleaving."""

    def __init__(
        self,
        num_channels: int = 8,
        access_latency: int = 200,
        service_interval: int = 8,
        line_bytes: int = 128,
    ):
        if num_channels <= 0:
            raise ValueError("need at least one channel")
        self.num_channels = num_channels
        self.line_bytes = line_bytes
        self.channels: List[DRAMChannel] = [
            DRAMChannel(access_latency, service_interval)
            for _ in range(num_channels)
        ]

    def channel_of(self, line_addr: int) -> int:
        """Channel index a line address maps to (line interleaving)."""
        return (line_addr // self.line_bytes) % self.num_channels

    def access(self, line_addr: int, now: int) -> int:
        """Access DRAM for ``line_addr`` at ``now``; return ready cycle."""
        if _prof.ENABLED:
            _prof.begin(_prof.PHASE_DRAM)
        channel_index = self.channel_of(line_addr)
        channel = self.channels[channel_index]
        ready = channel.access(now)
        if _prof.ENABLED:
            _prof.end()
        if _trace.ENABLED:
            start = ready - channel.access_latency
            _trace.emit(
                _ev.DRAM_ACCESS,
                cycle=start,
                track=f"dram-ch{channel_index}",
                dur=channel.access_latency,
                line=line_addr,
                queued=start - now,
            )
        return ready

    @property
    def requests(self) -> int:
        """Total requests across all channels."""
        return sum(channel.requests for channel in self.channels)

    @property
    def total_queue_delay(self) -> int:
        """Total cycles requests spent queued across all channels."""
        return sum(channel.total_queue_delay for channel in self.channels)
