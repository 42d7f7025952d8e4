"""Miss Status Holding Registers.

An MSHR file tracks outstanding misses by line address so that a second
miss to an in-flight line merges with the first instead of issuing a new
request.  Entries retire implicitly when simulated time passes their
fill time; capacity pressure is exposed through :meth:`MSHRFile.earliest_free`
so callers can model structural stalls.  A ``(fill time, line)`` min-heap
holding exactly the in-flight entries finds both the retirees and a full
file's soonest fill.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.obs import events as _ev
from repro.obs import tracer as _trace

class MSHRFile:
    """Outstanding-miss tracker with bounded capacity.

    Parameters
    ----------
    capacity:
        Maximum simultaneously outstanding distinct lines.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("MSHR capacity must be positive")
        self.capacity = capacity
        self._inflight: Dict[int, int] = {}  # line -> fill (ready) time
        # (ready, line) min-heap holding exactly the _inflight entries:
        # an entry leaves _inflight only when it is popped off the heap
        # top, and a line in flight cannot be allocated again.
        self._heap: List[Tuple[int, int]] = []
        self.merges = 0
        self.allocations = 0
        self.stalls = 0

    def _expire(self, now: int) -> None:
        """Retire every entry whose fill time is at or before ``now``."""
        heap = self._heap
        if not heap or heap[0][0] > now:
            return
        inflight = self._inflight
        if _trace.ENABLED:
            # Traced path: the heap finds the retirees cheaply, then a
            # positional index (built only for multi-entry batches)
            # restores file (insertion) order so the MSHR_RETIRE event
            # sequence matches the pre-heap behaviour byte for byte.
            expired = []
            while heap and heap[0][0] <= now:
                expired.append(heapq.heappop(heap)[1])
            if len(expired) > 1:
                order = {line: i for i, line in enumerate(inflight)}
                expired.sort(key=order.__getitem__)
            record = _trace.RECORD
            core = _trace.CORE
            for line in expired:
                # Stamped with the entry's fill time, not the (later)
                # cycle the expiry happened to run at.
                record(
                    (
                        _ev.MSHR_RETIRE,
                        inflight.pop(line),
                        core,
                        "mshr",
                        None,
                        {"line": line},
                    )
                )
            return
        while heap and heap[0][0] <= now:
            del inflight[heapq.heappop(heap)[1]]

    def outstanding(self, now: int) -> int:
        """Number of misses still in flight at cycle ``now``."""
        self._expire(now)
        return len(self._inflight)

    def lookup(self, line_addr: int, now: int) -> Optional[int]:
        """If ``line_addr`` is in flight, return its fill time (a merge)."""
        self._expire(now)
        ready = self._inflight.get(line_addr)
        if ready is not None:
            self.merges += 1
            if _trace.ENABLED:
                _trace.emit(
                    _ev.MSHR_MERGE,
                    cycle=now,
                    track="mshr",
                    line=line_addr,
                    ready=ready,
                )
        return ready

    def earliest_free(self, now: int) -> int:
        """Earliest cycle at which an entry can be allocated.

        Returns ``now`` when a slot is already free; otherwise the fill
        time of the soonest-retiring entry.
        """
        self._expire(now)
        if len(self._inflight) < self.capacity:
            return now
        self.stalls += 1
        # The file is full, so its soonest fill is the heap top.
        return self._heap[0][0]

    def allocate(self, line_addr: int, ready_time: int, now: int) -> None:
        """Record a new outstanding miss filling at ``ready_time``."""
        self._expire(now)
        if len(self._inflight) >= self.capacity:
            raise RuntimeError("MSHR allocate with no free entry; call earliest_free")
        if line_addr in self._inflight:
            raise RuntimeError(f"line {line_addr:#x} already has an MSHR")
        self._inflight[line_addr] = ready_time
        heapq.heappush(self._heap, (ready_time, line_addr))
        self.allocations += 1
        if _trace.ENABLED:
            _trace.emit(
                _ev.MSHR_ALLOC,
                cycle=now,
                track="mshr",
                line=line_addr,
                ready=ready_time,
                outstanding=len(self._inflight),
            )
