"""Simulated physical memory: a 4 KB frame allocator.

The page table and data pages both draw frames from here, so page table
nodes occupy realistic, distinct physical addresses.  Frames may be
handed out sequentially (the common fast path: consecutive PTEs then land
on shared cache lines, as on a real first-touch allocator) or from a
free list after :meth:`PhysicalMemory.free_frame`.
"""

from __future__ import annotations

from typing import List

from repro.vm.address import PAGE_SHIFT_4K, PAGE_SIZE_4K


class OutOfPhysicalMemory(RuntimeError):
    """Raised when the frame allocator is exhausted."""


class PhysicalMemory:
    """A bump-plus-free-list allocator over 4 KB physical frames.

    Parameters
    ----------
    size_bytes:
        Total physical memory capacity.  Defaults to 8 GiB, comfortably
        above the paper's >1 GB workload footprints.
    base:
        Physical address of the first allocatable frame.  Frame zero is
        reserved by default so that physical address 0 never aliases an
        unmapped translation.
    """

    def __init__(self, size_bytes: int = 8 << 30, base: int = PAGE_SIZE_4K):
        if size_bytes <= base:
            raise ValueError("physical memory must be larger than its reserved base")
        if base % PAGE_SIZE_4K:
            raise ValueError("base must be frame-aligned")
        self.size_bytes = size_bytes
        self._next_frame = base >> PAGE_SHIFT_4K
        self._limit_frame = size_bytes >> PAGE_SHIFT_4K
        self._free: List[int] = []
        self._allocated = 0

    @property
    def frames_allocated(self) -> int:
        """Number of frames currently allocated."""
        return self._allocated

    @property
    def frames_remaining(self) -> int:
        """Number of frames still available."""
        return (self._limit_frame - self._next_frame) + len(self._free)

    def alloc_frame(self) -> int:
        """Allocate one 4 KB frame and return its frame number (PFN)."""
        if self._free:
            pfn = self._free.pop()
        else:
            if self._next_frame >= self._limit_frame:
                raise OutOfPhysicalMemory(
                    f"exhausted {self.size_bytes} bytes of physical memory"
                )
            pfn = self._next_frame
            self._next_frame += 1
        self._allocated += 1
        return pfn

    def alloc_contiguous(self, frame_count: int) -> int:
        """Allocate ``frame_count`` physically contiguous frames.

        Returns the first PFN.  Used for 2 MB pages (512 frames) and for
        page table nodes that must be line-aligned.  Contiguous requests
        always come from the bump region, never the free list.
        """
        if frame_count <= 0:
            raise ValueError("frame_count must be positive")
        if self._next_frame + frame_count > self._limit_frame:
            raise OutOfPhysicalMemory(
                f"cannot allocate {frame_count} contiguous frames"
            )
        pfn = self._next_frame
        self._next_frame += frame_count
        self._allocated += frame_count
        return pfn

    def free_frame(self, pfn: int) -> None:
        """Return a frame to the allocator."""
        if pfn < 0 or pfn >= self._limit_frame:
            raise ValueError(f"PFN out of range: {pfn}")
        self._free.append(pfn)
        self._allocated -= 1

    @staticmethod
    def frame_base(pfn: int) -> int:
        """Physical byte address of the start of frame ``pfn``."""
        return pfn << PAGE_SHIFT_4K
