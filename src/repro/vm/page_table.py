"""An x86-64 style 4-level radix page table.

Table nodes are placed in simulated physical memory (one 4 KB frame per
node, 512 8-byte entries), so the address stream of a hardware page table
walk is realistic: the four loads of a 4 KB walk touch
``node_base + 8 * index`` at the PML4, PDP, PD and PT levels, and
consecutive PTEs share 128-byte cache lines (16 to a line) — exactly the
structure the paper's PTW scheduler exploits (Figures 8 and 9).

2 MB large pages set the Page Size bit in their PD entry and terminate
the walk after three loads.

A table can be frozen once it is populated (:meth:`PageTable.freeze`):
mapping and unmapping then raise, so the one table a process shares
across simulations (``repro.core.simulator``) can never change under a
later walker, and it keeps the scheduled walker's batch plans beside
its walk cache (:attr:`PageTable.plans`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.vm.address import (
    LEVEL_NAMES,
    PAGE_SHIFT_2M,
    PAGE_SHIFT_4K,
    PTE_BYTES,
    split_vpn,
    vaddr_to_vpn,
)
from repro.vm.physical_memory import PhysicalMemory
from repro.vm.pte import (
    PTE_FLAG_LARGE,
    PTE_FLAG_PRESENT,
    pack_pte,
    pte_pfn,
    unpack_pte,
)

#: Frames per 2 MB page.
_FRAMES_PER_2M = 1 << (PAGE_SHIFT_2M - PAGE_SHIFT_4K)


class TranslationFault(LookupError):
    """Raised when translating a virtual address with no mapping.

    Carries the faulting site so handlers (and humans reading sweep
    logs) see *where* the walk died, not just that it did:

    Attributes
    ----------
    vpn:
        The 4 KB virtual page number being translated (None when the
        fault is not page-granular).
    vaddr:
        A byte virtual address inside the faulting page (the page base
        when only the VPN is known).
    level / level_name:
        The page-table level whose entry was missing (0 = PML4 through
        3 = PT), or None when no walk was involved (e.g. unmapping an
        unmapped page).
    """

    def __init__(
        self,
        message: str,
        vpn: Optional[int] = None,
        vaddr: Optional[int] = None,
        level: Optional[int] = None,
        level_name: Optional[str] = None,
    ):
        super().__init__(message)
        self.vpn = vpn
        if vaddr is None and vpn is not None:
            vaddr = vpn << PAGE_SHIFT_4K
        self.vaddr = vaddr
        self.level = level
        if level_name is None and level is not None:
            level_name = LEVEL_NAMES[level]
        self.level_name = level_name


@dataclass(frozen=True)
class WalkStep:
    """One memory reference of a hardware page table walk.

    Attributes
    ----------
    level:
        0 for PML4 through 3 for PT (2 for a 2 MB leaf at the PD).
    level_name:
        Human-readable level label.
    load_paddr:
        Physical address the walker loads from.
    index:
        The 9-bit index used at this level.
    entry:
        The 64-bit entry value found there.
    is_leaf:
        True when this entry holds the final translation.
    """

    level: int
    level_name: str
    load_paddr: int
    index: int
    entry: int
    is_leaf: bool


class PageTable:
    """A per-process page table with a hardware-walkable layout.

    Parameters
    ----------
    memory:
        The physical memory to carve table nodes and (on demand) data
        frames from.  A fresh :class:`PhysicalMemory` is created when not
        supplied.
    """

    def __init__(self, memory: Optional[PhysicalMemory] = None):
        self.memory = memory if memory is not None else PhysicalMemory()
        # node physical base -> {index: entry}; entries for interior
        # levels hold child node PFNs, leaves hold data-page PTEs.
        self._nodes: Dict[int, Dict[int, int]] = {}
        # Which entries are interior pointers (paddr of child node).
        self._root = self._new_node()
        self._mapped_4k: Dict[int, int] = {}
        self._mapped_2m: Dict[int, int] = {}
        # Successful walks keyed by vpn.  The radix tree only changes
        # through map/unmap (which clear this), so replaying a walk's
        # (immutable) step tuple is safe.
        self._walk_cache: Dict[int, Tuple[WalkStep, ...]] = {}
        # Interior (non-leaf) steps keyed by entry address, shared by
        # every walk through that entry.  An interior entry never
        # changes once written (nodes are never freed, and unmapping
        # only deletes leaves), so these survive map/unmap.
        self._interior_steps: Dict[int, WalkStep] = {}
        self._frozen = False
        #: The scheduled walker's batch plans keyed by page tuple
        #: (``repro.ptw.scheduler.memoized_plan``); None until the
        #: table is frozen, since a plan is only as stable as the walks
        #: it was built from.
        self.plans: Optional[Dict[Tuple[int, ...], tuple]] = None

    @property
    def cr3(self) -> int:
        """Physical base address of the PML4 (the CR3 register value)."""
        return self._root

    @property
    def pages_mapped(self) -> int:
        """Count of mapped pages (4 KB and 2 MB both count once)."""
        return len(self._mapped_4k) + len(self._mapped_2m)

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` has been called."""
        return self._frozen

    def freeze(self) -> None:
        """Make the table read-only: map/unmap raise from now on.

        Walks and translations keep working (and keep filling the walk
        cache and the batch plans, which only memoize what the frozen
        tree already says).
        """
        if not self._frozen:
            self._frozen = True
            self.plans = {}

    def _check_writable(self) -> None:
        if self._frozen:
            raise RuntimeError("the page table is frozen: it cannot change")

    def _new_node(self) -> int:
        base = PhysicalMemory.frame_base(self.memory.alloc_frame())
        self._nodes[base] = {}
        return base

    @staticmethod
    def _entry_paddr(node_base: int, index: int) -> int:
        return node_base + PTE_BYTES * index

    def map_page(self, vpn: int, pfn: Optional[int] = None) -> int:
        """Map 4 KB virtual page ``vpn``; return the backing PFN.

        Allocates a data frame when ``pfn`` is None.  Remapping an
        already-mapped page is an error (unmap first).
        """
        self._check_writable()
        if vpn in self._mapped_4k:
            raise ValueError(f"virtual page {vpn:#x} is already mapped")
        self._walk_cache.clear()
        indices = split_vpn(vpn)
        node = self._root
        for index in indices[:-1]:
            entries = self._nodes[node]
            child = entries.get(index)
            if child is None:
                child_base = self._new_node()
                entries[index] = pack_pte(child_base >> PAGE_SHIFT_4K)
                node = child_base
            else:
                if unpack_pte(child)[1] & PTE_FLAG_LARGE:
                    raise ValueError(
                        f"virtual page {vpn:#x} lies inside an existing 2 MB mapping"
                    )
                node = pte_pfn(child) << PAGE_SHIFT_4K
        if pfn is None:
            pfn = self.memory.alloc_frame()
        self._nodes[node][indices[-1]] = pack_pte(pfn)
        self._mapped_4k[vpn] = pfn
        return pfn

    def map_large_page(self, vpn_2m: int, pfn: Optional[int] = None) -> int:
        """Map a 2 MB page at 2 MB-page-number ``vpn_2m``; return base PFN."""
        self._check_writable()
        if vpn_2m in self._mapped_2m:
            raise ValueError(f"2 MB page {vpn_2m:#x} is already mapped")
        self._walk_cache.clear()
        # A 2 MB page number is a 4 KB VPN with the PT index stripped.
        indices = split_vpn(vpn_2m << (PAGE_SHIFT_2M - PAGE_SHIFT_4K))[:-1]
        node = self._root
        for index in indices[:-1]:
            entries = self._nodes[node]
            child = entries.get(index)
            if child is None:
                child_base = self._new_node()
                entries[index] = pack_pte(child_base >> PAGE_SHIFT_4K)
                node = child_base
            else:
                node = pte_pfn(child) << PAGE_SHIFT_4K
        pd_entries = self._nodes[node]
        if indices[-1] in pd_entries:
            raise ValueError(
                f"PD slot for 2 MB page {vpn_2m:#x} already holds a mapping"
            )
        if pfn is None:
            pfn = self.memory.alloc_contiguous(_FRAMES_PER_2M)
        pd_entries[indices[-1]] = pack_pte(
            pfn, PTE_FLAG_PRESENT | PTE_FLAG_LARGE
        )
        self._mapped_2m[vpn_2m] = pfn
        return pfn

    def ensure_mapped(self, vpn: int) -> int:
        """Map 4 KB page ``vpn`` on first touch; return its PFN."""
        pfn = self._mapped_4k.get(vpn)
        if pfn is None:
            pfn = self.map_page(vpn)
        return pfn

    def ensure_mapped_large(self, vpn_2m: int) -> int:
        """Map 2 MB page ``vpn_2m`` on first touch; return its base PFN."""
        pfn = self._mapped_2m.get(vpn_2m)
        if pfn is None:
            pfn = self.map_large_page(vpn_2m)
        return pfn

    def unmap_page(self, vpn: int) -> None:
        """Remove a 4 KB mapping and free its data frame."""
        self._check_writable()
        self._walk_cache.clear()
        pfn = self._mapped_4k.pop(vpn, None)
        if pfn is None:
            raise TranslationFault(
                f"virtual page {vpn:#x} (vaddr {vpn << PAGE_SHIFT_4K:#x}) "
                "is not mapped",
                vpn=vpn,
            )
        indices = split_vpn(vpn)
        node = self._root
        for index in indices[:-1]:
            node = pte_pfn(self._nodes[node][index]) << PAGE_SHIFT_4K
        del self._nodes[node][indices[-1]]
        self.memory.free_frame(pfn)

    def walk(self, vpn: int) -> Tuple[WalkStep, ...]:
        """Perform a full hardware walk for 4 KB page ``vpn``.

        Returns the ordered memory references a serial hardware walker
        makes: four steps for a 4 KB mapping, three when the walk hits a
        2 MB leaf at the PD.  Raises :class:`TranslationFault` when an
        entry is missing.

        Successful walks are cached until the next map/unmap; every
        call for the page returns the same (immutable) tuple.
        """
        cached = self._walk_cache.get(vpn)
        if cached is not None:
            return cached
        indices = split_vpn(vpn)
        steps: List[WalkStep] = []
        node = self._root
        for level, index in enumerate(indices):
            entries = self._nodes.get(node)
            entry = entries.get(index) if entries is not None else None
            if entry is None:
                raise TranslationFault(
                    f"page walk for vpn {vpn:#x} (vaddr "
                    f"{vpn << PAGE_SHIFT_4K:#x}) faulted at level {level} "
                    f"({LEVEL_NAMES[level]}): entry {index} not present",
                    vpn=vpn,
                    level=level,
                )
            pfn, flags = unpack_pte(entry)
            is_leaf = level == 3 or bool(flags & PTE_FLAG_LARGE)
            paddr = self._entry_paddr(node, index)
            step = None if is_leaf else self._interior_steps.get(paddr)
            if step is None:
                step = WalkStep(
                    level=level,
                    level_name=LEVEL_NAMES[level],
                    load_paddr=paddr,
                    index=index,
                    entry=entry,
                    is_leaf=is_leaf,
                )
                if not is_leaf:
                    self._interior_steps[paddr] = step
            steps.append(step)
            if is_leaf:
                break
            node = pfn << PAGE_SHIFT_4K
        walk = self._walk_cache[vpn] = tuple(steps)
        return walk

    def translate(self, vaddr: int) -> int:
        """Translate a byte virtual address to its physical address."""
        vpn = vaddr_to_vpn(vaddr)
        steps = self.walk(vpn)
        leaf = steps[-1]
        pfn, flags = unpack_pte(leaf.entry)
        if not flags & PTE_FLAG_PRESENT:
            raise TranslationFault(
                f"leaf not present for vaddr {vaddr:#x} (vpn {vpn:#x}, "
                f"level {leaf.level}, {leaf.level_name})",
                vpn=vpn,
                vaddr=vaddr,
                level=leaf.level,
            )
        if flags & PTE_FLAG_LARGE:
            base = pfn << PAGE_SHIFT_4K
            return base + (vaddr & ((1 << PAGE_SHIFT_2M) - 1))
        return (pfn << PAGE_SHIFT_4K) + (vaddr & ((1 << PAGE_SHIFT_4K) - 1))

    def translate_vpn(self, vpn: int) -> int:
        """Translate a 4 KB virtual page number to its physical frame number."""
        steps = self.walk(vpn)
        leaf = steps[-1]
        pfn, flags = unpack_pte(leaf.entry)
        if flags & PTE_FLAG_LARGE:
            within = vpn & ((1 << (PAGE_SHIFT_2M - PAGE_SHIFT_4K)) - 1)
            return pfn + within
        return pfn

    def leaf_entry_paddr(self, vpn: int) -> int:
        """Physical address of the leaf entry mapping 4 KB page ``vpn``."""
        return self.walk(vpn)[-1].load_paddr

    def iter_mappings(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(vpn, pfn)`` for every 4 KB mapping (excludes 2 MB)."""
        return iter(self._mapped_4k.items())
