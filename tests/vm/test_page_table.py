"""The 4-level page table and its hardware-walkable layout."""

import pytest

from repro.vm.address import PAGE_SHIFT_4K, PTE_BYTES, compose_vpn
from repro.vm.page_table import PageTable, TranslationFault
from repro.vm.pte import PTE_FLAG_LARGE, unpack_pte


class TestMapping:
    def test_map_and_translate(self, page_table):
        pfn = page_table.map_page(0x1234)
        assert page_table.translate_vpn(0x1234) == pfn

    def test_translate_byte_address(self, page_table):
        pfn = page_table.map_page(7)
        vaddr = (7 << PAGE_SHIFT_4K) + 123
        assert page_table.translate(vaddr) == (pfn << PAGE_SHIFT_4K) + 123

    def test_explicit_pfn(self, page_table):
        page_table.map_page(9, pfn=4242)
        assert page_table.translate_vpn(9) == 4242

    def test_double_map_rejected(self, page_table):
        page_table.map_page(5)
        with pytest.raises(ValueError):
            page_table.map_page(5)

    def test_ensure_mapped_idempotent(self, page_table):
        first = page_table.ensure_mapped(11)
        assert page_table.ensure_mapped(11) == first

    def test_unmap(self, page_table):
        page_table.map_page(3)
        page_table.unmap_page(3)
        with pytest.raises(TranslationFault):
            page_table.translate_vpn(3)

    def test_unmap_unmapped_rejected(self, page_table):
        with pytest.raises(TranslationFault):
            page_table.unmap_page(99)

    def test_translate_unmapped_faults(self, page_table):
        with pytest.raises(TranslationFault):
            page_table.translate(0xDEAD000)

    def test_pages_mapped_counter(self, page_table):
        for vpn in range(4):
            page_table.map_page(vpn)
        assert page_table.pages_mapped == 4

    def test_iter_mappings(self, page_table):
        page_table.map_page(1, pfn=100)
        page_table.map_page(2, pfn=200)
        assert dict(page_table.iter_mappings()) == {1: 100, 2: 200}


class TestWalkStructure:
    def test_walk_has_four_levels(self, page_table):
        page_table.map_page(0x123456789 >> 12 if False else 0x12345)
        steps = page_table.walk(0x12345)
        assert [s.level_name for s in steps] == ["PML4", "PDP", "PD", "PT"]
        assert steps[-1].is_leaf

    def test_walk_addresses_are_entry_slots(self, page_table):
        vpn = compose_vpn(1, 2, 3, 4)
        page_table.map_page(vpn)
        steps = page_table.walk(vpn)
        for step, index in zip(steps, (1, 2, 3, 4)):
            assert step.load_paddr % 4096 == index * PTE_BYTES

    def test_walk_starts_at_cr3(self, page_table):
        vpn = compose_vpn(1, 2, 3, 4)
        page_table.map_page(vpn)
        steps = page_table.walk(vpn)
        assert steps[0].load_paddr == page_table.cr3 + 1 * PTE_BYTES

    def test_adjacent_ptes_share_cache_line(self, page_table):
        # 16 consecutive PTEs per 128-byte line: the PTW scheduler's
        # second coalescing opportunity (Section 6.3).
        base = compose_vpn(0xB9, 0x0C, 0xAC, 0x00)
        page_table.map_page(base + 3)
        page_table.map_page(base + 4)
        addr3 = page_table.leaf_entry_paddr(base + 3)
        addr4 = page_table.leaf_entry_paddr(base + 4)
        assert addr3 // 128 == addr4 // 128
        assert addr3 != addr4

    def test_same_1gb_region_shares_upper_levels(self, page_table):
        a = compose_vpn(0xB9, 0x0C, 0xAC, 0x03)
        b = compose_vpn(0xB9, 0x0C, 0xAD, 0x05)
        page_table.map_page(a)
        page_table.map_page(b)
        wa, wb = page_table.walk(a), page_table.walk(b)
        assert wa[0].load_paddr == wb[0].load_paddr  # same PML4 entry
        assert wa[1].load_paddr == wb[1].load_paddr  # same PDP entry
        assert wa[2].load_paddr != wb[2].load_paddr  # different PD entries

    def test_walks_share_interior_steps(self, page_table):
        a = compose_vpn(0xB9, 0x0C, 0xAC, 0x03)
        b = compose_vpn(0xB9, 0x0C, 0xAC, 0x04)
        page_table.map_page(a)
        wa = page_table.walk(a)
        page_table.map_page(b)  # clears the walk cache, not the steps
        wb = page_table.walk(b)
        assert all(x is y for x, y in zip(wa[:3], wb[:3]))
        assert wa[3] is not wb[3] and wa[3].load_paddr != wb[3].load_paddr
        page_table.unmap_page(a)
        assert page_table.walk(b)[:3] == wb[:3]

    def test_walk_fault_reports_level(self, page_table):
        with pytest.raises(TranslationFault, match="PML4"):
            page_table.walk(compose_vpn(400, 0, 0, 0))


class TestLargePages:
    def test_map_large_and_translate(self, page_table):
        base_pfn = page_table.map_large_page(3)
        vaddr = (3 << 21) + 0x12345
        assert page_table.translate(vaddr) == (base_pfn << 12) + 0x12345

    def test_large_walk_is_three_loads(self, page_table):
        page_table.map_large_page(3)
        steps = page_table.walk(3 << 9)
        assert len(steps) == 3
        assert steps[-1].level_name == "PD"
        assert unpack_pte(steps[-1].entry)[1] & PTE_FLAG_LARGE

    def test_translate_vpn_inside_large_page(self, page_table):
        base_pfn = page_table.map_large_page(5)
        assert page_table.translate_vpn((5 << 9) + 17) == base_pfn + 17

    def test_small_page_inside_large_rejected(self, page_table):
        page_table.map_large_page(2)
        with pytest.raises(ValueError):
            page_table.map_page((2 << 9) + 1)

    def test_double_large_map_rejected(self, page_table):
        page_table.map_large_page(2)
        with pytest.raises(ValueError):
            page_table.map_large_page(2)

    def test_large_page_frames_contiguous(self, page_table):
        pfn = page_table.map_large_page(1)
        assert pfn % 1 == 0  # base is a valid frame number
        # 512 frames are reserved: the next small mapping lands after.
        nxt = page_table.map_page(0x999)
        assert nxt >= pfn + 512
