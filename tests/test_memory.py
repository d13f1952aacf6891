"""Unit tests for simulated DRAM, layouts, and registration."""

import pytest

from repro.memory import (
    AccessFlags,
    DramExhausted,
    HostMemory,
    MemoryError_,
    ProtectionDomain,
    ProtectionError,
    Struct,
    mask,
    pack_uint,
    unpack_uint,
)


class TestLayoutPrimitives:
    def test_pack_unpack_roundtrip(self):
        for width in (1, 2, 4, 6, 8):
            value = (1 << (8 * width)) - 1
            assert unpack_uint(pack_uint(value, width)) == value

    def test_pack_is_big_endian(self):
        assert pack_uint(0x0102, 2) == b"\x01\x02"

    def test_pack_range_check(self):
        with pytest.raises(ValueError):
            pack_uint(256, 1)
        with pytest.raises(ValueError):
            pack_uint(-1, 4)

    def test_mask(self):
        assert mask(48) == 0xFFFFFFFFFFFF


class TestStruct:
    def test_pack_and_unpack(self):
        record = Struct("r", 16, [("a", 0, 4), ("b", 4, 8), ("c", 12, 2)])
        buf = record.pack(a=1, b=0xDEADBEEF, c=7)
        assert record.unpack(buf) == {"a": 1, "b": 0xDEADBEEF, "c": 7}

    def test_gaps_are_zero(self):
        record = Struct("r", 8, [("a", 0, 2)])
        buf = record.pack(a=0xFFFF)
        assert bytes(buf[2:]) == bytes(6)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            Struct("bad", 8, [("a", 0, 4), ("b", 2, 4)])

    def test_field_past_end_rejected(self):
        with pytest.raises(ValueError):
            Struct("bad", 4, [("a", 0, 8)])

    def test_duplicate_field_rejected(self):
        with pytest.raises(ValueError):
            Struct("bad", 8, [("a", 0, 2), ("a", 2, 2)])

    def test_field_offset_lookup(self):
        record = Struct("r", 8, [("a", 0, 2), ("b", 4, 4)])
        assert record.field_offset("b") == 4
        assert record.field_width("b") == 4

    def test_pack_into_existing_buffer(self):
        record = Struct("r", 8, [("x", 0, 4)])
        buf = bytearray(16)
        record.pack_into(buf, 8, "x", 0xAABBCCDD)
        assert buf[8:12] == b"\xaa\xbb\xcc\xdd"


class TestHostMemory:
    def test_alloc_read_write(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(64)
        memory.write(allocation.addr, b"abc")
        assert memory.read(allocation.addr, 3) == b"abc"

    def test_alloc_alignment(self):
        memory = HostMemory(size=1 << 20)
        memory.alloc(3)
        aligned = memory.alloc(64, align=64)
        assert aligned.addr % 64 == 0

    def test_null_region_is_protected(self):
        memory = HostMemory(size=1 << 20)
        with pytest.raises(MemoryError_):
            memory.read(0, 8)

    def test_out_of_memory(self):
        memory = HostMemory(size=8192)
        with pytest.raises(MemoryError_):
            memory.alloc(1 << 20)

    def test_negative_length_rejected(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(64)
        with pytest.raises(MemoryError_, match="negative access length"):
            memory.read(allocation.addr, -1)
        with pytest.raises(MemoryError_, match="negative access length"):
            memory.view(allocation.addr, -8)

    def test_zero_copy_view_aliases_dram(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(64)
        memory.write(allocation.addr, b"redn")
        view = memory.view(allocation.addr, 4)
        assert bytes(view) == b"redn"
        # The view aliases the backing store: later writes show through.
        memory.write(allocation.addr, b"RDMA")
        assert bytes(view) == b"RDMA"

    def test_generation_range_tracks_writes(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(256)
        gen_range = memory.register_generation_range(
            allocation.addr, 256, granularity=64)
        assert gen_range.gens == [0, 0, 0, 0]

        # A one-slot write bumps exactly the chunk it touches.
        memory.write(allocation.addr + 64, b"\xff" * 64)
        assert gen_range.gens == [0, 1, 0, 0]

        # write_u64 straddling a chunk boundary bumps both neighbours.
        memory.write_u64(allocation.addr + 124, 7)
        assert gen_range.gens == [0, 2, 1, 0]

        # fill() bumps every chunk it overlaps.
        memory.fill(allocation.addr, 256)
        assert gen_range.gens == [1, 3, 2, 1]

        # Writes outside the registered range leave it untouched.
        other = memory.alloc(64)
        memory.write(other.addr, b"x")
        assert gen_range.gens == [1, 3, 2, 1]

    def test_u64_roundtrip_big_endian(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(8)
        memory.write_u64(allocation.addr, 0x0102030405060708)
        assert memory.read(allocation.addr, 8) == bytes(range(1, 9))
        assert memory.read_u64(allocation.addr) == 0x0102030405060708

    def test_cas_success_and_failure(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(8)
        memory.write_u64(allocation.addr, 10)
        assert memory.compare_and_swap_u64(allocation.addr, 10, 99) == 10
        assert memory.read_u64(allocation.addr) == 99
        assert memory.compare_and_swap_u64(allocation.addr, 10, 7) == 99
        assert memory.read_u64(allocation.addr) == 99  # unchanged

    def test_fetch_add_wraps(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(8)
        memory.write_u64(allocation.addr, (1 << 64) - 1)
        assert memory.fetch_add_u64(allocation.addr, 2) == (1 << 64) - 1
        assert memory.read_u64(allocation.addr) == 1

    def test_free_poisons(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(16)
        memory.write(allocation.addr, b"\x00" * 16)
        memory.free(allocation)
        assert memory.read(allocation.addr, 16) == b"\xde" * 16

    def test_double_free_rejected(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(16)
        memory.free(allocation)
        with pytest.raises(MemoryError_):
            memory.free(allocation)

    def test_owner_reclaim(self):
        memory = HostMemory(size=1 << 20)
        a1 = memory.alloc(16, owner="proc1")
        a2 = memory.alloc(16, owner="proc2")
        reclaimed = memory.reclaim_owner("proc1")
        assert reclaimed == [a1]
        assert a1.freed and not a2.freed

    def test_ownership_transfer_shields_from_reclaim(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(16, owner="child")
        memory.transfer_ownership(allocation, "hull-parent")
        assert memory.reclaim_owner("child") == []
        assert not allocation.freed


class TestAllocatorReuse:
    def test_reused_block_reads_zeros(self):
        memory = HostMemory(size=1 << 20)
        first = memory.alloc(256, label="a")
        memory.write(first.addr, b"\xab" * 256)
        memory.free(first)
        again = memory.alloc(256, label="b")
        assert again.addr == first.addr
        assert memory.read(again.addr, 256) == bytes(256)

    def test_free_keeps_poison_generation_bump_and_store_hook(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(128, align=64)
        gens = memory.register_generation_range(allocation.addr, 128)
        stores = []
        memory.add_store_hook(lambda addr, length: stores.append(
            (addr, length)))
        memory.free(allocation)
        assert memory.read(allocation.addr, 128) == b"\xde" * 128
        assert gens.gens == [1, 1]
        assert stores == [(allocation.addr, 128)]
        # The range left with its block: a later write there bumps
        # nothing, and the range may be registered afresh.
        assert memory._gen_ranges == []
        reused = memory.alloc(128, align=64)
        memory.write(reused.addr, b"x")
        assert gens.gens == [1, 1]
        memory.register_generation_range(reused.addr, 128)

    def test_double_free_after_reuse_raises(self):
        memory = HostMemory(size=1 << 20)
        first = memory.alloc(64)
        memory.free(first)
        second = memory.alloc(64)
        assert second.addr == first.addr
        with pytest.raises(MemoryError_, match="double free"):
            memory.free(first)
        assert not second.freed
        assert memory.read(second.addr, 64) == bytes(64)

    def test_reuse_order_is_deterministic(self):
        def run():
            memory = HostMemory(size=1 << 20)
            blocks = [memory.alloc(size, label=f"b{index}")
                      for index, size in enumerate([64, 128, 64, 64, 128])]
            for index in (3, 0, 4, 2):
                memory.free(blocks[index])
            return [memory.alloc(size).addr for size in (64, 64, 128, 64)]

        first = run()
        assert first == run()
        # The last block freed of a size is reused first.
        memory = HostMemory(size=1 << 20)
        a, b = memory.alloc(64), memory.alloc(64)
        memory.free(a)
        memory.free(b)
        assert memory.alloc(64).addr == b.addr
        assert memory.alloc(64).addr == a.addr

    def test_reused_blocks_keep_wqe_slot_alignment(self):
        memory = HostMemory(size=1 << 20)
        # An 8-aligned block of a ring's size must not serve a ring.
        memory.alloc(8)
        unaligned = memory.alloc(128, align=8)
        assert unaligned.addr % 64
        memory.free(unaligned)
        ring = memory.alloc(128, align=64)
        assert ring.addr % 64 == 0 and ring.addr != unaligned.addr
        memory.free(ring)
        again = memory.alloc(128, align=64)
        assert again.addr == ring.addr and again.addr % 64 == 0

    def test_live_record_holds_live_blocks_only(self):
        memory = HostMemory(size=1 << 20)
        for _ in range(100):
            memory.free(memory.alloc(64, owner="req"))
        kept = memory.alloc(32, owner="req")
        assert memory.live_allocations == 1
        assert memory.live_bytes == 32
        assert memory.high_water <= 64 + 32 + 8
        assert memory.allocations_owned_by("req") == [kept]
        assert memory.reclaim_owner("req") == [kept]
        assert memory.live_allocations == 0


class TestMemoryMisuse:
    def test_exhaustion_is_typed_and_names_its_cause(self):
        memory = HostMemory(size=8192, name="srv-dram")
        memory.alloc(1024, owner="proc#7", label="slab")
        with pytest.raises(DramExhausted) as info:
            memory.alloc(1 << 20, owner="proc#7", label="ring")
        error = info.value
        assert isinstance(error, MemoryError_)
        assert (error.memory, error.owner, error.label) == (
            "srv-dram", "proc#7", "ring")
        assert (error.size, error.capacity, error.live_bytes) == (
            1 << 20, 8192, 1024)
        for part in ("srv-dram", "proc#7", "'ring'", str(1 << 20), "8192",
                     "1024 bytes live"):
            assert part in str(error)

    def test_free_of_foreign_allocation_rejected(self):
        memory = HostMemory(size=1 << 20, name="a")
        other = HostMemory(size=1 << 20, name="b")
        mine = memory.alloc(64)
        foreign = other.alloc(64)
        assert foreign.addr == mine.addr
        with pytest.raises(MemoryError_, match="not live in a"):
            memory.free(foreign)
        assert not mine.freed and not foreign.freed

    def test_overlapping_generation_range_rejected(self):
        memory = HostMemory(size=1 << 20)
        allocation = memory.alloc(512, align=64)
        memory.register_generation_range(allocation.addr + 128, 128)
        for addr, length in ((allocation.addr, 192),
                             (allocation.addr + 192, 128),
                             (allocation.addr + 128, 64),
                             (allocation.addr + 64, 256)):
            with pytest.raises(MemoryError_, match="overlaps"):
                memory.register_generation_range(addr, length)
        memory.register_generation_range(allocation.addr, 128)
        memory.register_generation_range(allocation.addr + 256, 256)


class TestProtection:
    def _pd(self):
        memory = HostMemory(size=1 << 20)
        return memory, ProtectionDomain(memory)

    def test_register_and_validate(self):
        memory, pd = self._pd()
        allocation = memory.alloc(64)
        region = pd.register(allocation)
        found = pd.validate_remote(region.rkey, allocation.addr, 64,
                                   AccessFlags.REMOTE_WRITE)
        assert found is region

    def test_unknown_rkey_rejected(self):
        memory, pd = self._pd()
        with pytest.raises(ProtectionError):
            pd.lookup_rkey(0xBAD)

    def test_out_of_bounds_rejected(self):
        memory, pd = self._pd()
        allocation = memory.alloc(64)
        region = pd.register(allocation)
        with pytest.raises(ProtectionError):
            pd.validate_remote(region.rkey, allocation.addr + 32, 64,
                               AccessFlags.REMOTE_READ)

    def test_missing_permission_rejected(self):
        memory, pd = self._pd()
        allocation = memory.alloc(64)
        region = pd.register(allocation, access=AccessFlags.REMOTE_READ)
        with pytest.raises(ProtectionError):
            pd.validate_remote(region.rkey, allocation.addr, 8,
                               AccessFlags.REMOTE_WRITE)

    def test_deregistered_region_rejected(self):
        memory, pd = self._pd()
        allocation = memory.alloc(64)
        region = pd.register(allocation)
        pd.deregister(region)
        with pytest.raises(ProtectionError):
            pd.validate_remote(region.rkey, allocation.addr, 8,
                               AccessFlags.REMOTE_READ)

    def test_freed_allocation_invalidates_region(self):
        memory, pd = self._pd()
        allocation = memory.alloc(64)
        region = pd.register(allocation)
        memory.free(allocation)
        with pytest.raises(ProtectionError):
            region.check(allocation.addr, 8, AccessFlags.REMOTE_READ)

    def test_invalidate_all(self):
        memory, pd = self._pd()
        regions = [pd.register(memory.alloc(32)) for _ in range(3)]
        pd.invalidate_all()
        for region in regions:
            assert region.invalidated
