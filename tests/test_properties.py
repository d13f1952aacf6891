"""Property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings, strategies as st

from repro.memory import HostMemory, Struct, pack_uint, unpack_uint
from repro.nic import (
    MAX_SGE,
    Opcode,
    Sge,
    WQE_SLOT_SIZE,
    Wqe,
    ctrl_word,
    split_ctrl,
    wqe_slots_needed,
)
from repro.sim import Pipe, Resource, Simulator

u16 = st.integers(min_value=0, max_value=(1 << 16) - 1)
u32 = st.integers(min_value=0, max_value=(1 << 32) - 1)
u48 = st.integers(min_value=0, max_value=(1 << 48) - 1)
u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)
addr = st.integers(min_value=0x1000, max_value=(1 << 48) - 1)


class TestCtrlWordProperties:
    @given(u16, u48)
    @settings(max_examples=200, deadline=None)
    def test_split_inverts_pack(self, opcode, wr_id):
        assert split_ctrl(ctrl_word(opcode, wr_id)) == (opcode, wr_id)

    @given(u16, u48, u16, u48)
    @settings(max_examples=100, deadline=None)
    def test_injective(self, op1, id1, op2, id2):
        if (op1, id1) != (op2, id2):
            assert ctrl_word(op1, id1) != ctrl_word(op2, id2)


class TestPackUintProperties:
    @given(st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, width, data):
        value = data.draw(st.integers(
            min_value=0, max_value=(1 << (8 * width)) - 1))
        assert unpack_uint(pack_uint(value, width)) == value

    @given(st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_order_preserving(self, width, data):
        bound = (1 << (8 * width)) - 1
        a = data.draw(st.integers(min_value=0, max_value=bound))
        b = data.draw(st.integers(min_value=0, max_value=bound))
        # Big-endian encodings compare like the integers themselves —
        # the property RedN's CAS-on-bytes comparisons rely on.
        assert (pack_uint(a, width) <= pack_uint(b, width)) == (a <= b)


class TestWqeCodecProperties:
    @given(opcode=st.sampled_from([Opcode.NOOP, Opcode.WRITE,
                                   Opcode.READ, Opcode.CAS,
                                   Opcode.WAIT, Opcode.ENABLE]),
           wr_id=u48, laddr=u64, length=u32, raddr=u64,
           flags=u32, operand0=u64, operand1=u64, wqe_count=u32,
           target=u16,
           num_sge=st.integers(min_value=0, max_value=MAX_SGE))
    @settings(max_examples=100, deadline=None)
    def test_encode_decode_roundtrip(self, opcode, wr_id, laddr, length,
                                     raddr, flags, operand0, operand1,
                                     wqe_count, target, num_sge):
        sges = [Sge(0x1000 + 64 * index, 8 + index, lkey=index)
                for index in range(num_sge)]
        wqe = Wqe(opcode=opcode, wr_id=wr_id, laddr=laddr,
                  length=length, raddr=raddr, flags=flags,
                  operand0=operand0, operand1=operand1,
                  wqe_count=wqe_count, target=target, sges=sges)
        decoded = Wqe.decode(bytes(wqe.encode()))
        for attr in ("opcode", "wr_id", "laddr", "length", "raddr",
                     "flags", "operand0", "operand1", "wqe_count",
                     "target"):
            assert getattr(decoded, attr) == getattr(wqe, attr), attr
        assert decoded.sges == sges

    @given(st.integers(min_value=0, max_value=MAX_SGE))
    @settings(max_examples=30, deadline=None)
    def test_encoded_size_matches_slot_accounting(self, num_sge):
        sges = [Sge(0x1000, 8)] * num_sge
        wqe = Wqe(opcode=Opcode.RECV, sges=sges)
        assert len(wqe.encode()) == wqe_slots_needed(num_sge) \
            * WQE_SLOT_SIZE

    @given(opcode=st.sampled_from([Opcode.NOOP, Opcode.WRITE,
                                   Opcode.READ, Opcode.CAS,
                                   Opcode.WAIT, Opcode.ENABLE]),
           wr_id=u48, laddr=u64, length=u32, raddr=u64,
           flags=u32, operand0=u64, operand1=u64, wqe_count=u32,
           target=u16,
           num_sge=st.integers(min_value=0, max_value=MAX_SGE))
    @settings(max_examples=100, deadline=None)
    def test_compiled_codec_matches_legacy(self, opcode, wr_id, laddr,
                                           length, raddr, flags,
                                           operand0, operand1,
                                           wqe_count, target, num_sge):
        # Differential check: the struct-compiled fast paths must be
        # byte-for-byte and field-for-field identical to the original
        # field-table codec they replaced.
        sges = [Sge(0x2000 + 32 * index, 4 + index, lkey=index * 3)
                for index in range(num_sge)]
        wqe = Wqe(opcode=opcode, wr_id=wr_id, laddr=laddr,
                  length=length, raddr=raddr, flags=flags,
                  operand0=operand0, operand1=operand1,
                  wqe_count=wqe_count, target=target, sges=sges)
        fast_bytes = bytes(wqe.encode())
        assert fast_bytes == bytes(wqe._encode_checked())

        fast = Wqe.decode(fast_bytes)
        legacy = Wqe._decode_legacy(fast_bytes)
        Struct.use_compiled = False
        try:
            legacy_struct = Wqe._decode_legacy(fast_bytes)
        finally:
            Struct.use_compiled = True
        for attr in ("opcode", "wr_id", "laddr", "length", "raddr",
                     "flags", "operand0", "operand1", "wqe_count",
                     "target", "sges"):
            value = getattr(fast, attr)
            assert value == getattr(legacy, attr), attr
            assert value == getattr(legacy_struct, attr), attr


class TestMemoryProperties:
    @given(st.binary(min_size=1, max_size=256), addr)
    @settings(max_examples=60, deadline=None)
    def test_write_read_roundtrip(self, payload, location):
        memory = HostMemory(size=1 << 20)
        location = memory.BASE_ADDR + (location % (1 << 18))
        memory.write(location, payload)
        assert memory.read(location, len(payload)) == payload

    @given(u64, u64, u64)
    @settings(max_examples=80, deadline=None)
    def test_cas_semantics(self, initial, expected, desired):
        memory = HostMemory(size=1 << 16)
        cell = memory.alloc(8)
        memory.write_u64(cell.addr, initial)
        original = memory.compare_and_swap_u64(cell.addr, expected,
                                               desired)
        assert original == initial
        final = memory.read_u64(cell.addr)
        assert final == (desired if initial == expected else initial)

    @given(u64, u64)
    @settings(max_examples=80, deadline=None)
    def test_fetch_add_mod_2_64(self, initial, delta):
        memory = HostMemory(size=1 << 16)
        cell = memory.alloc(8)
        memory.write_u64(cell.addr, initial)
        original = memory.fetch_add_u64(cell.addr, delta)
        assert original == initial
        assert memory.read_u64(cell.addr) == (initial + delta) % (1 << 64)


class TestRingArithmetic:
    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_slot_addr_wraps_into_ring(self, slots, cursor):
        """Monotonic cursors always map inside the ring allocation."""
        from repro.nic.queue import WorkQueue
        from repro.sim import Simulator
        sim = Simulator()
        memory = HostMemory(size=1 << 20)
        from repro.nic.queue import CompletionQueue
        cq = CompletionQueue(sim, 1)
        wq = WorkQueue(sim, memory, 1, "send", slots, cq)
        location = wq.slot_addr(cursor)
        assert wq.ring.addr <= location < wq.ring.end
        assert (location - wq.ring.addr) % WQE_SLOT_SIZE == 0

    @given(st.lists(st.integers(min_value=0, max_value=MAX_SGE),
                    min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_sequential_posts_never_overlap(self, sge_counts):
        """Posted WQEs occupy disjoint, contiguous slot ranges."""
        from repro.nic.queue import CompletionQueue, QueueError, WorkQueue
        from repro.sim import Simulator
        sim = Simulator()
        memory = HostMemory(size=1 << 22)
        cq = CompletionQueue(sim, 1)
        total_slots = sum(wqe_slots_needed(n) for n in sge_counts)
        wq = WorkQueue(sim, memory, 1, "send", total_slots, cq,
                       managed=True)
        cursor = 0
        for count in sge_counts:
            sges = [Sge(0x1000, 8)] * count
            before = wq._post_slot_cursor
            wq.post(Wqe(opcode=Opcode.RECV, sges=sges))
            assert before == cursor
            cursor += wqe_slots_needed(count)
        assert wq._post_slot_cursor == total_slots


class TestPipeProperties:
    @staticmethod
    def _finish_times(arrivals, use_pipe):
        """Each client arrives at its time (ties in list order), holds
        the server for its hold, and records when the hold ends."""
        sim = Simulator()
        pipe = Pipe(sim)
        resource = Resource(sim, capacity=1)
        order, finish = [], {}

        def client(index, at, hold):
            if at:
                yield at
            order.append(index)
            if use_pipe:
                yield pipe.claim(hold)
            else:
                yield from resource.use(hold)
            finish[index] = sim.now

        for index, (at, hold) in enumerate(arrivals):
            sim.process(client(index, at, hold))
        sim.run()
        return order, finish

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=60),
                              st.integers(min_value=1, max_value=25)),
                    min_size=1, max_size=24))
    def test_pipe_matches_capacity_one_resource(self, arrivals):
        pipe_order, pipe_finish = self._finish_times(arrivals, True)
        res_order, res_finish = self._finish_times(arrivals, False)
        assert pipe_order == res_order
        assert pipe_finish == res_finish
