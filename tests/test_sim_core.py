"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Pipe,
    Resource,
    SimulationError,
    Simulator,
    Store,
    TokenBucket,
    quantize_delay,
)


class TestEvents:
    def test_timeout_advances_clock(self, sim):
        def proc():
            yield sim.timeout(100)
            return sim.now

        assert sim.run_process(proc()) == 100

    def test_zero_timeout_is_legal(self, sim):
        def proc():
            yield sim.timeout(0)
            return sim.now

        assert sim.run_process(proc()) == 0

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_event_carries_value(self, sim):
        event = sim.event()

        def producer():
            yield sim.timeout(10)
            event.trigger("payload")

        def consumer():
            value = yield event
            return value

        sim.process(producer())
        assert sim.run_process(consumer()) == "payload"

    def test_event_double_trigger_is_error(self, sim):
        event = sim.event()
        event.trigger(1)
        with pytest.raises(SimulationError):
            event.trigger(2)

    def test_failed_event_raises_in_waiter(self, sim):
        event = sim.event()

        def failer():
            yield sim.timeout(5)
            event.fail(RuntimeError("boom"))

        def waiter():
            yield event

        sim.process(failer())
        proc = sim.process(waiter())
        sim.run()
        assert isinstance(proc.exception, RuntimeError)

    def test_callback_on_already_triggered_event_runs(self, sim):
        event = sim.event()
        event.trigger(42)
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == [42]


class TestProcesses:
    def test_process_return_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return "done"

        assert sim.run_process(proc()) == "done"

    def test_process_waits_on_process(self, sim):
        def inner():
            yield sim.timeout(50)
            return 7

        def outer():
            value = yield sim.process(inner())
            return (value, sim.now)

        assert sim.run_process(outer()) == (7, 50)

    def test_interrupt_wakes_process(self, sim):
        def sleeper():
            try:
                yield sim.timeout(1000)
            except Interrupt as intr:
                return ("interrupted", intr.cause, sim.now)

        proc = sim.process(sleeper())

        def killer():
            yield sim.timeout(10)
            proc.interrupt("reason")

        sim.process(killer())
        sim.run()
        assert proc.value == ("interrupted", "reason", 10)

    def test_unhandled_interrupt_terminates_cleanly(self, sim):
        def sleeper():
            yield sim.timeout(1000)

        proc = sim.process(sleeper())

        def killer():
            yield sim.timeout(5)
            proc.interrupt()

        sim.process(killer())
        sim.run()
        assert proc.triggered
        assert proc.exception is None

    def test_interrupt_of_finished_process_is_noop(self, sim):
        def quick():
            yield sim.timeout(1)

        proc = sim.process(quick())
        sim.run()
        proc.interrupt()  # must not raise
        sim.run()

    def test_yielding_non_event_is_error(self, sim):
        def bad():
            yield "42ns"

        proc = sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()
            if proc.exception:
                raise proc.exception


class TestConditions:
    def test_any_of_returns_first(self, sim):
        def proc():
            first = yield sim.any_of([sim.timeout(30, "slow"),
                                      sim.timeout(10, "fast")])
            return (first.value, sim.now)

        assert sim.run_process(proc()) == ("fast", 10)

    def test_all_of_waits_for_all(self, sim):
        def proc():
            values = yield sim.all_of([sim.timeout(30, "a"),
                                       sim.timeout(10, "b")])
            return (sorted(values), sim.now)

        assert sim.run_process(proc()) == (["a", "b"], 30)

    def test_all_of_empty_triggers_immediately(self, sim):
        def proc():
            values = yield sim.all_of([])
            return values

        assert sim.run_process(proc()) == []


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def trace():
            sim = Simulator()
            log = []

            def worker(name, delay):
                yield sim.timeout(delay)
                log.append((sim.now, name))

            for index in range(10):
                sim.process(worker(f"w{index}", (index * 37) % 5))
            sim.run()
            return log

        assert trace() == trace()

    def test_ties_broken_by_insertion_order(self, sim):
        log = []

        def worker(name):
            yield sim.timeout(10)
            log.append(name)

        for name in ("first", "second", "third"):
            sim.process(worker(name))
        sim.run()
        assert log == ["first", "second", "third"]

    def test_run_until_stops_clock(self, sim):
        def proc():
            yield sim.timeout(1000)

        sim.process(proc())
        sim.run(until=100)
        assert sim.now == 100

    def test_max_events_guard(self, sim):
        def forever():
            while True:
                yield sim.timeout(1)

        sim.process(forever())
        with pytest.raises(SimulationError):
            sim.run(max_events=100)


class TestResource:
    def test_serializes_beyond_capacity(self, sim):
        res = Resource(sim, capacity=1)
        log = []

        def worker(name):
            yield from res.use(10)
            log.append((sim.now, name))

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.run()
        assert log == [(10, "a"), (20, "b")]

    def test_capacity_two_runs_in_parallel(self, sim):
        res = Resource(sim, capacity=2)
        log = []

        def worker(name):
            yield from res.use(10)
            log.append((sim.now, name))

        for name in ("a", "b", "c"):
            sim.process(worker(name))
        sim.run()
        assert log == [(10, "a"), (10, "b"), (20, "c")]

    def test_double_release_detected(self, sim):
        res = Resource(sim, capacity=1)

        def worker():
            grant = yield res.acquire()
            res.release(grant)
            res.release(grant)

        proc = sim.process(worker())
        sim.run()
        assert isinstance(proc.exception, ValueError)

    def test_fifo_ordering_of_waiters(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(name, start):
            yield sim.timeout(start)
            yield from res.use(100)
            order.append(name)

        sim.process(worker("a", 0))
        sim.process(worker("b", 1))
        sim.process(worker("c", 2))
        sim.run()
        assert order == ["a", "b", "c"]


class TestPipe:
    def test_serializes_claims_in_arrival_order(self, sim):
        pipe = Pipe(sim, name="p")
        log = []

        def worker(name, hold, tail):
            # One sleep covers queueing, the hold and a trailing delay.
            yield pipe.claim(hold) + tail
            log.append((sim.now, name))

        sim.process(worker("a", 10, 5))
        sim.process(worker("b", 10, 0))
        sim.run()
        assert log == [(15, "a"), (20, "b")]
        assert pipe.free_at == 20

    def test_zero_length_claim_waits_behind_nothing(self, sim):
        pipe = Pipe(sim)
        assert pipe.claim(100) == 100
        assert pipe.claim(0) == 0
        assert pipe.free_at == 100

    def test_idle_pipe_starts_hold_at_arrival(self, sim):
        pipe = Pipe(sim)
        pipe.claim(10)
        sim.timeout(50)
        sim.run()
        assert pipe.claim(10) == 10
        assert pipe.free_at == 60


class TestStartProcess:
    def test_first_step_runs_in_the_caller(self, sim):
        log = []

        def child():
            log.append(("child", sim.now))
            yield 5
            log.append(("child done", sim.now))

        def parent():
            yield 3
            sim.start_process(child())
            log.append(("parent", sim.now))

        sim.process(parent())
        sim.run()
        assert log == [("child", 3), ("parent", 3), ("child done", 8)]
        assert sim.stats["processes_started"] == 2

    def test_process_finishing_in_first_step_triggers(self, sim):
        def child():
            return 7
            yield  # pragma: no cover - makes this a generator

        proc = sim.start_process(child())
        assert proc.triggered and proc.value == 7

    def test_pushes_count_future_schedules_only(self, sim):
        before = sim.pushes
        sim.schedule_at(0, lambda _payload: None, None)
        assert sim.pushes == before
        sim.schedule_at(10, lambda _payload: None, None)
        sim.timeout(5)
        assert sim.pushes == before + 2


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")

        def getter():
            value = yield store.get()
            return value

        assert sim.run_process(getter()) == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def getter():
            value = yield store.get()
            return (value, sim.now)

        def putter():
            yield sim.timeout(25)
            store.put("y")

        sim.process(putter())
        assert sim.run_process(getter()) == ("y", 25)

    def test_try_get_nonblocking(self, sim):
        store = Store(sim)
        assert store.try_get() is None
        store.put(1)
        assert store.try_get() == 1

    def test_fifo_order(self, sim):
        store = Store(sim)
        for item in (1, 2, 3):
            store.put(item)
        assert [store.try_get() for _ in range(3)] == [1, 2, 3]


class TestTokenBucket:
    def test_burst_allows_immediate_ops(self, sim):
        bucket = TokenBucket(sim, rate_per_sec=1000, burst=5)

        def worker():
            for _ in range(5):
                yield from bucket.throttle()
            return sim.now

        assert sim.run_process(worker()) == 0

    def test_rate_enforced_after_burst(self, sim):
        # 1000 ops/s -> 1 ms per token after the burst drains.
        bucket = TokenBucket(sim, rate_per_sec=1000, burst=1)

        def worker():
            times = []
            for _ in range(3):
                yield from bucket.throttle()
                times.append(sim.now)
            return times

        times = sim.run_process(worker())
        assert times[0] == 0
        assert 900_000 <= times[1] <= 1_100_000
        assert 1_900_000 <= times[2] <= 2_100_000

    def test_cost_larger_than_burst_rejected(self, sim):
        bucket = TokenBucket(sim, rate_per_sec=10, burst=2)

        def worker():
            yield from bucket.throttle(5)

        proc = sim.process(worker())
        sim.run()
        assert isinstance(proc.exception, ValueError)


class TestDelayQuantization:
    def test_fractional_delay_rejected(self, sim):
        with pytest.raises(ValueError, match="quantize_delay"):
            sim.timeout(1.5)

    def test_integral_float_accepted(self, sim):
        def proc():
            yield sim.timeout(5.0)
            return sim.now

        assert sim.run_process(proc()) == 5

    def test_bool_and_intlike_accepted(self, sim):
        def proc():
            yield sim.timeout(True)
            return sim.now

        assert sim.run_process(proc()) == 1

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError, match="negative timeout"):
            sim.timeout(-1)

    def test_quantize_delay_rounds_half_up(self):
        assert quantize_delay(1.4) == 1
        assert quantize_delay(1.5) == 2
        assert quantize_delay(2.5) == 3
        assert quantize_delay(0.0) == 0
        assert quantize_delay(7) == 7


class TestSimulatorStats:
    def test_counters_track_activity(self, sim):
        def child():
            yield sim.timeout(5)

        def parent():
            yield sim.timeout(10)
            yield sim.process(child())

        sim.run_process(parent())
        stats = sim.stats
        assert stats["processes_started"] == 2
        assert stats["events_executed"] > 0
        assert stats["heap_peak"] >= 1

    def test_stats_are_deterministic(self):
        def scenario():
            sim = Simulator()
            resource = Resource(sim, capacity=2)

            def worker(duration):
                yield from resource.use(duration)
                yield sim.timeout(duration)

            for index in range(8):
                sim.process(worker(10 + index))
            sim.run()
            return (sim.now, sim.stats)

        assert scenario() == scenario()


class TestBareDelaySleep:
    """``yield <int ns>`` — the zero-allocation sleep."""

    def test_int_yield_advances_clock(self, sim):
        def proc():
            yield 100
            return sim.now

        assert sim.run_process(proc()) == 100

    def test_zero_delay_yield_is_legal(self, sim):
        def proc():
            yield 0
            return sim.now

        assert sim.run_process(proc()) == 0

    def test_integral_float_yield_accepted(self, sim):
        def proc():
            yield 25.0
            return sim.now

        assert sim.run_process(proc()) == 25

    def test_fractional_float_yield_rejected(self, sim):
        def proc():
            yield 1.5

        proc = sim.process(proc())
        sim.run()
        assert isinstance(proc.exception, SimulationError)

    def test_negative_yield_fails_process(self, sim):
        def proc():
            yield -5

        proc = sim.process(proc())
        sim.run()
        assert isinstance(proc.exception, SimulationError)
        assert sim.failed_processes == [proc]

    def test_schedule_identical_to_timeout(self):
        """Int-yield and Timeout sleeps interleave bit-identically."""

        def scenario(use_int):
            sim = Simulator()
            order = []

            def worker(tag, delay):
                for _ in range(3):
                    if use_int:
                        yield delay
                    else:
                        yield sim.timeout(delay)
                    order.append((tag, sim.now))

            for index in range(4):
                sim.process(worker(index, 10 + index))
            sim.run()
            return (order, sim.now, sim.stats)

        assert scenario(True) == scenario(False)

    def test_interrupt_during_int_sleep(self, sim):
        def sleeper():
            try:
                yield 1_000
            except Interrupt as exc:
                return ("interrupted", exc.cause, sim.now)
            return ("slept", None, sim.now)

        def poker(target):
            yield 40
            target.interrupt("wake")

        proc = sim.process(sleeper())
        sim.process(poker(proc))
        sim.run()
        assert proc.value == ("interrupted", "wake", 40)
        # The stale sleep entry still fires at t=1000 but must not
        # resume the (already finished) process.
        assert sim.now == 1_000
        assert not sim.failed_processes

    def test_stale_sleep_does_not_double_resume(self, sim):
        resumes = []

        def sleeper():
            try:
                yield 1_000
            except Interrupt:
                pass
            yield 2_000  # new sleep; the abandoned one fires at t=1000
            resumes.append(sim.now)

        def poker(target):
            yield 40
            target.interrupt()

        proc = sim.process(sleeper())
        sim.process(poker(proc))
        sim.run()
        assert resumes == [2_040]
        assert proc.triggered

    def test_stale_sleep_vs_event_wait(self, sim):
        """A pending sleep abandoned for an event wait stays dead."""
        event = sim.event()
        woke = []

        def sleeper():
            try:
                yield 5_000
            except Interrupt:
                pass
            value = yield event
            woke.append((value, sim.now))

        def driver(target):
            yield 40
            target.interrupt()
            yield 10_000  # past the abandoned sleep's t=5000 expiry
            event.trigger("go")

        proc = sim.process(sleeper())
        sim.process(driver(proc))
        sim.run()
        assert woke == [("go", 10_040)]
        assert proc.triggered


class TestStaleWaiterPruning:
    """S1: abandoned events must not queue dead callbacks."""

    def test_interrupt_prunes_abandoned_event(self, sim):
        event = sim.event()

        def waiter():
            try:
                yield event
            except Interrupt:
                pass
            yield 10_000

        def driver(target):
            yield 40
            target.interrupt()
            yield 10  # let the interrupt land first
            event.trigger("late")

        proc = sim.process(waiter())
        sim.process(driver(proc))
        sim.run()
        assert proc.triggered
        # The waiter callback was pruned at interrupt time, so the late
        # trigger must find no callbacks at all.
        assert event._callbacks is None

    def test_events_executed_unchanged_by_late_trigger(self):
        """Regression: the late trigger of an abandoned event used to
        queue a useless immediate, inflating events_executed."""

        def scenario(trigger_late):
            sim = Simulator()
            event = sim.event()

            def waiter():
                try:
                    yield event
                except Interrupt:
                    pass
                yield 100

            def driver(target):
                yield 40
                target.interrupt()
                yield 10
                if trigger_late:
                    event.trigger("late")

            proc = sim.process(waiter())
            sim.process(driver(proc))
            sim.run()
            assert proc.triggered
            return sim.stats["events_executed"]

        # Whether the abandoned event ever triggers must not change the
        # number of callbacks the loop runs.
        assert scenario(True) == scenario(False)

    def test_shared_event_other_waiters_unaffected(self, sim):
        event = sim.event()
        woke = []

        def waiter(tag):
            try:
                value = yield event
                woke.append((tag, value))
            except Interrupt:
                pass

        first = sim.process(waiter("a"))
        sim.process(waiter("b"))

        def driver():
            yield 40
            first.interrupt()
            yield 10
            event.trigger("go")

        sim.process(driver())
        sim.run()
        assert woke == [("b", "go")]


class TestAnyOfDetach:
    """S2: AnyOf detaches from losing children once decided."""

    def test_losers_detached_after_winner(self, sim):
        slow = sim.event()
        fast = sim.event()

        def racer():
            first = yield sim.any_of([slow, fast])
            return first.value

        def driver():
            yield 10
            fast.trigger("fast")

        proc = sim.process(racer())
        sim.process(driver())
        sim.run()
        assert proc.value == "fast"
        assert slow._callbacks is None  # detached, not just ignored

    def test_losing_trigger_queues_no_callback(self):
        def scenario(trigger_loser):
            sim = Simulator()
            slow = sim.event()
            fast = sim.event()

            def racer():
                yield sim.any_of([slow, fast])

            def driver():
                yield 10
                fast.trigger("fast")
                yield 10
                if trigger_loser:
                    slow.trigger("slow")

            sim.process(racer())
            sim.process(driver())
            sim.run()
            return sim.stats["events_executed"]

        assert scenario(True) == scenario(False)

    def test_any_of_timeout_losers_still_fire_harmlessly(self, sim):
        def proc():
            first = yield sim.any_of([sim.timeout(30, "slow"),
                                      sim.timeout(10, "fast")])
            return (first.value, sim.now)

        assert sim.run_process(proc()) == ("fast", 10)
        assert sim.now == 30  # loser still drains from the heap
