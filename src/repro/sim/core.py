"""Discrete-event simulation kernel.

Every component of the RedN reproduction — RNIC processing units, PCIe
transactions, network links, host CPU threads — is modelled as a *process*:
a Python generator driven by a :class:`Simulator`. Processes advance
simulated time by yielding waitables:

* :class:`Timeout` — resume after a fixed delay,
* :class:`Event` — resume when some other process triggers the event,
* another :class:`Process` — resume when that process finishes,
* :class:`AnyOf` / :class:`AllOf` — compositions of the above.

Time is measured in **integer nanoseconds**. Using integers keeps event
ordering exact and runs deterministic: two simulations with the same seed
produce identical traces, which the test suite relies on heavily.

The kernel is intentionally small and has no external dependencies. It is
loosely shaped after SimPy's API so that readers familiar with SimPy can
follow the device models, but it is implemented from scratch for this
project.

Fast path
---------

The hot loop splits pending work into two queues:

* a binary heap ordered by ``(time, seq)`` for callbacks scheduled in the
  future, and
* a FIFO "immediate" deque for callbacks scheduled *at the current time*
  (event triggers, process starts, zero-delay timeouts).

This preserves the original total order exactly. Every heap entry at time
``T`` was necessarily pushed while ``now < T`` — once the clock reaches
``T``, a schedule at ``T`` lands in the deque instead — so all heap
entries at ``now`` carry sequence numbers smaller than any deque entry,
and draining heap-at-now before the deque replays the old ``(time, seq)``
order while sparing same-time callbacks the O(log n) heap round-trip.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from ..obs.probe import Probe

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Interrupt",
    "SimulationError",
    "quantize_delay",
]


class SimulationError(Exception):
    """Raised for kernel-level misuse (e.g. re-triggering an event)."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries an arbitrary payload supplied by the
    interrupter (for example, a preemption notice from the CPU scheduler).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


def quantize_delay(delay: float) -> int:
    """Round a real-valued delay to integer nanoseconds, half-up.

    :class:`Timeout` rejects non-integral delays because silent
    truncation changes event order between runs. Timing models that
    genuinely produce fractional nanoseconds opt in to rounding by
    calling this explicitly.
    """
    return int(delay // 1) + (1 if delay % 1 >= 0.5 else 0)


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *untriggered*. Calling :meth:`trigger` (or
    :meth:`fail`) moves it to the triggered state and schedules every
    waiting process to resume at the current simulation time. Triggering
    twice is an error — events are strictly one-shot, mirroring RDMA
    completion semantics where a completion fires exactly once.
    """

    __slots__ = ("sim", "name", "triggered", "value", "exception",
                 "_callbacks")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.triggered = False
        self.value: Any = None
        self.exception: Optional[BaseException] = None
        # Waiter storage is tri-state to avoid allocating a list for the
        # ubiquitous zero/one-waiter cases: None (no waiters), a bare
        # callable (one waiter), or a list (two or more).
        self._callbacks: Any = None

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name or id(self):x} {state}>"

    @property
    def ok(self) -> bool:
        """True once the event triggered successfully (no exception)."""
        return self.triggered and self.exception is None

    def trigger(self, value: Any = None) -> "Event":
        """Mark the event as having happened, waking all waiters."""
        if self.triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self.triggered = True
        self.value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            immediate = self.sim._immediate
            if callbacks.__class__ is list:
                for callback in callbacks:
                    immediate.append((callback, self))
            else:
                immediate.append((callbacks, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event as failed; waiters see ``exception`` raised."""
        if self.triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self.triggered = True
        self.exception = exception
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            immediate = self.sim._immediate
            if callbacks.__class__ is list:
                for callback in callbacks:
                    immediate.append((callback, self))
            else:
                immediate.append((callbacks, self))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event triggers.

        If the event already triggered the callback is queued to run at
        the current simulation time (not synchronously), preserving the
        invariant that callbacks never run inside the caller's frame.
        """
        if self.triggered:
            self.sim._immediate.append((callback, self))
            return
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = callback
        elif callbacks.__class__ is list:
            callbacks.append(callback)
        else:
            self._callbacks = [callbacks, callback]

    def _discard_callback(self, callback: Callable[["Event"], None]) -> None:
        """Detach a waiter that no longer cares (abandoned wait).

        Without this, an abandoned event keeps the dead callback and
        queues a useless immediate when it eventually triggers. Uses
        ``==`` (not ``is``): bound methods compare by identity of their
        underlying function and instance but are re-created per access.
        """
        callbacks = self._callbacks
        if callbacks is None:
            return
        if callbacks.__class__ is list:
            try:
                callbacks.remove(callback)
            except ValueError:
                return
            if len(callbacks) == 1:
                self._callbacks = callbacks[0]
        elif callbacks == callback:
            self._callbacks = None


class Timeout(Event):
    """An event that triggers automatically after ``delay`` nanoseconds.

    ``delay`` must be integral: integer nanoseconds are what keep runs
    deterministic, and silently truncating a float changes event order.
    Integral floats (``5.0``) are accepted; fractional delays raise
    ``ValueError`` — round explicitly with :func:`quantize_delay` where a
    timing model really produces fractions.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None):
        if type(delay) is not int:
            if isinstance(delay, float) and delay.is_integer():
                delay = int(delay)
            elif isinstance(delay, int):  # bool / IntEnum
                delay = int(delay)
            else:
                raise ValueError(
                    f"non-integral timeout delay {delay!r}: simulated time "
                    f"is integer ns; round explicitly with quantize_delay()")
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        self.sim = sim
        self.name = ""
        self.triggered = False
        self.value = None
        self.exception = None
        self._callbacks = None
        self.delay = delay
        if delay:
            sim._push_future(sim.now + delay, self._fire, value)
        else:
            sim._immediate.append((self._fire, value))

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<Event timeout({self.delay}) {state}>"

    def _fire(self, value: Any) -> None:
        # Runs from the event loop itself, never inside a process frame,
        # so waiter callbacks are safe to run synchronously — this saves
        # a full dispatch round-trip per elapsed timeout (the single most
        # common event in any simulation).
        if self.triggered:
            return
        self.triggered = True
        self.value = value
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            if callbacks.__class__ is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)


class _Condition(Event):
    """Base for AnyOf/AllOf: completes based on a set of child events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = len(self.events)
        if not self.events:
            self.trigger([])
            return
        for event in self.events:
            event.add_callback(self._child_done)

    def _child_done(self, event: Event) -> None:
        raise NotImplementedError

    def _values(self) -> List[Any]:
        return [e.value for e in self.events if e.triggered]


class AnyOf(_Condition):
    """Triggers when the first of its child events triggers."""

    __slots__ = ()

    def _child_done(self, event: Event) -> None:
        if self.triggered:
            return
        if event.exception is not None:
            self.fail(event.exception)
        else:
            self.trigger(event)
        # Detach from the losing children: once the race is decided
        # their triggers have no observer here, so leaving the callback
        # behind only costs a dead dispatch (and keeps this condition
        # alive) when they eventually fire.
        callback = self._child_done
        for child in self.events:
            if child is not event and not child.triggered:
                child._discard_callback(callback)


class AllOf(_Condition):
    """Triggers when every child event has triggered."""

    __slots__ = ()

    def _child_done(self, event: Event) -> None:
        if self.triggered:
            return
        if event.exception is not None:
            self.fail(event.exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.trigger(self._values())


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running generator, driven by the simulator.

    A process *is* an event: it triggers (with the generator's return
    value) when the generator finishes, so processes can wait on each
    other simply by yielding the target process.
    """

    __slots__ = ("_generator", "_waiting_on", "_sleep_token")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = "", step_now: bool = False):
        super().__init__(sim, name=name or getattr(generator, "__name__", ""))
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        # Monotonic token identifying the current bare-delay sleep (a
        # ``yield <int ns>``); any other resumption bumps it so a stale
        # sleep entry left on the heap cannot resume the process twice.
        self._sleep_token = 0
        if step_now:
            # The creator's frame takes the first step (see
            # Simulator.start_process).
            self._step(None, None)
        else:
            # Kick off on the next kernel step at the current time.
            sim._immediate.append((self._resume, (None, None)))

    def __repr__(self) -> str:
        state = "done" if self.triggered else "running"
        return f"<Process {self.name} {state}>"

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is a no-op, mirroring the
        convention that cancellation of completed work is harmless.
        """
        if self.triggered:
            return
        self.sim._immediate.append((self._resume, (None, Interrupt(cause))))

    def abandon(self) -> None:
        """Drop a process parked on an event that will never matter.

        Unlike :meth:`interrupt`, nothing is scheduled: the process
        detaches from the event it waits on and its generator closes in
        place, so it never runs again.
        """
        waiting = self._waiting_on
        if waiting is not None:
            waiting._discard_callback(self._on_event)
            self._waiting_on = None
        self._generator.close()

    def _resume(self, payload) -> None:
        if self.triggered:
            return
        send_value, throw_exc = payload
        waiting = self._waiting_on
        if waiting is not None:
            # Re-targeting (e.g. an interrupt) abandons the old wait:
            # prune our callback so the event's eventual trigger does
            # not queue a dead immediate.
            waiting._discard_callback(self._on_event)
            self._waiting_on = None
        self._sleep_token += 1
        self._step(send_value, throw_exc)

    def _step(self, send_value, throw_exc) -> None:
        try:
            if throw_exc is None:
                target = self._generator.send(send_value)
            else:
                target = self._generator.throw(throw_exc)
        except StopIteration as stop:
            self.trigger(stop.value)
            return
        except Interrupt:
            # Process chose not to handle its interrupt: treat as clean
            # termination. This lets models kill worker loops without
            # every loop needing a try/except.
            self.trigger(None)
            return
        except Exception as exc:
            # A crashed process fails its event (waiters see the
            # exception) and is recorded so errors cannot pass silently.
            self.fail(exc)
            self.sim.failed_processes.append(self)
            return
        if target.__class__ is int:
            # Bare-delay sleep: ``yield ns`` resumes the process after
            # ``ns`` nanoseconds with no Timeout/Event allocated at all
            # — one heap tuple replaces the object, its callback slot
            # and the add_callback round-trip. Scheduling is position-
            # identical to ``yield Timeout(sim, ns)`` (same sequence
            # number consumed here, same single loop callback at fire
            # time), so runs are bit-identical either way.
            if target < 0:
                exc = SimulationError(
                    f"process {self.name} yielded negative delay {target}")
                self.fail(exc)
                self.sim.failed_processes.append(self)
                return
            self._sleep_token = token = self._sleep_token + 1
            sim = self.sim
            if target:
                sim._push_future(sim.now + target, self._sleep_fire, token)
            else:
                sim._immediate.append((self._sleep_fire, token))
        elif isinstance(target, Event):
            # Inlined _wait_on/add_callback: this is the hottest edge in
            # the kernel (every yield of every process lands here).
            self._waiting_on = target
            if target.triggered:
                self.sim._immediate.append((self._on_event, target))
            else:
                callbacks = target._callbacks
                if callbacks is None:
                    target._callbacks = self._on_event
                elif callbacks.__class__ is list:
                    callbacks.append(self._on_event)
                else:
                    target._callbacks = [callbacks, self._on_event]
        elif isinstance(target, float) and target.is_integer():
            # Integral float delay: accepted exactly like Timeout does.
            self._step_sleep_float(target)
        else:
            exc = SimulationError(
                f"process {self.name} yielded {target!r}, not an Event")
            self.fail(exc)
            self.sim.failed_processes.append(self)

    def _step_sleep_float(self, target: float) -> None:
        delay = int(target)
        if delay < 0:
            exc = SimulationError(
                f"process {self.name} yielded negative delay {delay}")
            self.fail(exc)
            self.sim.failed_processes.append(self)
            return
        self._sleep_token = token = self._sleep_token + 1
        sim = self.sim
        if delay:
            sim._push_future(sim.now + delay, self._sleep_fire, token)
        else:
            sim._immediate.append((self._sleep_fire, token))

    def _sleep_fire(self, token: int) -> None:
        if (self.triggered or token != self._sleep_token
                or self._waiting_on is not None):
            # The process finished, was interrupted, or moved on to a
            # different wait while this sleep was pending.
            return
        self._step(None, None)

    def _wait_on(self, target: Event) -> None:
        self._waiting_on = target
        target.add_callback(self._on_event)

    def _on_event(self, event: Event) -> None:
        if self.triggered:
            return
        if self._waiting_on is not event:
            # A stale callback from an event we abandoned (e.g. after an
            # interrupt re-targeted the process). Ignore it.
            return
        self._waiting_on = None
        exception = event.exception
        if exception is None:
            self._step(event.value, None)
        else:
            self._step(None, exception)


class Simulator:
    """The event loop: a time-ordered heap plus an immediate deque.

    Determinism: ties in time are broken by insertion order. Future
    callbacks carry a monotonically increasing sequence number on the
    heap; same-time callbacks go to a FIFO deque which is drained after
    the heap entries already pending at the current time (those are
    always older — see the module docstring), so runs are exactly
    reproducible.
    """

    def __init__(self):
        self.now: int = 0
        self._heap: List = []
        self._immediate: deque = deque()
        #: Future callbacks pushed so far; also each heap entry's
        #: tie-breaking sequence number. Readable: a caller that saw
        #: it unchanged since its own push knows nothing was scheduled
        #: in between (:meth:`repro.nic.queue.WorkQueue.doorbell`).
        self.pushes = 0
        self._processes_started = 0
        self._events_executed = 0
        self._heap_peak = 0
        #: Processes that died with an unhandled exception. Inspect (or
        #: assert empty) in tests — failures never crash the kernel.
        self.failed_processes: List["Process"] = []
        #: This simulation's :class:`repro.obs.probe.Probe`. The kernel
        #: never emits through it; device models announce their events
        #: there and attached obs sinks receive them.
        self.probe = Probe(self)
        self._metrics = None

    # -- scheduling ------------------------------------------------------

    def schedule_at(self, time: int, callback: Callable, payload: Any) -> None:
        """Run ``callback(payload)`` at simulated ``time`` (ns)."""
        now = self.now
        if time == now:
            self._immediate.append((callback, payload))
            return
        if time < now:
            raise SimulationError(
                f"cannot schedule at {time} < now {self.now}")
        self._push_future(int(time), callback, payload)

    def _push_future(self, time: int, callback: Callable, payload: Any) -> None:
        """Heap-push a future callback with the shared seq/peak bookkeeping.

        Single point of truth for the ``(time, seq, callback, payload)``
        entry layout — Timeout, bare-delay sleeps and schedule_at all
        route through here so the determinism-critical sequence counter
        is consumed in exactly one place.
        """
        heap = self._heap
        seq = self.pushes
        self.pushes = seq + 1
        heappush(heap, (time, seq, callback, payload))
        if len(heap) > self._heap_peak:
            self._heap_peak = len(heap)

    # -- factories -------------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        self._processes_started += 1
        return Process(self, generator, name=name)

    def start_process(self, generator: ProcessGenerator,
                      name: str = "") -> Process:
        """Start a process whose first step runs now, in the caller.

        :meth:`process` defers the first step to an immediate callback;
        this takes it synchronously, up to the generator's first yield,
        sparing that dispatch. The step runs before anything else
        queued at the current time. The NIC starts each pipelined WR's
        data path this way, from its driver's own step.
        """
        self._processes_started += 1
        return Process(self, generator, name=name, step_now=True)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- introspection ---------------------------------------------------

    @property
    def metrics(self):
        """This simulation's :class:`~repro.obs.MetricsRegistry`.

        Created lazily (and imported lazily, keeping the kernel free of
        package dependencies) with the kernel counters pre-registered
        as gauges — the loop keeps bumping bare ints; the registry
        samples them only at snapshot time.
        """
        registry = self._metrics
        if registry is None:
            from ..obs.metrics import MetricsRegistry
            registry = self._metrics = MetricsRegistry()
            registry.gauge("sim.now", lambda: self.now)
            registry.gauge("sim.events_executed",
                           lambda: self._events_executed)
            registry.gauge("sim.heap_peak", lambda: self._heap_peak)
            registry.gauge("sim.processes_started",
                           lambda: self._processes_started)
        return registry

    @property
    def stats(self) -> Dict[str, int]:
        """Kernel counters for the perf harness (and determinism checks).

        ``events_executed`` counts every callback the loop ran,
        ``heap_peak`` is the maximum length the future-event heap ever
        reached, ``processes_started`` counts :meth:`process` calls.
        """
        return {
            "events_executed": self._events_executed,
            "heap_peak": self._heap_peak,
            "processes_started": self._processes_started,
        }

    def peek_next_time(self) -> Optional[int]:
        """Earliest time at which work is pending, or None when idle.

        Immediate callbacks count as work at the current time. Used by
        the sharded synchronizer to compute the global window floor
        without disturbing the queues.
        """
        if self._immediate:
            return self.now
        if self._heap:
            return self._heap[0][0]
        return None

    # -- execution -------------------------------------------------------

    def step(self) -> None:
        """Execute the earliest pending callback, advancing time."""
        heap = self._heap
        if heap and (not self._immediate or heap[0][0] == self.now):
            time, _seq, callback, payload = heapq.heappop(heap)
            self.now = time
            callback(payload)
        else:
            callback, payload = self._immediate.popleft()
            callback(payload)
        self._events_executed += 1

    def run(self, until: Optional[int] = None,
            max_events: int = 100_000_000) -> int:
        """Run until the queues drain or simulated time passes ``until``.

        Returns the simulation time at exit. ``max_events`` guards
        against accidental non-termination in tests (RedN programs are,
        after all, Turing complete).
        """
        if until is not None and until < self.now:
            # A window that already closed: running would rewind the
            # clock on the `time > until` break below. No-op instead.
            return self.now
        heap = self._heap
        immediate = self._immediate
        heappop_ = heappop
        popleft = immediate.popleft
        executed = 0
        # Rare: resuming with heap entries already at the current time
        # (after step() or a max_events abort). They predate everything
        # in the deque, so prepend them in (time, seq) order.
        if heap and heap[0][0] == self.now:
            stale = []
            while heap and heap[0][0] == self.now:
                entry = heappop_(heap)
                stale.append((entry[2], entry[3]))
            immediate.extendleft(reversed(stale))
        try:
            while True:
                # Same-time callbacks: the common case, dispatched with
                # no heap consultation at all.
                while immediate:
                    if executed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} "
                            f"at t={self.now}")
                    callback, payload = popleft()
                    callback(payload)
                    executed += 1
                if not heap:
                    break
                time = heap[0][0]
                if until is not None and time > until:
                    self.now = until
                    break
                self.now = time
                # Drain every heap entry at `time` before returning to
                # the deque: they were all pushed while now < time, so
                # they predate anything a callback appends now, and no
                # new heap entry can land at the current time.
                while True:
                    if executed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events} "
                            f"at t={self.now}")
                    _t, _seq, callback, payload = heappop_(heap)
                    callback(payload)
                    executed += 1
                    if not heap or heap[0][0] != time:
                        break
        finally:
            self._events_executed += executed
        return self.now

    def run_process(self, generator: ProcessGenerator,
                    until: Optional[int] = None) -> Any:
        """Convenience: start a process, run to completion, return value."""
        proc = self.process(generator)
        self.run(until=until)
        if not proc.triggered:
            raise SimulationError(f"{proc!r} did not finish by t={self.now}")
        if proc.exception is not None:
            raise proc.exception
        return proc.value
