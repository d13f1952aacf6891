"""Shared-resource primitives built on the simulation kernel.

Four primitives cover every contention point in the RNIC and host
models:

* :class:`Pipe` — one FIFO server whose holds are known on arrival.
  Used for the NIC's PCIe attachment, each port's wire and its
  processing units: a claim is priced arithmetically, so queueing and
  the hold cost the claimer one sleep and the pipe no events at all.
* :class:`Resource` — ``capacity`` interchangeable slots with a FIFO
  wait queue, acquired and released explicitly. Used where the hold
  ends on an event rather than a known delay: the WQE fetch engines,
  the atomic units, receive-queue consume locks, host CPU cores and
  the KV fleet's offload lock.
* :class:`Store` — an unbounded FIFO of items with blocking ``get``.
  Used for mailboxes: NIC doorbell queues, RPC request queues, network
  link ingress buffers.
* :class:`TokenBucket` — a rate limiter. Used for per-WQ rate limiting
  (``ibv_modify_qp_rate_limit``-style isolation, paper §3.5).

All waiting is FIFO and therefore deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from .core import Event, Simulator

__all__ = ["Pipe", "Resource", "Store", "TokenBucket"]


class Pipe:
    """A single FIFO server whose hold lengths are known on arrival.

    ``yield pipe.claim(ns)`` holds the pipe for ``ns`` nanoseconds
    after every earlier claim's hold: the returned sleep covers the
    queueing and the hold, and the claimer may add any pure delay that
    follows before yielding it. Completion times equal a capacity-1
    :class:`Resource` held with :meth:`Resource.use` by the same
    arrivals in the same order, since a FIFO server hands itself to the
    next claimer the instant the previous hold ends.
    """

    __slots__ = ("sim", "name", "free_at")

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        #: When the last claimed hold ends (ns).
        self.free_at = 0

    def __repr__(self) -> str:
        return f"<Pipe {self.name} free_at={self.free_at}>"

    def claim(self, duration: int) -> int:
        """Claim a ``duration`` ns hold arriving now; returns the ns
        from now until it ends. A zero-length claim returns 0: it
        waits behind nothing and leaves the pipe as it was."""
        if not duration:
            return 0
        now = self.sim.now
        free_at = self.free_at
        end = (free_at if free_at > now else now) + duration
        self.free_at = end
        return end - now


class Resource:
    """``capacity`` slots; acquire with ``yield res.acquire()``.

    The acquire event triggers with a *grant token* that must be passed
    to :meth:`release`. Tokens make double-release a detectable error
    instead of silent capacity corruption.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._event_name = f"acquire:{name}"
        self.in_use = 0
        self._waiters: Deque[Event] = deque()
        self._outstanding = set()
        self._grant_counter = 0

    def __repr__(self) -> str:
        return (f"<Resource {self.name} {self.in_use}/{self.capacity}"
                f" waiters={len(self._waiters)}>")

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """Return an event that triggers (with a token) once a slot frees."""
        event = Event(self.sim, self._event_name)
        if self.in_use < self.capacity:
            self.in_use += 1
            event.trigger(self._new_grant())
        else:
            self._waiters.append(event)
        return event

    def try_acquire(self) -> Optional[int]:
        """Claim a slot synchronously if one is free; else None.

        The claim happens at exactly the same schedule point acquire()
        would claim it — only the triggered-event dispatch round-trip is
        skipped. Contended callers must fall back to acquire().
        """
        if self.in_use < self.capacity:
            self.in_use += 1
            return self._new_grant()
        return None

    def release(self, grant: int) -> None:
        if grant not in self._outstanding:
            raise ValueError(f"unknown or already-released grant {grant}")
        self._outstanding.discard(grant)
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.trigger(self._new_grant())
        else:
            self.in_use -= 1

    def use(self, duration: int) -> Generator[Event, Any, None]:
        """Process helper: hold one slot for ``duration`` nanoseconds.

        Holds of a known length on one slot are what :class:`Pipe`
        prices without events; this is its reference in the tests.
        """
        grant = yield self.acquire()
        try:
            yield duration
        finally:
            self.release(grant)

    def _new_grant(self) -> int:
        self._grant_counter += 1
        self._outstanding.add(self._grant_counter)
        return self._grant_counter


class Store:
    """Unbounded FIFO with blocking ``get`` and immediate ``put``."""

    def __init__(self, sim: Simulator, name: str = ""):
        self.sim = sim
        self.name = name
        self._event_name = f"get:{name}"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().trigger(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that triggers with the next item."""
        event = Event(self.sim, self._event_name)
        if self._items:
            event.trigger(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking poll; None if empty (models CQ polling)."""
        if self._items:
            return self._items.popleft()
        return None


class TokenBucket:
    """A token-bucket rate limiter: ``rate`` tokens/second, ``burst`` cap.

    ``throttle(cost)`` is a process helper that waits until ``cost``
    tokens are available and consumes them. Refill is computed lazily
    from elapsed simulated time, so the bucket adds no event-loop load
    when idle.
    """

    def __init__(self, sim: Simulator, rate_per_sec: float, burst: float,
                 name: str = ""):
        if rate_per_sec <= 0:
            raise ValueError("rate must be positive")
        if burst <= 0:
            raise ValueError("burst must be positive")
        self.sim = sim
        self.name = name
        self.rate_per_sec = float(rate_per_sec)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_refill = sim.now

    def _refill(self) -> None:
        elapsed_ns = self.sim.now - self._last_refill
        self._last_refill = self.sim.now
        self._tokens = min(
            self.burst, self._tokens + elapsed_ns * self.rate_per_sec / 1e9)

    def available(self) -> float:
        self._refill()
        return self._tokens

    def throttle(self, cost: float = 1.0) -> Generator[Event, Any, None]:
        if cost > self.burst:
            raise ValueError(f"cost {cost} exceeds burst {self.burst}")
        while True:
            self._refill()
            if self._tokens >= cost:
                self._tokens -= cost
                return
            deficit = cost - self._tokens
            wait_ns = int(deficit * 1e9 / self.rate_per_sec) + 1
            yield wait_ns
