"""Failure injection and component-reliability accounting (§5.6).

Two kinds of content live here:

1. The **failure-rate survey** the paper reproduces in Table 6
   (annualized failure rate / mean time to failure / availability per
   server component, sourced from [8, 37] in the paper). These are
   literature constants, not measurements; we quote them and derive the
   availability column, plus an offload-availability model that shows
   *why* NIC-resident services survive host failures.

2. **Crash injectors** used by the Fig 16 fail-over experiment: kill a
   process mid-run (with or without a hull parent holding the RDMA
   resources) or panic the kernel, then optionally model the OS
   restarting the service with the paper's observed recovery costs
   (~1 s process bootstrap + ~1.25 s metadata/hashtable rebuild).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Optional

from ..sim.core import Simulator
from .node import Host, OsProcess

__all__ = [
    "ComponentReliability",
    "TABLE6_COMPONENTS",
    "availability_from_mttf",
    "offload_availability",
    "CrashInjector",
    "RestartPolicy",
]

@dataclass(frozen=True)
class ComponentReliability:
    """One row of the paper's Table 6."""

    component: str
    afr_percent: float       # annualized failure rate
    mttf_hours: float        # mean time to failure
    reliability: str         # the paper's "nines" column

    @property
    def availability(self) -> float:
        """Fraction of time up, assuming a 1-hour mean repair time."""
        return availability_from_mttf(self.mttf_hours, mttr_hours=1.0)


#: Paper Table 6 (failure rates from [8, 37]).
TABLE6_COMPONENTS: Dict[str, ComponentReliability] = {
    "OS": ComponentReliability("OS", 41.9, 20_906, "99%"),
    "DRAM": ComponentReliability("DRAM", 39.5, 22_177, "99%"),
    "NIC": ComponentReliability("NIC", 1.00, 876_000, "99.99%"),
    "NVM": ComponentReliability("NVM", 1.00, 2_000_000, "99.99%"),
}


def availability_from_mttf(mttf_hours: float,
                           mttr_hours: float = 1.0) -> float:
    """Classic MTTF/(MTTF+MTTR) steady-state availability."""
    if mttf_hours <= 0:
        raise ValueError("MTTF must be positive")
    return mttf_hours / (mttf_hours + mttr_hours)


def offload_availability(depends_on_os: bool, mttr_hours: float = 1.0) -> float:
    """Availability of a service depending on (NIC [+ OS]).

    A CPU-served RPC path needs both the OS and the NIC up; a RedN
    offload with hull-parented resources needs only the NIC (plus DRAM
    for state). This one-liner is the quantitative version of the
    paper's argument that NIC AFR is an order of magnitude lower.
    """
    chain = ["NIC", "DRAM"]
    if depends_on_os:
        chain.append("OS")
    total = 1.0
    for component in chain:
        total *= availability_from_mttf(
            TABLE6_COMPONENTS[component].mttf_hours, mttr_hours)
    return total


@dataclass
class RestartPolicy:
    """How the OS restarts a crashed service (Fig 16 timeline).

    The paper measures a vanilla Memcached taking "at least 1 second to
    bootstrap, and 1.25 additional seconds to build its metadata and
    hashtables" after the OS respawns it.
    """

    detect_ns: int = 50_000_000              # OS notices the death
    bootstrap_ns: int = 1_000_000_000        # process start + listen
    rebuild_ns: int = 1_250_000_000          # metadata + hashtable rebuild

    @property
    def total_outage_ns(self) -> int:
        return self.detect_ns + self.bootstrap_ns + self.rebuild_ns


class CrashInjector:
    """Schedules crashes against a host during an experiment."""

    def __init__(self, sim: Simulator, host: Host):
        self.sim = sim
        self.host = host
        self.events = []   # (time_ns, kind, target-name) log

    def kill_process_at(self, time_ns: int, process: OsProcess,
                        on_restart: Optional[Callable[[], None]] = None,
                        restart: Optional[RestartPolicy] = None) -> None:
        """Kill ``process`` at ``time_ns``; optionally restart it.

        ``on_restart`` runs once the RestartPolicy delay elapses —
        typically a closure that re-registers state and resumes
        serving (what the OS-respawned Memcached does).
        """
        self.sim.process(self._kill_later(time_ns, process, on_restart,
                                          restart),
                         name=f"crash:{process.name}")

    def panic_at(self, time_ns: int) -> None:
        self.sim.process(self._panic_later(time_ns),
                         name=f"panic:{self.host.name}")

    def _kill_later(self, time_ns: int, process: OsProcess,
                    on_restart, restart) -> Generator:
        delay = time_ns - self.sim.now
        if delay > 0:
            yield self.sim.timeout(delay)
        self.host.crash_process(process)
        self.events.append((self.sim.now, "crash", process.name))
        if restart is not None and on_restart is not None:
            yield self.sim.timeout(restart.total_outage_ns)
            on_restart()
            self.events.append((self.sim.now, "restarted", process.name))

    def _panic_later(self, time_ns: int) -> Generator:
        delay = time_ns - self.sim.now
        if delay > 0:
            yield self.sim.timeout(delay)
        self.host.kernel_panic()
        self.events.append((self.sim.now, "panic", self.host.name))
