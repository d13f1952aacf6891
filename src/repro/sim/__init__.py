"""Discrete-event simulation kernel (substrate for all device models)."""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    quantize_delay,
)
from .rand import DEFAULT_SEED, SeededStreams
from .resources import Pipe, Resource, Store, TokenBucket
from .sharded import LookaheadError, Shard, ShardedSimulation

__all__ = [
    "AllOf",
    "AnyOf",
    "DEFAULT_SEED",
    "Event",
    "Interrupt",
    "LookaheadError",
    "Pipe",
    "Process",
    "Resource",
    "SeededStreams",
    "Shard",
    "ShardedSimulation",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "TokenBucket",
    "quantize_delay",
]
