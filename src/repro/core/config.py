"""Configuration for the CGCM compilation pipeline."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigError
from ..gpu.faults import FaultPlan
from ..gpu.timing import CostModel
from ..gpu.topology import Topology


class OptLevel(enum.Enum):
    """How far to take a program through the CGCM pipeline.

    * ``SEQUENTIAL``  -- no transformation at all: the original CPU-only
      program (the paper's performance baseline).
    * ``UNOPTIMIZED`` -- DOALL parallelization plus communication
      *management* only: every launch gets its own map/unmap/release
      trio, yielding the cyclic pattern of paper Listing 3.
    * ``OPTIMIZED``   -- management plus the communication
      *optimizations*: glue kernels, then alloca promotion, then map
      promotion (the pass schedule of paper section 5.3).
    """

    SEQUENTIAL = "sequential"
    UNOPTIMIZED = "unoptimized"
    OPTIMIZED = "optimized"


@dataclass
class CgcmConfig:
    """Knobs for :class:`repro.core.compiler.CgcmCompiler`.

    The individual pass toggles exist for the ablation benchmarks; the
    paper always runs all three optimizations in the fixed order.
    """

    opt_level: OptLevel = OptLevel.OPTIMIZED
    enable_glue_kernels: bool = True
    enable_alloca_promotion: bool = True
    enable_map_promotion: bool = True
    cost_model: CostModel = field(default_factory=CostModel)
    record_events: bool = False
    verify: bool = True
    #: Arm the communication sanitizer for executions; the resulting
    #: report lands on :attr:`ExecutionResult.sanitizer_report`.
    sanitize: bool = False
    #: Execution engine for simulated runs: ``"source"`` (Python
    #: source codegen, the fast path -- see ``repro.interp.srcgen``)
    #: or ``"tree"`` (tree-walking reference interpreter).  The two
    #: are observationally and clock-for-clock identical.
    engine: str = "source"
    #: Streams subsystem: run the comm-overlap transform (at
    #: ``OPTIMIZED``), execute launches/transfers asynchronously, and
    #: report overlap-aware elapsed time
    #: (:attr:`ExecutionResult.critical_path_seconds`).  Off by
    #: default: the serial discipline reproduces the paper's fully
    #: synchronous schedules bit-for-bit.
    streams: bool = False
    #: Resilience subsystem: a seeded :class:`FaultPlan` arms the
    #: deterministic driver-fault injector on the simulated device;
    #: the runtime then retries transient faults, evicts under memory
    #: pressure, and degrades launches to the CPU path.  None = off.
    faults: Optional[FaultPlan] = None
    #: Cap on live ``cuMemAlloc`` bytes (models a smaller device).
    #: Allocations beyond the cap raise a non-transient OOM, driving
    #: the runtime's LRU eviction.  None = the full simulated arena.
    device_heap_limit: Optional[int] = None
    #: With a ``device_heap_limit``, reject programs whose largest
    #: statically-sized allocation unit (constant malloc/calloc or
    #: compiler-registered alloca) can never fit under the cap: such a
    #: unit would otherwise degrade to a permanent sentinel range and
    #: every launch touching it to the CPU path.  The chaos sweeps
    #: exercise exactly that degradation on purpose, so they opt out
    #: with ``strict_heap_limit=False``.  Checked at execution time
    #: (the check needs the compiled module); raises
    #: :class:`~repro.errors.ConfigError`.
    strict_heap_limit: bool = True
    #: Translation validation: after every optimize-stage pass, check
    #: the pass's declared legality contract (``transforms/contract``)
    #: against the before/after IR pair and fail the compile with
    #: :class:`~repro.errors.TransformValidationError` on any
    #: violation.  Off by default (it re-lints intermediate modules,
    #: which costs compile time).
    validate: bool = False
    #: Device topology for executions.  None (or a one-device
    #: topology) is the classic single-GPU platform.  A multi-device
    #: :class:`~repro.gpu.topology.Topology` arms the multi-GPU layer:
    #: allocation units are partitioned across devices by the
    #: placement pass, DOALL grids shard across the devices holding
    #: their operands, and peer/collective transfers are scheduled on
    #: per-device async streams.  Multi-device scheduling is
    #: inherently asynchronous, so ``streams`` turns on automatically.
    topology: Optional[Topology] = None

    def __post_init__(self) -> None:
        from ..interp.machine import ENGINES
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown engine {self.engine!r}; expected "
                              f"one of {ENGINES}")
        if self.topology is not None:
            if not isinstance(self.topology, Topology):
                raise ConfigError(
                    f"CgcmConfig.topology must be a Topology, got "
                    f"{type(self.topology).__name__}; build one with "
                    "Topology.ring(n) or Topology.fully_connected(n)")
            if self.topology.num_devices > 1:
                if not self.parallelize:
                    raise ConfigError(
                        "a multi-device topology needs CGCM-transformed "
                        "launches to place and shard; "
                        "OptLevel.SEQUENTIAL never touches a device.  "
                        "Use UNOPTIMIZED or OPTIMIZED")
                if self.faults is not None:
                    raise ConfigError(
                        "a multi-device topology cannot be combined with "
                        "fault injection: per-device retry/fail-over has "
                        "no story yet.  Drop faults or use a one-device "
                        "topology")
                if self.device_heap_limit is not None:
                    raise ConfigError(
                        "a multi-device topology cannot be combined with "
                        "a device heap cap: per-device eviction has no "
                        "story yet.  Drop device_heap_limit or use a "
                        "one-device topology")
                # Multi-device schedules are asynchronous by nature:
                # collectives must overlap compute for the extra
                # devices to pay off.
                self.streams = True
        if self.faults is not None:
            if not isinstance(self.faults, FaultPlan):
                raise ConfigError(
                    f"CgcmConfig.faults must be a FaultPlan, got "
                    f"{type(self.faults).__name__}; build one with "
                    "FaultPlan(seed=..., alloc_fail_rate=..., ...)")
            if self.faults.seed is None:
                raise ConfigError(
                    "CgcmConfig.faults has no seed: an unseeded fault "
                    "schedule is not reproducible.  Pass "
                    "FaultPlan(seed=<int>, ...) so every run injects "
                    "the same faults")
            if self.streams:
                raise ConfigError(
                    "CgcmConfig.faults cannot be combined with streams: "
                    "the asynchronous copy paths have no retry/eviction "
                    "story yet.  Drop streams=True (the serial "
                    "discipline) to run under fault injection")
        if self.device_heap_limit is not None:
            if not isinstance(self.device_heap_limit, int) \
                    or self.device_heap_limit <= 0:
                raise ConfigError(
                    f"CgcmConfig.device_heap_limit must be a positive "
                    f"byte count, got {self.device_heap_limit!r}")
            if self.streams:
                raise ConfigError(
                    "CgcmConfig.device_heap_limit cannot be combined "
                    "with streams: eviction write-backs are synchronous "
                    "and would race the deferred async write-backs.  "
                    "Drop streams=True to run under a device heap cap")
        if self.resilient and not self.parallelize:
            raise ConfigError(
                "fault injection and device heap caps only apply to "
                "CGCM-transformed runs; OptLevel.SEQUENTIAL never "
                "touches the device.  Use UNOPTIMIZED or OPTIMIZED")

    @property
    def resilient(self) -> bool:
        """Is the resilience subsystem active for executions?"""
        return self.faults is not None or self.device_heap_limit is not None

    @property
    def parallelize(self) -> bool:
        return self.opt_level != OptLevel.SEQUENTIAL

    @property
    def optimize(self) -> bool:
        return self.opt_level == OptLevel.OPTIMIZED
