"""Simulated GPU device and driver API.

Mirrors the slice of the CUDA driver API that CGCM's run-time library
uses (paper Algorithms 1-3): ``cuMemAlloc``, ``cuMemFree``,
``cuMemcpyHtoD``, ``cuMemcpyDtoH``, and ``cuModuleGetGlobal``.  Device
memory is a separate :class:`FlatMemory` whose addresses live in the
``0xD000_0000`` range, so mixing host and device pointers faults.

The device does not execute kernels itself; the interpreter runs
kernel grids against :attr:`GpuDevice.memory` (see
:mod:`repro.interp.machine`) and charges GPU time on the shared clock.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional

from typing import Iterable

from ..errors import (GpuError, GpuLaunchError, GpuOomError,
                      GpuTransferError, MemoryFault)
from ..memory.flatmem import FlatMemory, copy_across
from ..memory.heap import Heap
from ..memory.layout import DEVICE_BASE, DEVICE_CAPACITY, GlobalLayout
from .faults import FaultInjector
from .timing import LANE_COMM, LANE_GPU, STREAM_D2H, STREAM_H2D, SimClock


class DriverEvent(str, enum.Enum):
    """Typed driver-level events delivered to :attr:`GpuDevice.observers`.

    A ``str`` subclass so the members compare equal to the historical
    string names; new observers should match on the enum members.
    """

    ALLOC = "alloc"
    FREE = "free"
    FREE_ASYNC = "free_async"
    HTOD = "htod"
    DTOH = "dtoh"
    LAUNCH = "launch"


class GpuDevice:
    """One simulated CUDA-like device with its own address space.

    ``fault_injector`` arms the resilience subsystem's deterministic
    driver faults; ``heap_limit`` caps the bytes the cuMemAlloc arena
    will hand out (modelling a smaller device), failing allocations
    beyond it with a non-transient :class:`GpuOomError`.
    """

    def __init__(self, clock: SimClock,
                 fault_injector: Optional[FaultInjector] = None,
                 heap_limit: Optional[int] = None):
        self.clock = clock
        self.fault_injector = fault_injector
        self.heap_limit = heap_limit
        self.memory = FlatMemory("gpu")
        #: Reserve a slice of the device range for module globals; the
        #: rest is the cuMemAlloc arena.
        globals_capacity = 64 << 20
        stack_capacity = 32 << 20
        self.memory.add_segment("module", DEVICE_BASE, globals_capacity)
        self.memory.add_segment(
            "device-stack", DEVICE_BASE + globals_capacity, stack_capacity)
        self.memory.add_segment(
            "device-heap", DEVICE_BASE + globals_capacity + stack_capacity,
            DEVICE_CAPACITY - globals_capacity - stack_capacity)
        self.heap = Heap(self.memory, "device-heap")
        #: Base of the per-thread scratch stack used for kernel allocas.
        self.stack_base = DEVICE_BASE + globals_capacity
        self.module_globals: Dict[str, int] = {}
        self._module_sizes: Dict[str, int] = {}
        #: Observers of driver-level events, called as
        #: ``observer(event, address, size)`` with a
        #: :class:`DriverEvent` member.  The sanitizer attaches here.
        self.observers: List[Callable[[DriverEvent, int, int], None]] = []
        self._stream_serial = 0
        #: Engine lane the transfer paths charge.  The multi-GPU
        #: coordinator retargets this per-operation so a copy feeding
        #: a unit homed on device *d* occupies that device's comm
        #: lane; everything else (and every single-device run) stays
        #: on the built-in ``comm`` lane.
        self.comm_lane = LANE_COMM

    # -- streams and events -------------------------------------------------

    def stream_create(self, name: Optional[str] = None) -> str:
        """``cuStreamCreate``: register a FIFO stream on the clock.

        Returns the stream handle (its name).  The well-known streams
        ``h2d``/``d2h``/``compute`` are created on demand by the async
        transfer and launch paths; explicit creation is only needed
        for additional user streams.
        """
        if name is None:
            self._stream_serial += 1
            name = f"stream{self._stream_serial}"
        return self.clock.stream_create(name)

    def event_record(self, stream: str) -> float:
        """``cuEventRecord``: capture the stream's completion frontier."""
        return self.clock.event_record(stream)

    def stream_wait_event(self, stream: str, event_time: float) -> None:
        """``cuStreamWaitEvent``: order ``stream`` after the event."""
        self.clock.stream_wait_event(stream, event_time)

    def stream_synchronize(self, stream: str) -> None:
        """``cuStreamSynchronize``: block the host on one stream."""
        self.clock.stream_synchronize(stream)

    def device_synchronize(self) -> None:
        """``cuCtxSynchronize``: block the host on all engines."""
        self.clock.device_synchronize()

    def _notify(self, event: DriverEvent, address: int, size: int) -> None:
        for observer in self.observers:
            observer(event, address, size)

    # -- module loading ----------------------------------------------------

    def load_module(self, layout: GlobalLayout) -> None:
        """Give every host global a device-resident named region.

        CUDA modules declare ``__device__`` globals that occupy device
        memory from load time; ``cuModuleGetGlobal`` looks them up by
        name.  CGCM's ``map`` relies on this for globals (Algorithm 1).
        """
        cursor = DEVICE_BASE
        for name, _, size in layout.items():
            aligned = (cursor + 15) // 16 * 16
            if aligned + size > DEVICE_BASE + (64 << 20):
                raise GpuError("device module segment exhausted")
            self.module_globals[name] = aligned
            self._module_sizes[name] = size
            cursor = aligned + size

    def module_get_global(self, name: str) -> int:
        """``cuModuleGetGlobal``: device address of a named global."""
        try:
            return self.module_globals[name]
        except KeyError:
            raise GpuError(f"no device global named {name!r}") from None

    # -- memory management --------------------------------------------------

    def mem_alloc(self, size: int,
                  avoid: Optional[list] = None) -> int:
        """``cuMemAlloc``: allocate device memory.

        Raises :class:`GpuOomError` when the arena (or the configured
        ``heap_limit``) cannot satisfy the request, or when the fault
        injector schedules a transient failure.  A failed call still
        charges the driver latency: the round trip happened.
        ``avoid`` forwards address ranges the allocator must skip (see
        :meth:`repro.memory.heap.Heap.malloc`).
        """
        if size <= 0:
            raise GpuError(f"cuMemAlloc of {size} bytes")
        self.clock.advance(LANE_COMM, self.clock.model.device_alloc_latency_s,
                           "cuMemAlloc")
        self.clock.count("device_allocs")
        if self.fault_injector is not None \
                and self.fault_injector.alloc_fault():
            self.clock.count("injected_alloc_faults")
            raise GpuOomError(
                f"cuMemAlloc of {size} bytes failed: injected transient "
                "out-of-memory", size=size, transient=True)
        if self.heap_limit is not None \
                and self.heap.live_bytes + size > self.heap_limit:
            raise GpuOomError(
                f"cuMemAlloc of {size} bytes failed: device heap capped "
                f"at {self.heap_limit} bytes ({self.heap.live_bytes} "
                "live)", size=size)
        try:
            address = self.heap.malloc(size, avoid)
        except MemoryFault as fault:
            raise GpuOomError(f"cuMemAlloc of {size} bytes failed: {fault}",
                              size=size) from None
        if self.observers:
            self._notify(DriverEvent.ALLOC, address, size)
        return address

    def mem_alloc_at(self, address: int, size: int) -> bool:
        """Allocate device memory at a fixed address, if free.

        The resilience layer's address-stable restore: an evicted
        allocation unit re-materializes at the device address its
        translated pointers were minted for.  Returns False when the
        range is occupied (the caller falls back to the CPU path).
        """
        if size <= 0:
            raise GpuError(f"cuMemAlloc of {size} bytes")
        self.clock.advance(LANE_COMM, self.clock.model.device_alloc_latency_s,
                           "cuMemAlloc")
        self.clock.count("device_allocs")
        if self.heap_limit is not None \
                and self.heap.live_bytes + size > self.heap_limit:
            return False
        if not self.heap.allocate_at(address, size):
            return False
        if self.observers:
            self._notify(DriverEvent.ALLOC, address, size)
        return True

    def mem_free(self, address: int) -> None:
        """``cuMemFree``: release device memory."""
        self.clock.advance(LANE_COMM, self.clock.model.device_free_latency_s,
                           "cuMemFree")
        self.clock.count("device_frees")
        if self.observers:
            self._notify(DriverEvent.FREE, address, 0)
        self.heap.free(address)

    def mem_free_async(self, address: int, stream: str = STREAM_D2H,
                       after: Iterable[float] = ()) -> float:
        """``cuMemFreeAsync``: release device memory in stream order.

        The heap bookkeeping happens immediately (the simulator's
        eager-data model); only the driver latency is scheduled on the
        stream, after any pending spans it depends on -- typically the
        write-back copy of the region being freed.
        """
        finish = self.clock.schedule(
            LANE_COMM, self.clock.model.device_free_latency_s, stream,
            "cuMemFree", after=after)
        self.clock.count("device_frees")
        if self.observers:
            self._notify(DriverEvent.FREE_ASYNC, address, 0)
        self.heap.free(address)
        return finish

    # -- transfers ------------------------------------------------------------

    def _copy(self, event: DriverEvent, device_address: int, size: int,
              move: Callable[[], object], stream: Optional[str] = None,
              after: Iterable[float] = ()) -> tuple:
        """One ``cuMemcpy*`` of ``size`` bytes; every copy entry point
        goes through here.  Returns ``(move(), finish)``.

        An injected bus fault is raised before ``move`` runs and before
        observers fire: a failed copy has no data effect, but the
        aborted bus transaction still costs the fixed transfer
        latency.  Otherwise ``move`` transfers the bytes and the
        transfer time is charged: blocking on :attr:`comm_lane`, or --
        with a ``stream`` -- scheduled on it after ``after``, in which
        case ``finish`` is the span's finish time (else None).
        """
        clock = self.clock
        kind = "HtoD" if event is DriverEvent.HTOD else "DtoH"
        if self.fault_injector is not None \
                and self.fault_injector.transfer_fault(event.value):
            clock.advance(LANE_COMM, clock.model.transfer_latency_s,
                          f"{event.value} fault")
            clock.count("injected_transfer_faults")
            raise GpuTransferError(
                f"cuMemcpy{kind} of {size} bytes at {device_address:#x} "
                "failed (injected bus fault); no data was transferred",
                address=device_address, size=size)
        result = move()
        seconds = clock.model.transfer_time(size)
        label = f"{kind} {size}B"
        finish = None
        if stream is None:
            clock.advance(self.comm_lane, seconds, label)
        else:
            finish = clock.schedule(self.comm_lane, seconds, stream, label,
                                    after=after)
        clock.count(f"{event.value}_copies")
        clock.count(f"{event.value}_bytes", size)
        if self.observers:
            self._notify(event, device_address, size)
        return result, finish

    def memcpy_htod(self, device_address: int, data: bytes) -> None:
        """``cuMemcpyHtoD``: copy host bytes into device memory."""
        self._copy(DriverEvent.HTOD, device_address, len(data),
                   lambda: self.memory.write(device_address, data))

    def memcpy_htod_from(self, device_address: int, host_memory,
                         host_address: int, size: int) -> None:
        """``cuMemcpyHtoD`` straight out of a host address space: the
        bytes move segment-to-segment via
        :func:`~repro.memory.flatmem.copy_across`, without an
        intermediate ``bytes`` payload."""
        self._copy(DriverEvent.HTOD, device_address, size,
                   lambda: copy_across(host_memory, host_address,
                                       self.memory, device_address, size))

    def memcpy_dtoh_into(self, device_address: int, size: int,
                         host_memory, host_address: int) -> None:
        """``cuMemcpyDtoH`` straight into a host address space."""
        self._copy(DriverEvent.DTOH, device_address, size,
                   lambda: copy_across(self.memory, device_address,
                                       host_memory, host_address, size))

    def memcpy_htod_async(self, device_address: int, data: bytes,
                          stream: str = STREAM_H2D,
                          after: Iterable[float] = ()) -> float:
        """``cuMemcpyHtoDAsync``: non-blocking host-to-device copy.

        Data moves immediately (eager-data simulation: the bytes the
        copy transfers are the bytes at issue time, exactly what a
        correctly synchronized async program would observe); only the
        modelled transfer time is scheduled on ``stream``.  Returns
        the span's finish time for use as an event.
        """
        return self._copy(DriverEvent.HTOD, device_address, len(data),
                          lambda: self.memory.write(device_address, data),
                          stream, after)[1]

    def memcpy_dtoh_async(self, device_address: int, size: int,
                          stream: str = STREAM_D2H,
                          after: Iterable[float] = ()) -> "tuple":
        """``cuMemcpyDtoHAsync``: non-blocking device-to-host copy.

        Returns ``(data, finish_time)``.  The bytes are read eagerly;
        callers ordering the copy after a producing kernel pass that
        kernel's finish time via ``after`` so the modelled span cannot
        start before its producer completes.
        """
        return self._copy(DriverEvent.DTOH, device_address, size,
                          lambda: self.memory.read(device_address, size),
                          stream, after)

    # -- kernel launch ---------------------------------------------------------

    def launch_begin(self, kernel_name: str, grid: int) -> None:
        """Driver-side admission of one kernel launch.

        The interpreter still executes the grid itself; this models
        the ``cuLaunchKernel`` driver call, which is where an injected
        launch fault surfaces (:class:`GpuLaunchError` -- no thread of
        the grid ran).  A rejected launch charges the launch latency:
        the doorbell was rung before the driver said no.
        """
        if self.fault_injector is not None \
                and self.fault_injector.launch_fault():
            self.clock.advance(LANE_GPU,
                               self.clock.model.kernel_launch_latency_s,
                               f"{kernel_name} launch fault")
            self.clock.count("injected_launch_faults")
            raise GpuLaunchError(
                f"launch of kernel {kernel_name!r} (grid {grid}) rejected "
                "by the driver (injected fault); no thread ran",
                kernel=kernel_name, grid=grid)
        if self.observers:
            self._notify(DriverEvent.LAUNCH, 0, grid)

    # -- introspection ---------------------------------------------------------

    @property
    def live_allocations(self) -> int:
        return len(self.heap.allocations)

    def __repr__(self) -> str:
        return (f"<GpuDevice {self.live_allocations} live allocs, "
                f"{len(self.module_globals)} module globals>")
