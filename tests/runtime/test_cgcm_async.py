"""The asynchronous run-time entry points (mapAsync, unmapAsync,
mapArrayAsync, unmapArrayAsync) called directly: serial-discipline
equivalence with their synchronous twins, and the stream-issued copy
step's error paths, event edges and write-back guard."""

import pytest

from repro.errors import CgcmRuntimeError, CgcmUnsupportedError
from repro.frontend import compile_minic
from repro.gpu.timing import STREAM_D2H, STREAM_H2D
from repro.interp import Machine
from repro.ir import RAW_PTR
from repro.runtime import CgcmRuntime

#: ``words`` is a pointer array of three heap strings (set up by
#: ``main``'s prologue); ``g`` is a plain scalar unit.
SOURCE = r"""
char *words[3];
long g[4];
int main(void) {
    for (int i = 0; i < 3; i++) {
        words[i] = (char *) malloc(8);
        words[i][0] = 'a' + i;
        words[i][1] = 0;
    }
    return 0;
}
"""


def fresh(streams=False, record_events=False, source=SOURCE, run=True):
    machine = Machine(compile_minic(source), streams=streams,
                      record_events=record_events)
    runtime = CgcmRuntime(machine)
    runtime.declare_all_globals()
    if run:
        machine.run()
    return machine, runtime


def _map_then_bump(runtime, machine, unit, array):
    """Map ``unit`` and advance the epoch, as a kernel launch would,
    so the next unmap must copy back."""
    base = machine.global_address(unit)
    (runtime.map_array if array else runtime.map_ptr)(base)
    runtime.global_epoch += 1
    return base


# (entry point, sync twin, unit, needs a prior map, pointer-array unit)
PAIRS = [
    pytest.param("map_ptr_async", "map_ptr", "g", False, False,
                 id="mapAsync"),
    pytest.param("unmap_ptr_async", "unmap_ptr", "g", True, False,
                 id="unmapAsync"),
    pytest.param("map_array_async", "map_array", "words", False, True,
                 id="mapArrayAsync"),
    pytest.param("unmap_array_async", "unmap_array", "words", True, True,
                 id="unmapArrayAsync"),
]


@pytest.mark.parametrize("async_name, sync_name, unit, premap, array",
                         PAIRS)
def test_serial_discipline_matches_sync_twin(async_name, sync_name, unit,
                                             premap, array):
    """With streams off an async entry point is its sync twin: same
    per-lane time, same counters, same host image."""
    outcomes = []
    for name in (sync_name, async_name):
        machine, runtime = fresh()
        base = machine.global_address(unit)
        if premap:
            _map_then_bump(runtime, machine, unit, array)
        getattr(runtime, name)(base)
        outcomes.append((machine.clock.totals(),
                         dict(machine.clock.counters),
                         machine.cpu_memory.read(base, 24)))
    assert outcomes[0] == outcomes[1]


def test_map_array_async_rejects_triple_indirection():
    source = r"""
    char **outer[2];
    char *inner[2];
    int main(void) { return 0; }
    """
    machine, runtime = fresh(streams=True, source=source, run=False)
    outer = machine.global_address("outer")
    inner = machine.global_address("inner")
    runtime.map_array_async(inner)
    machine.cpu_memory.store_scalar(outer, RAW_PTR, inner)
    with pytest.raises(CgcmUnsupportedError, match="indirection"):
        runtime.map_array_async(outer)


def test_unmap_async_without_device_copy_raises():
    machine, runtime = fresh(streams=True)
    base = machine.global_address("g")
    with pytest.raises(CgcmRuntimeError, match="no device copy"):
        runtime.unmap_ptr_async(base)


def test_remap_waits_for_pending_write_back():
    """A re-map's HtoD must not start before the previous DtoH of the
    same unit finished: the host bytes it uploads are final only
    then.  The re-map retires the pending write-back."""
    machine, runtime = fresh(streams=True, record_events=True)
    clock = machine.clock
    base = machine.global_address("g")
    runtime.map_ptr_async(base)
    runtime.global_epoch += 1
    runtime.unmap_ptr_async(base)
    writeback_done = clock.event_record(STREAM_D2H)
    assert base in runtime._pending_writebacks
    runtime.release_ptr(base)

    runtime.map_ptr_async(base)
    htod = [event for event in clock.events if event.track == STREAM_H2D]
    assert len(htod) == 2
    assert htod[-1].start >= writeback_done
    assert base not in runtime._pending_writebacks


def test_cpu_load_of_pending_region_syncs():
    """The streams guard stalls a CPU load that overlaps an in-flight
    write-back; ``guard_syncs`` counts the synchronize."""
    source = r"""
    long g[4];
    int main(void) { print_i64(g[1]); return 0; }
    """
    machine, runtime = fresh(streams=True, source=source, run=False)
    base = machine.global_address("g")
    runtime.map_ptr_async(base)
    runtime.global_epoch += 1
    runtime.unmap_ptr_async(base)
    assert runtime.guard_syncs == 0
    machine.run()
    assert runtime.guard_syncs == 1
    assert not runtime._pending_writebacks
