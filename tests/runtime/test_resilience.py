"""Resilient runtime: eviction, restore, sentinels, CPU fallback
(the resilience subsystem in runtime/cgcm.py)."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compiler import CgcmCompiler, compile_and_run
from repro.core.config import CgcmConfig, OptLevel
from repro.frontend import compile_minic
from repro.gpu.faults import FaultInjector, FaultPlan
from repro.interp import Machine
from repro.runtime import CgcmRuntime
from repro.runtime.cgcm import _SENTINEL_BASE, AllocationInfo
from repro.workloads import get_workload

SOURCE = "int main(void) { return 0; }"

UNIT_SIZE = 48


def fresh(heap_limit=None, plan=None):
    machine = Machine(
        compile_minic(SOURCE),
        fault_injector=FaultInjector(plan) if plan is not None else None,
        device_heap_limit=heap_limit)
    runtime = CgcmRuntime(machine)
    runtime.declare_all_globals()
    return machine, runtime


def heap_unit(machine, runtime, fill, size=UNIT_SIZE, read_only=False):
    """A malloc-style allocation unit the way the heap hook makes one
    (globals never evict: their device copies are module-resident)."""
    base = machine.heap.malloc(size)
    machine.cpu_memory.write(base, bytes([fill]) * size)
    info = AllocationInfo(base, size, is_read_only=read_only)
    runtime.alloc_map.insert(base, info)
    return base, info


class TestEviction:
    def test_pressure_evicts_lru_and_writes_back_dirty(self):
        """Mapping a second unit under a one-unit cap evicts the
        first; its device-written bytes land back in host memory."""
        machine, runtime = fresh(heap_limit=UNIT_SIZE)
        base_a, info_a = heap_unit(machine, runtime, 0xAA)
        runtime.map_ptr(base_a)
        # A kernel wrote the device copy last epoch.
        machine.device.memory.write(info_a.device_ptr, b"\x11" * UNIT_SIZE)
        runtime.global_epoch += 1

        base_b, info_b = heap_unit(machine, runtime, 0xBB)
        runtime.map_ptr(base_b)

        assert not info_a.resident
        assert info_b.resident
        assert machine.cpu_memory.read(base_a, UNIT_SIZE) == b"\x11" * UNIT_SIZE
        assert machine.clock.counters["device_evictions"] == 1

    def test_clean_unit_evicts_without_copy(self):
        machine, runtime = fresh(heap_limit=UNIT_SIZE)
        base_a, info_a = heap_unit(machine, runtime, 0xAA)
        runtime.map_ptr(base_a)
        copies_before = machine.clock.counters.get("dtoh_copies", 0)
        base_b, _ = heap_unit(machine, runtime, 0xBB)
        runtime.map_ptr(base_b)
        assert not info_a.resident
        # Same-epoch device copy is not newer than the host copy.
        assert machine.clock.counters.get("dtoh_copies", 0) == copies_before
        assert machine.cpu_memory.read(base_a, UNIT_SIZE) == b"\xAA" * UNIT_SIZE

    def test_device_ptr_stable_across_evict_and_restore(self):
        """Translated pointers live in registers across an eviction;
        the unit must re-materialize at the address they were minted
        for, with the host image re-copied."""
        machine, runtime = fresh(heap_limit=2 * UNIT_SIZE)
        base, info = heap_unit(machine, runtime, 0xAA)
        translated = runtime.map_ptr(base + 8)
        minted = info.device_ptr
        assert translated == minted + 8

        runtime._evict(info)
        assert not info.resident and info.device_ptr == minted

        runtime._reupload(info)
        assert info.resident and info.device_ptr == minted
        assert machine.device.memory.read(minted, UNIT_SIZE) \
            == machine.cpu_memory.read(base, UNIT_SIZE)
        assert machine.clock.counters["device_restores"] == 1

    def test_evicted_range_never_reissued(self):
        """First-fit would hand the freed range to the next unit;
        the avoid list keeps reverse translation unambiguous."""
        machine, runtime = fresh(heap_limit=UNIT_SIZE)
        base_a, info_a = heap_unit(machine, runtime, 0xAA)
        runtime.map_ptr(base_a)
        minted = info_a.device_ptr
        base_b, info_b = heap_unit(machine, runtime, 0xBB)
        runtime.map_ptr(base_b)
        assert not info_a.resident
        assert info_b.device_ptr != minted


class TestSentinel:
    def test_unit_that_never_fits_gets_sentinel_range(self):
        machine, runtime = fresh(heap_limit=16)
        base, info = heap_unit(machine, runtime, 0xAA)
        translated = runtime.map_ptr(base + 8)
        assert info.device_ptr >= _SENTINEL_BASE
        assert translated == info.device_ptr + 8
        assert not info.resident
        assert machine.clock.counters["sentinel_units"] == 1

    def test_sentinel_unit_unmap_and_release_are_noops_on_device(self):
        """Host bytes are authoritative for a non-resident unit: the
        full map/unmap/release protocol completes without any device
        traffic or error."""
        machine, runtime = fresh(heap_limit=16)
        base, info = heap_unit(machine, runtime, 0xAA)
        runtime.map_ptr(base)
        runtime.global_epoch += 1
        runtime.unmap_ptr(base)
        runtime.release_ptr(base)
        assert info.ref_count == 0 and info.device_ptr is None
        assert machine.cpu_memory.read(base, UNIT_SIZE) == b"\xAA" * UNIT_SIZE


class TestTransientRetry:
    def test_map_rides_out_transfer_faults(self):
        plan = FaultPlan(seed=11, transfer_fail_rate=0.6,
                         max_consecutive=4)
        machine, runtime = fresh(plan=plan)
        base, info = heap_unit(machine, runtime, 0xAA)
        runtime.map_ptr(base)
        assert machine.device.memory.read(info.device_ptr, UNIT_SIZE) \
            == b"\xAA" * UNIT_SIZE
        # Make the device copy newer so unmap must copy back.
        machine.device.memory.write(info.device_ptr, b"\x22" * UNIT_SIZE)
        runtime.global_epoch += 1
        runtime.unmap_ptr(base)
        assert machine.cpu_memory.read(base, UNIT_SIZE) == b"\x22" * UNIT_SIZE
        assert machine.clock.counters["fault_retries"] > 0

        # A pointer-array unit uploads its translated pointers instead
        # of its host bytes.  Its element is already mapped, so the
        # payload is the only copy mapArray makes.
        array_base, array_info = heap_unit(machine, runtime, 0, size=16)
        machine.cpu_memory.write(array_base, struct.pack("<2Q", base + 8, 0))
        retries = machine.clock.counters["fault_retries"]
        runtime.map_array(array_base)
        assert machine.device.memory.read(array_info.device_ptr, 16) \
            == struct.pack("<2Q", info.device_ptr + 8, 0)
        assert machine.clock.counters["fault_retries"] > retries

    def test_backoff_charges_modelled_time(self):
        plan = FaultPlan(seed=11, transfer_fail_rate=0.6,
                         max_consecutive=4)
        clean_machine, clean_runtime = fresh()
        faulty_machine, faulty_runtime = fresh(plan=plan)
        for machine, runtime in ((clean_machine, clean_runtime),
                                 (faulty_machine, faulty_runtime)):
            base, _ = heap_unit(machine, runtime, 0xAA)
            runtime.map_ptr(base)
        assert faulty_machine.clock.comm_seconds \
            > clean_machine.clock.comm_seconds


dirty_mixes = st.lists(
    st.tuples(st.booleans(),      # kernel wrote the device copy
              st.booleans(),      # unit is read-only
              st.integers(1, 255)),
    min_size=1, max_size=6)


@settings(max_examples=50, deadline=None)
@given(dirty_mixes)
def test_eviction_write_back_preserves_host_bytes(mix):
    """Property: for an arbitrary mix of dirty/clean/read-only mapped
    units, evicting everything leaves each unit's host bytes equal to
    whichever image was authoritative -- the device copy if a kernel
    wrote it (and the unit is writable), the host copy otherwise."""
    machine, runtime = fresh(heap_limit=1 << 20)
    units = []
    for index, (dirty, read_only, fill) in enumerate(mix):
        base, info = heap_unit(machine, runtime, fill,
                               read_only=read_only)
        runtime.map_ptr(base)
        device_fill = 0 if not dirty else (fill ^ 0xFF) or 1
        if dirty:
            machine.device.memory.write(info.device_ptr,
                                        bytes([device_fill]) * UNIT_SIZE)
        units.append((base, info, fill, device_fill, dirty, read_only))
    # One kernel launch happened since every map.
    runtime.global_epoch += 1
    for base, info, fill, device_fill, dirty, read_only in units:
        runtime._evict(info)
        expected = fill if (read_only or not dirty) else device_fill
        assert machine.cpu_memory.read(base, UNIT_SIZE) \
            == bytes([expected]) * UNIT_SIZE, \
            f"unit at {base:#x} dirty={dirty} read_only={read_only}"
        assert not info.resident


#: Small, fast workloads covering globals (atax), malloc-heavy units
#: (cfd), and a malloc'd matrix with in-place update (lud).
FAST_CHAOS_SUBSET = ("atax", "cfd", "lud")


@pytest.mark.parametrize("name", FAST_CHAOS_SUBSET)
def test_fault_subset_byte_identical_with_sanitizer(name):
    """Tier-1 chaos slice: aggressive faults + a tight device heap,
    sanitizer armed; observables must match the clean run and the
    sanitizer must stay silent."""
    workload = get_workload(name)
    baseline = compile_and_run(workload.source, OptLevel.OPTIMIZED,
                               name=workload.name)
    config = CgcmConfig(
        opt_level=OptLevel.OPTIMIZED,
        faults=FaultPlan(seed=1234, alloc_fail_rate=0.5,
                         transfer_fail_rate=0.3, launch_fail_rate=0.3,
                         max_consecutive=4),
        device_heap_limit=64 << 10,
        sanitize=True)
    compiler = CgcmCompiler(config)
    result = compiler.execute(
        compiler.compile_source(workload.source, workload.name))
    assert result.observable() == baseline.observable()
    assert result.sanitizer_report is not None
    assert not result.sanitizer_report.violations


@pytest.mark.slow
def test_full_chaos_sweep_byte_identical():
    """All 24 workloads under every fault schedule (the headline
    acceptance sweep); run with ``-m slow``."""
    from repro.evaluation.faultbench import run_fault_bench

    bench = run_fault_bench()
    diverged = [f"{c.name}/{c.schedule}" for c in bench.comparisons
                if not c.ok]
    assert not diverged, f"observables diverged: {diverged}"
    good, total = bench.workloads_identical
    assert (good, total) == (24, 24)
