"""Deterministic fault injection on the simulated driver (the resilience subsystem)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GpuLaunchError, GpuOomError, GpuTransferError
from repro.gpu import GpuDevice, SimClock
from repro.gpu.faults import MAX_FAULT_RETRIES, FaultInjector, FaultPlan


def device_with(plan=None, heap_limit=None):
    injector = FaultInjector(plan) if plan is not None else None
    return GpuDevice(SimClock(), fault_injector=injector,
                     heap_limit=heap_limit)


class TestFaultPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError, match="alloc_fail_rate"):
            FaultPlan(seed=1, alloc_fail_rate=1.0)
        with pytest.raises(ValueError, match="transfer_fail_rate"):
            FaultPlan(seed=1, transfer_fail_rate=-0.1)

    def test_burst_must_fit_inside_retry_budget(self):
        with pytest.raises(ValueError, match="max_consecutive"):
            FaultPlan(seed=1, max_consecutive=MAX_FAULT_RETRIES)
        with pytest.raises(ValueError, match="max_consecutive"):
            FaultPlan(seed=1, max_consecutive=0)

    def test_armed(self):
        assert not FaultPlan(seed=1).armed
        assert FaultPlan(seed=1, launch_fail_rate=0.1).armed

    def test_injector_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            FaultInjector(FaultPlan(alloc_fail_rate=0.5))


class TestInjectorSchedule:
    def test_same_seed_same_schedule(self):
        plan = FaultPlan(seed=42, alloc_fail_rate=0.4,
                         transfer_fail_rate=0.3, launch_fail_rate=0.2)

        def draw(injector):
            verdicts = []
            for i in range(200):
                if i % 3 == 0:
                    verdicts.append(injector.alloc_fault())
                elif i % 3 == 1:
                    verdicts.append(injector.transfer_fault("htod"))
                else:
                    verdicts.append(injector.launch_fault())
            return verdicts

        assert draw(FaultInjector(plan)) == draw(FaultInjector(plan))

    def test_zero_rate_site_never_draws(self):
        """A disarmed site consumes no PRNG state, so arming one site
        never perturbs another site's schedule."""
        alloc_only = FaultPlan(seed=9, alloc_fail_rate=0.4)
        both = FaultPlan(seed=9, alloc_fail_rate=0.4,
                         launch_fail_rate=0.0)
        a, b = FaultInjector(alloc_only), FaultInjector(both)
        for _ in range(100):
            assert b.launch_fault() is False
            assert a.alloc_fault() == b.alloc_fault()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95),
           st.integers(1, MAX_FAULT_RETRIES - 1))
    def test_burst_never_exceeds_retry_budget(self, seed, rate, burst):
        """The retry-loop soundness invariant: no run of consecutive
        failures at one site is ever as long as MAX_FAULT_RETRIES, so
        bounded retry always rides a transient out.  The cooldown
        after each burst is what stops back-to-back bursts from
        merging into a longer run."""
        injector = FaultInjector(
            FaultPlan(seed=seed, alloc_fail_rate=rate,
                      max_consecutive=burst))
        run = longest = 0
        for _ in range(2000):
            if injector.alloc_fault():
                run += 1
                longest = max(longest, run)
            else:
                run = 0
        assert longest <= burst < MAX_FAULT_RETRIES

    def test_injected_counts(self):
        injector = FaultInjector(FaultPlan(seed=3, alloc_fail_rate=0.5))
        fails = sum(injector.alloc_fault() for _ in range(100))
        assert injector.injected["alloc"] == fails == injector.total_injected
        assert fails > 0


class TestDeviceFaults:
    def test_injected_alloc_fault_is_transient_oom(self):
        device = device_with(FaultPlan(seed=0, alloc_fail_rate=0.9))
        with pytest.raises(GpuOomError) as exc:
            for _ in range(MAX_FAULT_RETRIES):
                device.mem_alloc(64)
        assert exc.value.transient
        assert device.clock.counters["injected_alloc_faults"] >= 1

    def test_heap_cap_is_nontransient_oom(self):
        device = device_with(heap_limit=128)
        device.mem_alloc(96)
        with pytest.raises(GpuOomError) as exc:
            device.mem_alloc(64)
        assert not exc.value.transient
        assert "capped" in str(exc.value)

    def test_transfer_fault_moves_no_bytes(self):
        device = device_with()
        address = device.mem_alloc(8)
        device.memcpy_htod(address, b"A" * 8)
        before = device.memory.read(address, 8)
        device.fault_injector = FaultInjector(
            FaultPlan(seed=1, transfer_fail_rate=0.9))
        with pytest.raises(GpuTransferError):
            for _ in range(MAX_FAULT_RETRIES):
                device.memcpy_htod(address, b"B" * 8)
        assert device.memory.read(address, 8) == before

    def test_launch_fault_is_typed(self):
        device = device_with(FaultPlan(seed=2, launch_fail_rate=0.9))
        with pytest.raises(GpuLaunchError) as exc:
            for _ in range(MAX_FAULT_RETRIES):
                device.launch_begin("kernel__doall1", 32)
        assert exc.value.kernel == "kernel__doall1"
        assert exc.value.grid == 32

    def test_mem_alloc_avoid_ranges(self):
        """The runtime passes evicted units' minted ranges as `avoid`
        so reverse translation stays unambiguous; the allocator must
        never hand them out again."""
        device = device_with()
        first = device.mem_alloc(64)
        device.mem_free(first)
        again = device.mem_alloc(64, avoid=[(first, first + 64)])
        assert not (first < again + 64 and again < first + 64)

    def test_mem_alloc_at_respects_heap_cap(self):
        device = device_with(heap_limit=128)
        address = device.mem_alloc(96)
        device.mem_free(address)
        assert device.mem_alloc_at(address, 96)
        assert not device.mem_alloc_at(address + 96, 96)
