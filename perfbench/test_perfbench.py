"""Tests of the benchmark's own machinery.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import benchstats  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import suites  # noqa: E402
from ledger import Ledger, Patcher  # noqa: E402


class FakeClock:
    """A clock that only moves when the test says so."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


# -- self time -----------------------------------------------------------------


def test_self_time_machine_run_kernel_runtime_ops():
    clock = FakeClock()
    ledger = Ledger(clock=clock)
    ledger.enter("interp.cpu")          # Machine.run at t=0
    clock.t = 1
    ledger.enter("interp.kernel")       # launch_evaluated
    clock.t = 2
    ledger.enter("runtime.map")
    clock.t = 4
    ledger.exit()
    clock.t = 7
    ledger.exit()
    clock.t = 8
    ledger.enter("runtime.unmap")
    clock.t = 9
    ledger.exit()
    clock.t = 10
    assert ledger.exit() == 10
    self_s = ledger.self_s["sweep"]
    assert self_s["runtime.map"] == 2
    assert self_s["runtime.unmap"] == 1
    assert self_s["interp.kernel"] == 4     # 6 minus its map child
    assert self_s["interp.cpu"] == 3        # 10 minus kernel and unmap
    assert sum(self_s.values()) == 10
    parents = {name: parent for _, name, _, _, parent in ledger.spans}
    ids = {name: span_id for span_id, name, _, _, _ in ledger.spans}
    assert parents["runtime.map"] == ids["interp.kernel"]
    assert parents["interp.kernel"] == ids["interp.cpu"]
    assert parents["interp.cpu"] == 0


class FakeRuntime:
    """map_array maps its pointer array, then each element via map_ptr."""

    def __init__(self, clock: FakeClock):
        self.clock = clock

    def map_ptr(self, ptr):
        self.clock.t += 1.0
        return ptr

    def map_array(self, ptr):
        self.clock.t += 0.5
        return [self.map_ptr(ptr + i) for i in range(3)]


def test_self_time_map_array_nests_map_ptr():
    clock = FakeClock()
    ledger = Ledger(clock=clock)
    with Patcher(ledger) as patcher:
        patcher.method(FakeRuntime, "map_ptr", "runtime.map_ptr")
        patcher.method(FakeRuntime, "map_array", "runtime.map_array")
        assert FakeRuntime(clock).map_array(10) == [10, 11, 12]
    assert ledger.self_s["sweep"]["runtime.map_ptr"] == 3.0
    assert ledger.self_s["sweep"]["runtime.map_array"] == 0.5
    assert ledger.calls["sweep"]["runtime.map_ptr"] == 3
    # Restored: no wrapper left behind.
    assert "wrapper" not in FakeRuntime.map_ptr.__code__.co_name


def test_same_name_nesting_adds_up():
    clock = FakeClock()
    ledger = Ledger(clock=clock)
    with Patcher(ledger) as patcher:
        patcher.method(FakeRuntime, "map_ptr", "runtime.map")
        patcher.method(FakeRuntime, "map_array", "runtime.map")
        FakeRuntime(clock).map_array(0)
    assert ledger.self_s["sweep"]["runtime.map"] == 3.5
    assert ledger.calls["sweep"]["runtime.map"] == 4


def test_phases_and_span_cap():
    clock = FakeClock()
    ledger = Ledger(clock=clock, max_spans=1)
    ledger.phase = "setup"
    ledger.enter("frontend")
    clock.t += 2
    ledger.exit()
    ledger.phase = "sweep"
    ledger.enter("frontend")
    clock.t += 1
    ledger.exit()
    assert ledger.self_s["setup"]["frontend"] == 2
    assert ledger.self_s["sweep"]["frontend"] == 1
    assert len(ledger.spans) == 1 and ledger.dropped == 1
    trace = ledger.chrome_trace()
    assert trace["traceEvents"][0]["ph"] == "X"
    assert trace["otherData"]["dropped_spans"] == 1


def test_function_rebinding_reaches_importers():
    import repro.core.compiler as compiler
    import repro.ir.verifier as verifier
    original = verifier.verify_module
    with Patcher(Ledger()) as patcher:
        patcher.function(verifier, "verify_module", "ir.verifier")
        assert compiler.verify_module is verifier.verify_module
        assert verifier.verify_module is not original
    assert verifier.verify_module is original
    assert compiler.verify_module is original


def test_traced_run_self_times_sum_to_root_time():
    refs = run.load_refs()
    suite = suites.Paper24(refs["observables"], refs["pins"]["paper24"],
                           workloads=[_workload("gesummv")])
    ledger = Ledger()
    suite.ledger = ledger
    with layers.instrument(ledger):
        outcome = suites.UnitOutcome()
        suite.setup(outcome)
        for key in suite.keys():
            outcome = suite.run_unit(key)
            assert not outcome.failures, outcome.failures
    sweep = ledger.self_s["sweep"]
    roots = sum(end - start for _, name, start, end, parent in ledger.spans
                if parent == 0)
    assert sum(sweep.values()) == pytest.approx(roots, rel=1e-9)
    for name in ("api.compile", "frontend", "transforms.doall",
                 "interp.cpu", "interp.kernel", "runtime.map"):
        assert sweep[name] > 0, name
    assert set(sweep) <= set(layers.SELF_TIME_SPANS) | {
        "bench", "interp.srcgen.codegen"}
    from repro.interp.machine import Machine
    assert Machine.run.__name__ == "run"
    assert "wrapper" not in Machine.run.__code__.co_name


def test_sum_rule_checks_the_ledger_against_the_timer():
    clock = FakeClock()
    ledger = Ledger(clock=clock)
    ledger.enter("bench")
    clock.t = 1
    ledger.enter("interp.cpu")
    clock.t = 3
    ledger.exit()
    clock.t = 4
    ledger.exit()
    assert run.attributed_s(ledger) == 2
    assert run.sum_rule_failure(ledger, 4.0) == ""
    # Layer spans longer than the timed calls that hold them.
    assert "sum rule" in run.sum_rule_failure(ledger, 1.5)
    # Root spans far longer than the timed calls.
    assert "sum rule" in run.sum_rule_failure(ledger, 3.0)


# -- the percentile rule ---------------------------------------------------------


def test_percentile_rule():
    samples = [float(i) for i in range(1, 101)]
    assert benchstats.percentile(samples, 50) == 50.0
    assert benchstats.percentile(samples, 90) == 90.0
    assert benchstats.samples_beyond(100, 90) == 10
    assert benchstats.tail_supported(100, 90)
    assert not benchstats.tail_supported(99, 90)
    assert benchstats.samples_beyond(1, 90) == 0
    with pytest.raises(ValueError):
        benchstats.percentile([], 90)
    with pytest.raises(ValueError):
        benchstats.percentile(samples, 0)


# -- host speed ------------------------------------------------------------------


def test_host_speed_weights_probes_by_time():
    speed = benchstats.HostSpeed(clock=FakeClock(), reference_s=1.0)
    speed.probes = [(0.0, 1.0), (1.0, 1.0), (3.0, 2.0)]
    # 1 s at speed 1, then 2 s going from speed 1 to speed 1/2.
    assert speed.speed_since(0) == pytest.approx((1 + 2 * 0.75) / 3)
    assert speed.speed_since(2) == 0.5
    assert speed.median_factor() == 1.0


def test_host_speed_scales_a_call_less_its_inside_probes(monkeypatch):
    clock = FakeClock()
    speed = benchstats.HostSpeed(clock=clock, reference_s=1.0)
    # Probe runs: 3 before the call, 1 inside it, 3 after it.
    runs = iter([2.0, 2.0, 2.0, 3.0, 4.0, 4.0, 4.0])

    def probe_work():
        clock.t += next(runs)

    def call():
        clock.t += 5
        speed._on_alarm(None, None)   # as the timer signal would
        clock.t += 5

    monkeypatch.setattr(benchstats, "probe_work", probe_work)
    scaled = speed.scaled(call)
    assert speed.probes == [(6.0, 2.0), (14.0, 3.0), (31.0, 4.0)]
    assert speed.inside_s == 3.0
    mean_speed = (8 * (1 / 2 + 1 / 3) / 2 + 17 * (1 / 3 + 1 / 4) / 2) / 25
    assert scaled == pytest.approx(10 * mean_speed)


# -- failures count toward failed_share ------------------------------------------


def _workload(name):
    from repro.workloads import get_workload
    return get_workload(name)


def test_wrong_expected_output_is_a_failure():
    refs = run.load_refs()
    observables = json.loads(json.dumps(refs["observables"]))
    good = run.measure_once(suites.Paper24(
        observables, refs["pins"]["paper24"],
        workloads=[_workload("gesummv")]))
    assert good.failed == 0 and good.attempted == 6
    observables["gesummv"]["digest"] = "0" * 32
    bad = run.measure_once(suites.Paper24(
        observables, refs["pins"]["paper24"],
        workloads=[_workload("gesummv")]))
    assert bad.failed == 3
    assert 1.0 - bad.failed / bad.attempted == 0.5
    assert "tree-walker reference" in bad.failures[0]


def test_sanitizer_violation_is_a_failure(monkeypatch):
    # Seed one lost-update report into the real sanitizer: the program's
    # output still matches the oracle, so only the sanitizer objects.
    from repro.sanitizer.sanitizer import CommSanitizer
    from repro.sanitizer.violations import ViolationKind
    finish = CommSanitizer.finish

    def seeded_finish(self):
        if not self._finished:
            self._record(ViolationKind.LOST_UPDATE, "A", "seeded")
        return finish(self)

    monkeypatch.setattr(CommSanitizer, "finish", seeded_finish)
    suite = suites.Fuzz(0, None, count=1)
    total = run.measure_once(suite)
    assert total.attempted == 4
    assert total.failed == 1
    assert "sanitizer" in total.failures[0]
    assert suite.result_counts["fuzz-0-0"]["sanitizer.violations"] == 1


def test_generated_programs_pass():
    suite = suites.Fuzz(0, run.load_refs()["pins"]["fuzz-0"], count=2)
    total = run.measure_once(suite)
    assert total.failed == 0, total.failures
    assert total.attempted == 8


def test_determinism_guard_reports_a_changed_clock():
    suite = suites.Suite()
    result = types.SimpleNamespace(
        cpu_seconds=1.0, gpu_seconds=0.5, comm_seconds=0.25,
        critical_path_seconds=1.75, total_seconds=1.75, instructions=10,
        counters={"htod_copies": 1})
    assert suite.guard("p@optimized", result, "d") is None
    assert suite.guard("p@optimized", result, "d") is None
    result.gpu_seconds = 0.5000001
    assert "differ between passes" in suite.guard("p@optimized", result, "d")
    pinned = suites.Suite(pins={"p@optimized": "0" * 16})
    assert "pinned" in pinned.guard("p@optimized", result, "d")
