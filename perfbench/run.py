#!/usr/bin/env python3
"""One command for the repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload paper24 --seed 0 --seconds 16 --trace 0
    python3 perfbench/run.py --workload fuzz --seed 3 --seconds 16 --trace 1
    python3 perfbench/run.py --refs check     # regenerate refs, fail on drift

A run sets the workload up (import, compiles, one warm-up pass), then
cycles through the workload's units in a ``--seed``-shuffled order for
``--seconds`` seconds (at least one whole pass), checking every output
outside the timed region.  Host times are scaled to a reference host
by a probe of the host's speed (``benchstats.HostSpeed``), so that the
load other tenants put on a shared host does not show in them.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` measures
half the time untraced, then attaches the span ledger and reports the
per-layer metrics, its own overhead, and writes a Chrome trace to
``.perfbench-out/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``LAYERS.md`` for what each metric
means and which layer should move it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import Dict, List

from benchstats import (MIN_BEYOND, HostSpeed, percentile, samples_beyond,
                        tail_supported)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs.json"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("paper24", "fuzz", "overlap")
#: ``fuzz`` program seed used by default, and the one kept back for
#: confirming a claim on programs it was not tuned on.
DEFAULT_FUZZ_SEED = 0
HELD_OUT_FUZZ_SEED = 1
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: Inside a timed call the host's speed is probed this often.
PROBE_EVERY_S = 0.025

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles the order units run in")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fuzz-seed", type=int, default=DEFAULT_FUZZ_SEED,
                        help=f"generator seed of the fuzz programs "
                             f"(held-out: {HELD_OUT_FUZZ_SEED})")
    parser.add_argument("--refs", choices=("check", "write"),
                        help="regenerate refs.json from the tree-walker "
                             "and the pinned modelled values")
    args = parser.parse_args(argv)
    if args.refs is None and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- measurement -------------------------------------------------------------


class Measurement:
    """Samples of one timed loop (or of set-up) over a suite's units.

    Samples are scaled to the reference host (``benchstats``), and a
    unit's time is the median of its samples."""

    def __init__(self):
        self.unit_s: Dict[str, List[float]] = defaultdict(list)
        self.raw_s = 0.0
        self.run_s: Dict[str, List[float]] = defaultdict(list)
        self.compile_s: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.units = 0
        self.passes = 0
        self.first_pass_rss_mb = 0.0

    def add(self, key: str, outcome) -> None:
        self.unit_s[key].append(outcome.timed_s)
        self.raw_s += outcome.raw_s
        self.units += 1
        self.add_samples(outcome)

    def add_samples(self, outcome) -> None:
        """Take ``outcome``'s samples and attempts but no unit time."""
        for unit, seconds in outcome.run_s:
            self.run_s[unit].append(seconds)
        for unit, seconds in outcome.compile_s:
            self.compile_s[unit].append(seconds)
        self.attempted += outcome.attempted
        self.failed += min(len(outcome.failures), max(outcome.attempted, 1))
        self.failures += outcome.failures

    def merge(self, other: "Measurement") -> None:
        """Count ``other``'s attempts and failures in this total."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures

    def sweep_s(self) -> float:
        """One pass: the sum over units of each unit's median time."""
        return sum(median(v) for v in self.unit_s.values())

    def mean_pass_s(self) -> float:
        """One pass: all timed samples over the number of passes."""
        return sum(sum(v) for v in self.unit_s.values()) / self.passes

    def run_times(self) -> List[float]:
        """Every run sample; percentiles are taken over these, and
        every run unit has as many (one per pass)."""
        return [t for v in self.run_s.values() for t in v]

    def compile_times(self) -> List[float]:
        """Each compile unit's median time; percentiles are taken over
        these, so one garbage-collection pause inside a 10 ms compile
        does not decide the tail."""
        return [median(v) for v in self.compile_s.values()]


def measure(suite, keys: List[str], seconds: float,
            retime_compiles: bool = False) -> Measurement:
    """Run whole passes over ``keys`` until ``seconds`` have passed.

    Whole passes keep every unit equally represented in the samples,
    so a percentile never depends on where the clock ran out.  With
    ``retime_compiles`` the suite also times, after each pass, the
    compiles its passes do not time (they are not part of a pass)."""
    from suites import UnitOutcome
    m = Measurement()
    deadline = clock() + seconds
    while True:
        suite.begin_pass()
        for key in keys:
            m.add(key, suite.run_unit(key))
        m.passes += 1
        if m.passes == 1:
            m.first_pass_rss_mb = peak_rss_mb()
        if retime_compiles:
            outcome = UnitOutcome()
            suite.retime_compiles(outcome)
            m.add_samples(outcome)
        if clock() >= deadline:
            return m


def measure_once(suite) -> Measurement:
    """Set ``suite`` up once and run one pass, checking every unit."""
    from suites import UnitOutcome
    total = Measurement()
    outcome = UnitOutcome()
    suite.setup(outcome)
    total.add_samples(outcome)
    suite.begin_pass()
    for key in suite.keys():
        total.add(key, suite.run_unit(key))
    return total


def set_up(suite, import_s: float, total: Measurement) -> float:
    """Set the suite up ``SETUP_REPEATS`` times, then warm it up with
    one pass; returns ``setup_s``, scaled to the reference host."""
    from suites import UnitOutcome
    times = []
    for _ in range(SETUP_REPEATS):
        outcome = UnitOutcome()
        times.append(suite.speed.scaled(lambda: suite.setup(outcome)))
        total.add_samples(outcome)
    warm_s = suite.speed.scaled(lambda: warm_up(suite, total))
    return import_s + median(times) + warm_s


def warm_up(suite, total: Measurement) -> None:
    """One untimed pass over compiled artifacts (srcgen codegen and
    first-touch caches); ``fuzz`` compiles per pass, so it has none."""
    if suite.name == "fuzz":
        return
    suite.begin_pass()
    for key in suite.keys():
        total.add_samples(suite.run_unit(key))


# -- metrics -----------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(suite, setup_s: float, m: Measurement,
               total: Measurement) -> Dict:
    sweep = m.sweep_s()
    runs = m.run_times()
    compiles = m.compile_times()
    values = {
        "setup_s": (setup_s, "s"),
        "sweep_s": (sweep, "s"),
        "run_s_p50": (median(runs), "s"),
        "run_s_p90": (percentile(runs, 90), "s"),
        "compile_s_p50": (median(compiles), "s"),
        "compile_s_p90": (percentile(compiles, 90), "s"),
        "sim_insts_per_s": (suite.pass_sum("insts") / sweep, "insts/s"),
        "programs_per_s": (len(suite.keys()) / sweep, "1/s"),
        "modelled_speedup": (suite.modelled_speedup(), "x"),
        "passed_share": (1.0 - total.failed / max(total.attempted, 1),
                         "ratio"),
        "peak_rss_mb": (m.first_pass_rss_mb, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


#: How far the ledger's root spans may read above the suite's own timer:
#: a root span also covers the two clock reads that bound the timed call.
SUM_RULE_TOLERANCE = 0.01


def attributed_s(ledger) -> float:
    """Sweep self time of every layer span: all but the ``bench`` roots."""
    sweep = ledger.self_s["sweep"]
    return sum(sweep.values()) - sweep.get("bench", 0.0)


def sum_rule_failure(ledger, timed_s: float) -> str:
    """Check the ledger against the suite's timer over the sweep.

    The layer spans lie inside the timed calls, so their self times
    cannot exceed ``timed_s``; the root spans enclose the timed calls,
    so their total may exceed it only by the clock reads.  Returns a
    failure message, or "" when both hold."""
    ledger_s = sum(ledger.self_s["sweep"].values())
    attributed = attributed_s(ledger)
    if attributed > timed_s * (1 + 1e-9) or \
            abs(ledger_s - timed_s) > SUM_RULE_TOLERANCE * timed_s:
        return (f"sum rule: layer self times {attributed:.6f} s and root "
                f"spans {ledger_s:.6f} s against {timed_s:.6f} s timed")
    return ""


def per_layer(suite, ledger, untraced: Measurement, traced: Measurement,
              setup_wall: Dict[str, float]) -> Dict:
    from layers import COMPILE_COUNTERS, RUN_CALL_SPANS, SELF_TIME_SPANS
    passes = traced.passes
    sweep_self = ledger.self_s["sweep"]
    sweep_calls = ledger.calls["sweep"]
    setup_self = ledger.self_s["setup"]
    values = {}

    def per_pass(table, name):
        return table.get(name, 0) / passes

    for name in SELF_TIME_SPANS:
        values[f"{name}.self_s"] = (per_pass(sweep_self, name), "s")
    values["interp.srcgen.codegen_s"] = (
        per_pass(sweep_self, "interp.srcgen.codegen"), "s")
    unknown = set(sweep_self) - set(SELF_TIME_SPANS) \
        - {"interp.srcgen.codegen", "bench"}
    if unknown:
        raise RuntimeError(f"spans missing from the ledger report: "
                           f"{sorted(unknown)}")
    # The suite's own timer, as a mean per pass: unscaled against the
    # ledger's spans, scaled on both sides of the overhead.
    traced_sweep = traced.raw_s / passes
    values["unattributed.self_s"] = (
        traced_sweep - attributed_s(ledger) / passes, "s")
    values["trace.sweep_s"] = (traced_sweep, "s")
    values["trace.overhead_x"] = (
        traced.mean_pass_s() / untraced.mean_pass_s(), "x")
    values["trace.spans"] = (sum(sweep_calls.values()) / passes, "count")

    def compile_side(setup, sweep, name):
        # One compile of the workload's artifacts: in set-up on
        # paper24/overlap, in every pass on fuzz.
        return setup.get(name, 0) + per_pass(sweep, name)

    values["frontend.calls"] = (
        compile_side(ledger.calls["setup"], sweep_calls, "frontend"),
        "count")
    for name in COMPILE_COUNTERS:
        values[name] = (compile_side(ledger.counts["setup"],
                                     ledger.counts["sweep"], name), "count")
    for name in RUN_CALL_SPANS:
        values[f"{name}.calls"] = (per_pass(sweep_calls, name), "count")
    values["interp.launches"] = (per_pass(sweep_calls, "interp.kernel"),
                                 "count")
    for name, value in sorted(suite.compile_totals().items()):
        values[name] = (value, "count")
    values["runtime.guard_syncs"] = (
        per_pass(ledger.counts["sweep"], "runtime.guard_syncs"), "count")

    # Modelled (simulated-clock) totals over one pass.
    values["interp.insts"] = (suite.pass_sum("insts"), "count")
    values["gpu.modelled_cpu_s"] = (suite.pass_sum("cpu_s"), "s")
    values["gpu.modelled_gpu_s"] = (suite.pass_sum("gpu_s"), "s")
    values["gpu.modelled_comm_s"] = (suite.pass_sum("comm_s"), "s")
    values["gpu.critical_path_s"] = (suite.pass_sum("critical_path_s"), "s")
    for name in ("htod_bytes", "dtoh_bytes"):
        values[f"gpu.{name}"] = (suite.counter_sum(name), "B")
    for name in ("htod_copies", "dtoh_copies"):
        values[f"gpu.{name}"] = (suite.counter_sum(name), "count")
    values["multigpu.p2p_bytes"] = (suite.counter_sum("p2p_bytes"), "B")
    values["multigpu.multi_device_launches"] = (
        suite.counter_sum("multi_device_launches"), "count")
    for name in ("sanitizer.violations", "staticcheck.errors"):
        values[name] = (sum(c[name] for c in suite.result_counts.values()),
                        "count")

    # Set-up under the ledger: compiling every artifact (paper24,
    # overlap) or generating the programs (fuzz), then the warm-up.
    values["setup.prepare_s"] = (setup_wall["prepare"], "s")
    values["setup.warmup_s"] = (setup_wall["warmup"], "s")
    values["setup.frontend.self_s"] = (setup_self.get("frontend", 0.0), "s")
    values["setup.transforms.self_s"] = (
        sum(v for k, v in setup_self.items()
            if k.startswith("transforms.") or k == "ir.verifier"), "s")
    values["setup.interp.srcgen.codegen_s"] = (
        setup_self.get("interp.srcgen.codegen", 0.0), "s")
    values["host.slowdown_x"] = (suite.speed.median_factor(), "x")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# -- reporting ---------------------------------------------------------------


def report(suite, args, metrics: Dict, total: Measurement,
           m: Measurement) -> None:
    print(f"perfbench {suite.name}: seed={args.seed} seconds={args.seconds}"
          f" trace={args.trace}"
          + (f" fuzz_seed={args.fuzz_seed}" if suite.name == "fuzz" else "")
          + f" passes={m.passes} units={m.units}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"  host times are scaled to the reference host; the host ran "
          f"{suite.speed.median_factor():.3f}x slower (median of "
          f"{len(suite.speed.probes)} probes), and the timed calls of "
          f"one pass took {m.raw_s / m.passes:.6g} s of wall time")
    share = total.failed / max(total.attempted, 1)
    print(f"  {'failed_share':34s} {share:.6g} ratio "
          f"({total.failed}/{total.attempted} attempted compiles and runs)")
    n = len(m.run_times())
    print(f"  run_s samples: {n} over {len(m.run_s)} run units; p90 has "
          f"{samples_beyond(n, 90)} beyond it"
          + ("" if tail_supported(n, 90)
             else f" (fewer than {MIN_BEYOND}: read it as indicative)"))
    if m.compile_s:
        print(f"  compile_s: percentiles over {len(m.compile_s)} compile "
              f"units of each unit's median of "
              f"{min(len(v) for v in m.compile_s.values())}+ samples")
    from repro.evaluation.figure4 import PAPER_GEOMEANS
    speedup = suite.modelled_speedup()
    if suite.name == "fuzz":
        print(f"  modelled speedup {speedup:.4f}x (unoptimized over "
              "optimized; the paper has no counterpart)")
    else:
        paper = PAPER_GEOMEANS["optimized"]
        print(f"  modelled speedup {speedup:.4f}x; paper optimized geomean "
              f"{paper}x (model/paper {speedup / paper:.3f})")
    if suite.name == "paper24":
        unopt = suite.geomean_over("unoptimized")
        paper_u = PAPER_GEOMEANS["unoptimized"]
        print(f"  unoptimized geomean {unopt:.4f}x; paper {paper_u}x "
              f"(model/paper {unopt / paper_u:.3f})")
    for failure in total.failures[:5]:
        print("FAILURE: " + failure, file=sys.stderr)


def result_line(total: Measurement, metrics: Dict) -> str:
    return json.dumps({"correct": total.failed == 0,
                       "attempted": total.attempted,
                       "failed": total.failed, "metrics": metrics})


# -- refs --------------------------------------------------------------------


def load_refs() -> Dict:
    with open(REFS) as handle:
        return json.load(handle)


def make_suite(workload: str, refs: Dict, fuzz_seed: int):
    import suites
    pins = refs["pins"]
    if workload == "paper24":
        return suites.Paper24(refs["observables"], pins["paper24"])
    if workload == "overlap":
        return suites.Overlap(refs["observables"], pins["overlap"])
    return suites.Fuzz(fuzz_seed, pins.get(f"fuzz-{fuzz_seed}"))


def regenerate_refs() -> Dict:
    """Observables of the tree-walker at sequential, plus the pinned
    fingerprints of one pass of each workload."""
    import suites
    from repro.api import Session
    from repro.core.config import CgcmConfig, OptLevel
    from repro.workloads import ALL_WORKLOADS
    session = Session()
    tree = CgcmConfig(opt_level=OptLevel.SEQUENTIAL, engine="tree")
    observables = {}
    for workload in ALL_WORKLOADS:
        result = session.compile(workload.source, tree, workload.name).run()
        observables[workload.name] = {
            "digest": suites.observable_digest(
                result.exit_code, result.stdout, result.globals_image),
            "seq_s": result.total_seconds}
    pins = {}
    candidates = [("paper24", suites.Paper24(observables, None)),
                  ("overlap", suites.Overlap(observables, None))]
    candidates += [(f"fuzz-{seed}", suites.Fuzz(seed, None))
                   for seed in (DEFAULT_FUZZ_SEED, HELD_OUT_FUZZ_SEED)]
    for label, suite in candidates:
        total = measure_once(suite)
        if total.failed:
            raise RuntimeError(f"{label}: {total.failed} failures while "
                               f"pinning:\n" + "\n".join(total.failures))
        pins[label] = dict(sorted(suite.fingerprints.items()))
    return {"observables": observables, "pins": pins}


def refs_mode(mode: str) -> int:
    fresh = regenerate_refs()
    if mode == "write":
        with open(REFS, "w") as handle:
            json.dump(fresh, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {REFS.relative_to(ROOT)}")
        return 0
    stored = load_refs()
    drift = []
    for section in ("observables", "pins"):
        for label in sorted(set(stored[section]) | set(fresh[section])):
            if stored[section].get(label) != fresh[section].get(label):
                drift.append(f"{section}/{label}")
    for item in drift:
        print(f"drift: {item}", file=sys.stderr)
    print(f"refs check: {len(drift)} drifted entries")
    return 1 if drift else 0


# -- main --------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    # Probes inside timed calls would land in the ledger's spans.
    speed = HostSpeed(every_s=0 if args.trace else PROBE_EVERY_S)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        # Imports repro: part of set-up.
        import_s = speed.scaled(lambda: importlib.import_module("suites"))
    except ImportError as exc:
        print(f"perfbench: cannot import the program from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.refs:
        return refs_mode(args.refs)
    if not REFS.is_file():
        print(f"perfbench: missing {REFS}", file=sys.stderr)
        return 2
    suite = make_suite(args.workload, load_refs(), args.fuzz_seed)
    suite.speed = speed
    total = Measurement()
    setup_s = set_up(suite, import_s, total)
    keys = suite.keys()
    random.Random(args.seed).shuffle(keys)

    if args.trace == 0:
        m = measure(suite, keys, args.seconds, retime_compiles=True)
        # The set-up's compiles are compile samples too.
        for unit, seconds in total.compile_s.items():
            m.compile_s[unit] += seconds
        total.merge(m)
        metrics = end_to_end(suite, setup_s, m, total)
    else:
        m = measure(suite, keys, args.seconds / 2)
        total.merge(m)
        metrics = traced_run(suite, keys, args, m, total)
    report(suite, args, metrics, total, m)
    print(result_line(total, metrics))
    return 0


def traced_run(suite, keys, args, untraced: Measurement,
               total: Measurement) -> Dict:
    """Set up and measure again with the ledger attached."""
    from ledger import Ledger
    from layers import instrument
    from suites import UnitOutcome
    ledger = Ledger()
    suite.ledger = ledger
    setup_wall = {}
    with instrument(ledger):
        ledger.phase = "setup"
        outcome = UnitOutcome()
        begin = clock()
        suite.setup(outcome)
        setup_wall["prepare"] = clock() - begin
        total.add_samples(outcome)
        begin = clock()
        warm_up(suite, total)
        setup_wall["warmup"] = clock() - begin
        ledger.phase = "sweep"
        traced = measure(suite, keys, args.seconds / 2)
    suite.ledger = None
    total.merge(traced)
    problem = sum_rule_failure(ledger, traced.raw_s)
    total.attempted += 1
    if problem:
        total.failed += 1
        total.failures.append(problem)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{suite.name}-seed{args.seed}.json"
    ledger.write_chrome_trace(str(path))
    print(f"chrome trace: {path.relative_to(ROOT)}")
    return per_layer(suite, ledger, untraced, traced, setup_wall)


if __name__ == "__main__":
    sys.exit(main())
