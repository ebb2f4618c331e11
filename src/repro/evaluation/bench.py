"""Interpreter benchmark: the two execution engines, head to head.

Runs the full 24-workload sweep under the tree-walking reference
interpreter and the source codegen engine (``source``), asserting
along the way that the source engine is observationally identical to
the tree-walker -- same stdout, exit code, final global bytes,
dynamic instruction count, and *exactly* equal simulated-clock
totals -- and records the wall-clock numbers as the repo's perf
trajectory in ``BENCH_interp.json``.

Timing discipline: each engine runs ``repeat`` times per workload
and the **median** wall-clock is kept (with the min/max spread
recorded per workload), so one cold run or scheduler hiccup cannot
skew the headline number; the cyclic GC is paused inside the timed
region (and run to completion just before it, ``timeit``-style) so
garbage from one engine's run is never billed to the next.  The
headline ``geomean_speedup`` is the source engine versus the
tree-walker.  The committed ``BENCH_interp.json`` is the trajectory:
the CLI refuses to write it from fewer than
:data:`MIN_COMMITTED_REPEAT` repeats.

Exposed as ``python -m repro bench`` (no workload arguments) and to
the test-suite through the ``bench``-marked tests in
``tests/bench/``.  Divergence between the engines is always an
error; raw speed never gates CI.
"""

from __future__ import annotations

import gc
import json
import math
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.compiler import CgcmCompiler, ExecutionResult
from ..core.config import CgcmConfig, OptLevel
from ..workloads import ALL_WORKLOADS, Workload

#: Schema tag for BENCH_interp.json (bump on incompatible change).
BENCH_SCHEMA = "repro-bench-interp/3"

#: Engines the sweep measures: the tree-walker is the baseline and
#: oracle, the source engine the headline.
BENCH_ENGINES = ("tree", "source")

#: Fewest repeats the committed trajectory file may be written from.
MIN_COMMITTED_REPEAT = 3


@dataclass
class EngineComparison:
    """All engines' runs of one workload, with the timing numbers."""

    name: str
    level: str
    #: Median wall-clock per engine over the sweep's repeats.
    wall_s: Dict[str, float]
    #: (min, max) wall-clock spread per engine.
    spread_s: Dict[str, Tuple[float, float]]
    instructions: int
    sim_seconds: float
    mismatches: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def speedup_of(self, engine: str) -> float:
        """Tree-walker wall-clock over ``engine``'s (median over
        median)."""
        wall = self.wall_s[engine]
        if wall <= 0:
            return float("inf")
        return self.wall_s["tree"] / wall

    @property
    def speedup(self) -> float:
        """The headline ratio: tree over the source engine."""
        return self.speedup_of("source")

    def insts_per_s(self, engine: str) -> float:
        wall = self.wall_s[engine]
        if wall <= 0:
            return float("inf")
        return self.instructions / wall


@dataclass
class BenchReport:
    """The whole sweep: per-workload comparisons plus the geomean."""

    level: str
    repeat: int
    comparisons: List[EngineComparison] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.comparisons)

    def geomean_of(self, engine: str) -> float:
        speedups = [c.speedup_of(engine) for c in self.comparisons
                    if c.ok]
        if not speedups:
            return 0.0
        return math.exp(sum(math.log(s) for s in speedups)
                        / len(speedups))

    @property
    def geomean_speedup(self) -> float:
        """The headline geomean: source engine over the tree-walker."""
        return self.geomean_of("source")

    def to_json(self) -> Dict:
        return {
            "schema": BENCH_SCHEMA,
            "level": self.level,
            "engine": "source",
            "engines": list(BENCH_ENGINES),
            "repeat": self.repeat,
            "python": platform.python_version(),
            "geomean_speedup": round(self.geomean_speedup, 4),
            "workloads": [
                {
                    "name": c.name,
                    "wall_s": {engine: round(c.wall_s[engine], 6)
                               for engine in BENCH_ENGINES},
                    "spread_s": {
                        engine: [round(c.spread_s[engine][0], 6),
                                 round(c.spread_s[engine][1], 6)]
                        for engine in BENCH_ENGINES},
                    "speedup": round(c.speedup, 4),
                    "instructions": c.instructions,
                    "source_insts_per_s": round(
                        c.insts_per_s("source")),
                    "sim_seconds": c.sim_seconds,
                    "mismatches": list(c.mismatches),
                }
                for c in self.comparisons
            ],
        }

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_json(), handle, indent=2, sort_keys=False)
            handle.write("\n")

    def render(self) -> str:
        lines = [f"{'workload':16s} {'tree':>9s} "
                 f"{'source':>9s} {'speedup':>8s} {'Minsts/s':>9s}"]
        for c in self.comparisons:
            status = "" if c.ok else "  DIVERGED"
            lines.append(
                f"{c.name:16s} {c.wall_s['tree']:8.3f}s "
                f"{c.wall_s['source']:8.3f}s "
                f"{c.speedup:7.2f}x "
                f"{c.insts_per_s('source') / 1e6:9.2f}{status}")
        lines.append(f"{'geomean':16s} {'':9s} {'':9s} "
                     f"{self.geomean_speedup:7.2f}x")
        return "\n".join(lines)


def compare_engines(result_tree: ExecutionResult,
                    result_other: ExecutionResult) -> Tuple[str, ...]:
    """Every observable difference between two engines' runs (the
    first argument is the tree-walker oracle)."""
    mismatches: List[str] = []
    if result_tree.exit_code != result_other.exit_code:
        mismatches.append(
            f"exit code: tree {result_tree.exit_code}, "
            f"other {result_other.exit_code}")
    if result_tree.stdout != result_other.stdout:
        mismatches.append("stdout differs")
    if result_tree.globals_image != result_other.globals_image:
        names = sorted(
            name for name in set(result_tree.globals_image)
            | set(result_other.globals_image)
            if result_tree.globals_image.get(name)
            != result_other.globals_image.get(name))
        mismatches.append(f"final global bytes differ: {names}")
    tree_clock = (result_tree.cpu_seconds, result_tree.gpu_seconds,
                  result_tree.comm_seconds)
    other_clock = (result_other.cpu_seconds,
                   result_other.gpu_seconds,
                   result_other.comm_seconds)
    if tree_clock != other_clock:
        mismatches.append(f"simulated clock: tree {tree_clock}, "
                          f"other {other_clock}")
    if result_tree.counters != result_other.counters:
        mismatches.append("clock counters differ")
    if result_tree.instructions != result_other.instructions:
        mismatches.append(
            f"instruction count: tree {result_tree.instructions}, "
            f"other {result_other.instructions}")
    return tuple(mismatches)


def bench_workload(workload: Workload,
                   level: OptLevel = OptLevel.OPTIMIZED,
                   repeat: int = 1) -> EngineComparison:
    """Compile once, run under every engine, time the executions.

    Each engine runs ``repeat`` times; the median wall-clock is kept
    and the min/max spread recorded.  The equivalence checks run on
    every source-engine run against the tree-walker's result.
    """
    compiler = CgcmCompiler(CgcmConfig(opt_level=level))
    report = compiler.compile_source(workload.source, workload.name)
    repeat = max(1, repeat)
    walls: Dict[str, List[float]] = {e: [] for e in BENCH_ENGINES}
    results: Dict[str, ExecutionResult] = {}
    mismatches: Tuple[str, ...] = ()
    gc_was_enabled = gc.isenabled()
    for engine in BENCH_ENGINES:
        for _ in range(repeat):
            # timeit's discipline: collect outside the timed region,
            # pause the collector inside it, so garbage carried over
            # from a previous engine's run cannot bill a GC pause to
            # this one.
            gc.collect()
            gc.disable()
            try:
                start = time.perf_counter()
                result = compiler.execute(report, engine=engine)
                walls[engine].append(time.perf_counter() - start)
            finally:
                if gc_was_enabled:
                    gc.enable()
            results[engine] = result
            if engine != "tree" and not mismatches:
                mismatches = compare_engines(results["tree"], result)
    tree_result = results["tree"]
    return EngineComparison(
        name=workload.name, level=level.value,
        wall_s={e: statistics.median(walls[e]) for e in BENCH_ENGINES},
        spread_s={e: (min(walls[e]), max(walls[e]))
                  for e in BENCH_ENGINES},
        instructions=tree_result.instructions,
        sim_seconds=tree_result.total_seconds,
        mismatches=mismatches)


def run_engine_bench(workloads: Optional[List[Workload]] = None,
                     level: OptLevel = OptLevel.OPTIMIZED,
                     repeat: int = 1,
                     progress=None) -> BenchReport:
    """The full sweep; ``progress`` is an optional per-row callback."""
    if workloads is None:
        workloads = list(ALL_WORKLOADS)
    bench = BenchReport(level=level.value, repeat=repeat)
    for workload in workloads:
        comparison = bench_workload(workload, level, repeat)
        bench.comparisons.append(comparison)
        if progress is not None:
            progress(comparison)
    return bench
