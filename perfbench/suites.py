"""The benchmark's three workloads and their untimed correctness checks.

A suite is a fixed set of *units*; one pass runs every unit once.
:meth:`Suite.run_unit` times only calls into ``repro`` (each one is a
root span when a ledger is attached) and then checks the results
outside the timed region:

* ``paper24`` -- the 24 paper programs at sequential, unoptimized and
  optimized, serial on one device, compiled during set-up.  Reference:
  digests of the tree-walker's observables at sequential
  (``refs.json``), which never come from the engine under test.
* ``overlap`` -- the same 24 programs at optimized with streams on a
  2-device ring, compiled during set-up.  Same reference.
* ``fuzz`` -- generated programs, each compiled at unoptimized and
  optimized in a fresh ``Session`` per pass, the optimized module
  linted, the unoptimized build run and the optimized build run under
  the sanitizer.  Reference: the generator's pure-Python oracle.

Every check that fails, every exception, and every modelled value or
count that differs from an earlier pass (or from the pinned value in
``refs.json``) is one failed attempt.
"""

from __future__ import annotations

import hashlib
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from benchstats import HostSpeed
from repro.api import Session
from repro.core.config import CgcmConfig, OptLevel
from repro.gpu.topology import Topology
from repro.scenarios.generator import generate_program
from repro.workloads import ALL_WORKLOADS

#: Programs per ``fuzz`` pass.
FUZZ_PROGRAMS = 60

clock = time.perf_counter


def observable_digest(exit_code: int, stdout: Sequence[str],
                      globals_image: Dict[str, bytes]) -> str:
    """Stable digest of everything a correct transform must preserve."""
    h = hashlib.sha256()
    h.update(f"exit={exit_code}\n".encode())
    for line in stdout:
        h.update(f"out={line}\n".encode())
    for name in sorted(globals_image):
        h.update(f"global={name}:".encode())
        h.update(globals_image[name])
        h.update(b"\n")
    return h.hexdigest()[:32]


def model_record(result) -> Dict:
    """The modelled clocks and counts of one run: deterministic."""
    return {"cpu_s": result.cpu_seconds, "gpu_s": result.gpu_seconds,
            "comm_s": result.comm_seconds,
            "critical_path_s": result.critical_path_seconds,
            "total_s": result.total_seconds,
            "insts": result.instructions,
            "counters": dict(sorted(result.counters.items()))}


def fingerprint(record: Dict, digest: str) -> str:
    text = repr((sorted((k, v) for k, v in record.items()
                        if k != "counters"),
                 sorted(record["counters"].items()), digest))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def static_insts(module) -> int:
    return sum(1 for fn in module.defined_functions()
               for _ in fn.instructions())


def compile_record(report) -> Dict[str, int]:
    return {"transforms.doall.kernels": len(report.doall_kernels),
            "transforms.glue_kernels.kernels": len(report.glue_kernels),
            "transforms.map_promotion.loops": report.promoted_loops,
            "transforms.alloca_promotion.allocas": report.promoted_allocas,
            "ir.static_insts": static_insts(report.module)}


def geomean(values: Sequence[float]) -> float:
    # Imported here: repro.evaluation is slow to import and only the
    # report needs it, after every timed region.
    from repro.evaluation.figure4 import geomean as figure4_geomean
    return figure4_geomean(values)


class UnitOutcome:
    """What one unit of a pass did: host times, attempts, failures.

    Every time is scaled to the reference host (``benchstats``) except
    ``raw_s``, the wall time of the unit's timed calls."""

    __slots__ = ("timed_s", "raw_s", "run_s", "compile_s", "attempted",
                 "failures")

    def __init__(self):
        self.timed_s = 0.0
        self.raw_s = 0.0
        #: (run unit, seconds) of every timed ``CompiledWorkload.run``.
        self.run_s: List[Tuple[str, float]] = []
        #: (compile unit, seconds) of every timed ``Session.compile``.
        self.compile_s: List[Tuple[str, float]] = []
        self.attempted = 0
        self.failures: List[str] = []


class Suite:
    """Common machinery: timed calls, the determinism guard, records."""

    name = ""

    def __init__(self, pins: Optional[Dict[str, str]] = None):
        #: Pinned fingerprints from refs.json (None: guard passes only).
        self.pins = pins
        self.ledger = None
        self.speed = HostSpeed()
        #: First-seen modelled record and fingerprint per run key.
        self.records: Dict[str, Dict] = {}
        self.fingerprints: Dict[str, str] = {}
        #: Per-pass layer counts read off the results (sanitizer
        #: violations, lint errors), first seen per unit.
        self.result_counts: Dict[str, Dict[str, int]] = {}

    # -- to implement ----------------------------------------------------------

    def keys(self) -> List[str]:
        raise NotImplementedError

    def setup(self, outcome: UnitOutcome) -> None:
        """Build everything the timed passes need; timed as set-up."""

    def begin_pass(self) -> None:
        """Called before the first unit of every pass."""

    def retime_compiles(self, outcome: UnitOutcome) -> None:
        """Time, between passes, compiles that the passes do not time."""

    def run_unit(self, key: str) -> UnitOutcome:
        raise NotImplementedError

    def modelled_speedup(self) -> float:
        raise NotImplementedError

    # -- shared helpers --------------------------------------------------------

    def timed(self, outcome: UnitOutcome, call: Callable, *args,
              attempt: bool = True):
        """Run one timed call into ``repro``; returns ``(value, dt)``
        with ``dt`` scaled to the reference host by the host-speed
        probes either side of the call and inside it.  The probes
        either side lie outside the timed region and the ledger's
        spans; those inside are taken off ``dt``.  ``attempt`` counts
        it as an attempted compile or run.  An exception is a failure
        and returns ``(None, dt)``."""
        if attempt:
            outcome.attempted += 1
        speed = self.speed
        first = speed.begin()
        inside = speed.inside_s
        ledger = self.ledger
        if ledger is not None:
            ledger.enter("bench")
        start = clock()
        try:
            with speed.sampling():
                value = call(*args)
            dt = clock() - start
        except Exception:  # the sweep must go on; record and report
            dt = clock() - start
            value = None
            outcome.failures.append(
                f"{getattr(call, '__qualname__', call)} raised:\n"
                + traceback.format_exc())
        finally:
            if ledger is not None:
                ledger.exit()
        speed.measure()
        dt -= speed.inside_s - inside
        outcome.raw_s += dt
        return value, dt * speed.speed_since(first)

    def guard(self, key: str, result, digest: str) -> Optional[str]:
        """Determinism guard: the same modelled clocks and counts on
        every pass and run.  Returns a failure message or None."""
        record = model_record(result)
        fp = fingerprint(record, digest)
        seen = self.fingerprints.get(key)
        if seen is None:
            self.fingerprints[key] = fp
            self.records[key] = record
        elif seen != fp:
            return (f"{key}: modelled clocks/counts differ between "
                    f"passes ({seen} then {fp})")
        if self.pins is not None:
            pinned = self.pins.get(key)
            if pinned != fp:
                return (f"{key}: modelled clocks/counts {fp} differ from "
                        f"the pinned {pinned} in refs.json")
        return None

    def pass_sum(self, field: str) -> float:
        """Sum of a modelled field over one pass (all run units)."""
        return sum(r[field] for r in self.records.values())

    def compile_totals(self) -> Dict[str, int]:
        """``CompileReport`` counts summed over one compile of every
        artifact of the workload."""
        totals: Dict[str, int] = {}
        for record in self.all_compile_records():
            for name, value in record.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def all_compile_records(self) -> List[Dict[str, int]]:
        """:func:`compile_record` of every artifact of one compile."""
        raise NotImplementedError

    def counter_sum(self, name: str) -> int:
        return sum(r["counters"].get(name, 0) for r in self.records.values())


class _PaperSuite(Suite):
    """The 24 paper programs, compiled during set-up."""

    def __init__(self, refs: Dict, pins: Optional[Dict[str, str]],
                 workloads=ALL_WORKLOADS):
        super().__init__(pins)
        self.refs = refs
        self.workloads = {w.name: w for w in workloads}
        self.artifacts: Dict[str, object] = {}

    def configs(self) -> List[Tuple[str, CgcmConfig]]:
        raise NotImplementedError

    def keys(self) -> List[str]:
        return [f"{name}@{tag}" for name in self.workloads
                for tag, _ in self.configs()]

    def setup(self, outcome: UnitOutcome) -> None:
        self.artifacts = {}  # free the last set-up's before compiling
        self.artifacts = self.compile_all(outcome)

    def retime_compiles(self, outcome: UnitOutcome) -> None:
        # The new artifacts are dropped: the passes keep running the
        # warmed-up ones.  Compile samples taken between passes see
        # the same stretch of host time as the run samples, not only
        # the few seconds of set-up.
        self.compile_all(outcome)

    def compile_all(self, outcome: UnitOutcome) -> Dict[str, object]:
        """Compile every artifact in a fresh session, timing each."""
        session = Session()
        artifacts = {}
        for name, workload in self.workloads.items():
            for tag, config in self.configs():
                key = f"{name}@{tag}"
                artifact, dt = self.timed(outcome, session.compile,
                                          workload.source, config, name)
                outcome.compile_s.append((key, dt))
                if artifact is not None:
                    artifacts[key] = artifact
        return artifacts

    def run_unit(self, key: str) -> UnitOutcome:
        outcome = UnitOutcome()
        artifact = self.artifacts.get(key)
        if artifact is None:
            outcome.attempted = 1
            outcome.failures.append(f"{key}: no compiled artifact")
            return outcome
        result, dt = self.timed(outcome, artifact.run)
        outcome.timed_s = dt
        outcome.run_s.append((key, dt))
        if result is None:
            return outcome
        name = key.split("@")[0]
        digest = observable_digest(result.exit_code, result.stdout,
                                   result.globals_image)
        expected = self.refs[name]["digest"]
        problems = []
        if digest != expected:
            problems.append(f"{key}: observable digest {digest} differs "
                            f"from the tree-walker reference {expected}")
        problem = self.guard(key, result, digest)
        if problem:
            problems.append(problem)
        if problems:
            outcome.failures.append("; ".join(problems))
        return outcome

    def all_compile_records(self):
        return [compile_record(a.report) for a in self.artifacts.values()]

    def _seq_s(self, name: str) -> float:
        return self.refs[name]["seq_s"]


class Paper24(_PaperSuite):
    name = "paper24"
    LEVELS = (OptLevel.SEQUENTIAL, OptLevel.UNOPTIMIZED, OptLevel.OPTIMIZED)

    def configs(self) -> List[Tuple[str, CgcmConfig]]:
        return [(level.value, CgcmConfig(opt_level=level))
                for level in self.LEVELS]

    def run_unit(self, key: str) -> UnitOutcome:
        outcome = super().run_unit(key)
        record = self.records.get(key)
        if key.endswith("@sequential") and record is not None:
            # Clock-for-clock contract: the fast engine's sequential
            # modelled time equals the tree-walker's.
            name = key.split("@")[0]
            if record["total_s"] != self._seq_s(name):
                outcome.failures.append(
                    f"{key}: modelled time {record['total_s']!r} differs "
                    f"from the tree-walker's {self._seq_s(name)!r}")
        return outcome

    def geomean_over(self, level: str) -> float:
        return geomean([self.records[f"{n}@sequential"]["total_s"]
                        / self.records[f"{n}@{level}"]["total_s"]
                        for n in self.workloads])

    def modelled_speedup(self) -> float:
        return self.geomean_over("optimized")


class Overlap(_PaperSuite):
    name = "overlap"

    def configs(self) -> List[Tuple[str, CgcmConfig]]:
        return [("streams-ring2",
                 CgcmConfig(streams=True, topology=Topology.ring(2)))]

    def modelled_speedup(self) -> float:
        return geomean([self._seq_s(n)
                        / self.records[f"{n}@streams-ring2"]
                        ["critical_path_s"]
                        for n in self.workloads])


class Fuzz(Suite):
    """Generated programs, compiled, linted, run and sanitized per pass."""

    name = "fuzz"
    UNOPT = CgcmConfig(opt_level=OptLevel.UNOPTIMIZED)
    OPT = CgcmConfig(sanitize=True)

    def __init__(self, fuzz_seed: int, pins: Optional[Dict[str, str]],
                 count: int = FUZZ_PROGRAMS):
        super().__init__(pins)
        self.fuzz_seed = fuzz_seed
        self.count = count
        self.programs = {}
        self.session = None
        #: First-seen ``compile_record`` per compiled artifact.
        self.compile_records: Dict[str, Dict[str, int]] = {}

    def keys(self) -> List[str]:
        return list(self.programs)

    def setup(self, outcome: UnitOutcome) -> None:
        self.programs = {p.name: p for p in (
            generate_program(self.fuzz_seed, i) for i in range(self.count))}

    def begin_pass(self) -> None:
        # A fresh session per pass: every compile is a cache miss.
        self.session = Session()

    def retime_compiles(self, outcome: UnitOutcome) -> None:
        # A pass compiles each program once per level, too few samples
        # for a median that one garbage-collection pause cannot move.
        session = Session()
        for key, program in self.programs.items():
            for tag, config in (("unoptimized", self.UNOPT),
                                ("optimized", self.OPT)):
                _, dt = self.timed(outcome, session.compile,
                                   program.source, config, key)
                outcome.compile_s.append((f"{key}@{tag}", dt))

    def run_unit(self, key: str) -> UnitOutcome:
        program = self.programs[key]
        outcome = UnitOutcome()
        compile_ = self.session.compile
        unopt, dt_u = self.timed(outcome, compile_, program.source,
                                 self.UNOPT, key)
        opt, dt_o = self.timed(outcome, compile_, program.source,
                               self.OPT, key)
        outcome.compile_s += [(f"{key}@unoptimized", dt_u),
                              (f"{key}@optimized", dt_o)]
        outcome.timed_s = dt_u + dt_o
        counts = {"staticcheck.errors": 0, "sanitizer.violations": 0}
        if opt is not None:
            lint, dt = self.timed(outcome, opt.lint, attempt=False)
            outcome.timed_s += dt
            if lint is not None:
                counts["staticcheck.errors"] = len(lint.errors)
                if lint.errors:
                    outcome.failures.append(
                        f"{key}: lint errors at optimized: "
                        + "; ".join(str(f) for f in lint.errors))
            self.compile_records.setdefault(f"{key}@optimized",
                                            compile_record(opt.report))
        if unopt is not None:
            self.compile_records.setdefault(f"{key}@unoptimized",
                                            compile_record(unopt.report))
        for tag, artifact in (("unoptimized", unopt), ("optimized", opt)):
            if artifact is None:
                continue
            result, dt = self.timed(outcome, artifact.run)
            outcome.timed_s += dt
            outcome.run_s.append((f"{key}@{tag}", dt))
            if result is None:
                continue
            problems = []
            if result.exit_code != 0 \
                    or result.stdout != program.expected_stdout:
                problems.append(
                    f"{key}@{tag}: stdout {result.stdout!r} (exit "
                    f"{result.exit_code}) differs from the oracle's "
                    f"{program.expected_stdout!r}")
            report = result.sanitizer_report
            if report is not None and report.violations:
                counts["sanitizer.violations"] += len(report.violations)
                problems.append(f"{key}@{tag}: sanitizer: "
                                + "; ".join(str(v)
                                            for v in report.violations))
            digest = observable_digest(result.exit_code, result.stdout,
                                       result.globals_image)
            problem = self.guard(f"{key}@{tag}", result, digest)
            if problem:
                problems.append(problem)
            if problems:
                outcome.failures.append("; ".join(problems))
        self.result_counts.setdefault(key, counts)
        return outcome

    def all_compile_records(self) -> List[Dict[str, int]]:
        return list(self.compile_records.values())

    def modelled_speedup(self) -> float:
        """Geomean of unoptimized over optimized modelled time: the
        generated programs have no sequential run in this workload."""
        return geomean([self.records[f"{n}@unoptimized"]["total_s"]
                        / self.records[f"{n}@optimized"]["total_s"]
                        for n in self.programs
                        if f"{n}@optimized" in self.records
                        and f"{n}@unoptimized" in self.records])
