"""Command-line interface: compile and simulate MiniC programs.

Usage::

    python -m repro run <workload-or-source> [--level optimized]
    python -m repro run program.c [--faults SEED] [--heap-limit BYTES]
    python -m repro run program.c [--validate] [--streams]
    python -m repro emit-ir <workload-or-source> [--level unoptimized]
    python -m repro bench [<workload> ...] [--repeat 3]
    python -m repro bench --streams [--out BENCH_streams.json]
    python -m repro faultbench [<workload> ...] [--out BENCH_faults.json]
    python -m repro trace <workload-or-source> [--streams] [--out t.json]
    python -m repro sanitize <workload-or-source> [...] [--level opt]
    python -m repro lint [<workload-or-source> ...] [--json] [--sarif]
    python -m repro lint [--corpus] [--faults SEED] [--validate]
    python -m repro fuzz [--seed N] [--count M] [--slow] [--artifacts D]
    python -m repro serve [--clients N] [--policy fair] [--tenants SPEC]
    python -m repro servebench [--clients 10 100 1000] [--out F.json]
    python -m repro list

``run`` compiles a MiniC source file (or a named workload) at the
chosen optimization level and executes it on the simulated platform;
``emit-ir`` prints the transformed IR; ``bench`` with workload names
runs them through all four configurations, with no names runs the
full 24-workload tree-vs-source engine sweep (``BENCH_interp.json``,
never written from fewer than 3 repeats), and with
``--streams`` runs the serial-vs-overlapped sweep
(``BENCH_streams.json``); ``faultbench`` runs the chaos sweep -- every
workload under seeded fault schedules and device-heap caps, checking
byte-identical observables and reporting recovery counters
(``BENCH_faults.json``); ``trace`` dumps one run's timeline as
Chrome trace-event JSON for ``chrome://tracing``; ``sanitize`` runs
the CPU-vs-GPU differential oracle with the communication sanitizer
armed; ``lint`` runs the static communication verifier, DOALL race
auditor, and async happens-before auditor over post-pipeline IR
(``--corpus`` self-checks the seeded-defect corpus, ``--sarif`` emits
a SARIF 2.1.0 log); ``list`` shows the 24 available workloads.

``--validate`` (on ``run``, ``lint``, and ``fuzz``) arms translation
validation: after each optimize-stage pass the pipeline checks the
pass's declared legality contract on the before/after IR pair and
fails the compile on any violation.

``run --faults SEED`` arms deterministic driver-fault injection (the
resilient runtime rides the faults out and must print the same
output); ``--heap-limit BYTES`` caps the device heap to force LRU
eviction and, when nothing fits, CPU-fallback launches.

``fuzz`` runs the scenario engine: generate ``--count`` novel MiniC
programs from ``--seed`` (deterministic: same seed, same programs,
same verdicts) and check each against the full differential property
matrix -- CPU-reference oracle, level equivalence, engine equivalence
(clock-for-clock), streams on/off, sanitizer cleanliness, static-check
cleanliness, and fault-injection byte-identity.  Failures are
minimized and written under ``--artifacts``.

``serve`` drives the compile-once serve-many request loop on the
built-in mix: ``--clients`` concurrent requests are admitted, batched,
and executed in simulated time with shared read-only device mappings
and per-tenant quotas (``--tenants "gold,tight=24576"`` caps tenant
device heaps); ``servebench`` sweeps clients x cache x sharing and
writes ``BENCH_serve.json``.  ``run``/``fuzz`` accept
``--cache-stats`` to print the artifact-cache counters
(``repro.api.cache_stats()``), and ``trace --serve N`` dumps a serve
run's timeline with one track per request.

Exit codes: 0 success; 1 the program or a check failed (nonzero
program exit, divergence, sanitizer or lint findings); 2 bad input
(MiniC syntax or type error, malformed IR, conflicting options,
unknown workload, a file that cannot be read or written, failed
translation validation, bad command line); 3 any other error raised
while compiling or running.  Failures with code 2 or 3 print one
``repro: <message>`` line on stderr, no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from .core import CgcmCompiler, CgcmConfig, OptLevel
from .errors import (ConfigError, FrontendError, IRParseError, ReproError,
                     TransformValidationError, UnknownWorkloadError)
from .evaluation import run_benchmark
from .interp.trace import render_schedule
from .ir import module_to_str
from .workloads import ALL_WORKLOADS, get_workload, workload_names

_LEVELS = {level.value: level for level in OptLevel}

#: Errors that mean the input was bad (exit 2); any other
#: :class:`ReproError` exits 3.
_INPUT_ERRORS = (FrontendError, IRParseError, ConfigError,
                 UnknownWorkloadError, OSError)

_EXIT_CODES = """\
exit codes:
  0  success
  1  the program or a check failed (nonzero program exit, divergence,
     sanitizer or lint findings)
  2  bad input: MiniC syntax/type error, malformed IR, conflicting
     options, unknown workload, a file that cannot be read or
     written, failed translation validation, bad command line
  3  any other error raised while compiling or running
codes 2 and 3 print one 'repro: <message>' line on stderr"""


class _Parser(argparse.ArgumentParser):
    """Command-line errors are one ``repro:`` line and exit 2."""

    def error(self, message: str):
        self.exit(2, f"repro: {message} (see '{self.prog} --help')\n")


def _parent(*specs) -> argparse.ArgumentParser:
    """A reusable flag group: an ``add_help=False`` parent parser.

    Each spec is ``(args_tuple, kwargs_dict)`` for one
    ``add_argument`` call.  Subcommands opt into a group via
    ``parents=[...]`` instead of repeating the flag definitions.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for flags, kwargs in specs:
        parent.add_argument(*flags, **kwargs)
    return parent


_LEVEL_PARENT = _parent((("--level",), dict(
    choices=sorted(_LEVELS), default="optimized",
    help="pipeline level: sequential (CPU only), unoptimized "
         "(communication management), optimized (all three "
         "communication optimizations)")))

_ENGINE_PARENT = _parent((("--engine",), dict(
    choices=("source", "tree"), default="source",
    help="execution engine: source (Python source codegen, the fast "
         "path) or tree (tree-walking reference interpreter)")))

_STREAMS_PARENT = _parent((("--streams",), dict(
    action="store_true",
    help="enable the streams subsystem: comm-overlap transform, "
         "asynchronous transfers/launches, and overlap-aware "
         "elapsed time")))

_FAULTS_PARENT = _parent((("--faults",), dict(
    type=int, default=None, metavar="SEED",
    help="arm deterministic driver-fault injection with this seed "
         "(the resilient runtime must ride the faults out)")))

_HEAP_PARENT = _parent((("--heap-limit",), dict(
    type=int, default=None, metavar="BYTES",
    help="cap the device heap to force eviction and CPU-fallback "
         "launches")))

_VALIDATE_PARENT = _parent((("--validate",), dict(
    action="store_true",
    help="translation validation: check each optimize-stage "
         "pass's legality contract on its before/after IR pair "
         "and fail on any violation")))

_SANITIZE_PARENT = _parent((("--sanitize",), dict(
    action="store_true",
    help="arm the communication sanitizer on the run(s)")))

_DEVICES_PARENT = _parent(
    (("--devices",), dict(
        type=int, default=1, metavar="N",
        help="simulate N GPUs: allocation units are partitioned "
             "across devices and DOALL grids may shard (implies "
             "streams; default 1)")),
    (("--topology",), dict(
        choices=("single", "ring", "full"), default="full",
        help="inter-device link topology for --devices > 1 "
             "(default full: every device pair has a direct link)")))


def _topology_from_args(args: argparse.Namespace):
    """The CLI's ``--devices``/``--topology`` as a Topology, or None."""
    devices = getattr(args, "devices", 1)
    if devices is None or devices <= 1:
        return None
    from .gpu.topology import Topology
    return Topology.build(getattr(args, "topology", "full"), devices)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="CGCM (PLDI 2011) reproduction: compile and "
                    "simulate MiniC programs",
        epilog=_EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    run_cmd = commands.add_parser(
        "run", help="compile and execute",
        parents=[_LEVEL_PARENT, _ENGINE_PARENT, _STREAMS_PARENT,
                 _FAULTS_PARENT, _HEAP_PARENT, _VALIDATE_PARENT,
                 _SANITIZE_PARENT, _DEVICES_PARENT])
    run_cmd.add_argument("source", help="workload name (see 'list') or "
                                        "MiniC source path")
    run_cmd.add_argument("--trace", action="store_true",
                         help="draw the execution schedule (Figure 2 "
                              "style)")
    run_cmd.add_argument("--stats", action="store_true",
                         help="print timing breakdown and counters")
    run_cmd.add_argument("--cache-stats", action="store_true",
                         help="print artifact-cache counters "
                              "(hits/misses/evictions/entries) after "
                              "the run")

    emit_cmd = commands.add_parser(
        "emit-ir", help="print the transformed IR",
        parents=[_LEVEL_PARENT, _STREAMS_PARENT])
    emit_cmd.add_argument("source", help="workload name (see 'list') or "
                                         "MiniC source path")

    trace_cmd = commands.add_parser(
        "trace",
        help="dump one run's timeline as Chrome trace-event JSON "
             "(load in chrome://tracing or ui.perfetto.dev)",
        parents=[_LEVEL_PARENT, _ENGINE_PARENT, _STREAMS_PARENT,
                 _DEVICES_PARENT])
    trace_cmd.add_argument(
        "target", nargs="?", default=None,
        help="workload name (see 'list') or MiniC source path "
             "(not used with --serve)")
    trace_cmd.add_argument(
        "--serve", type=int, default=None, metavar="CLIENTS",
        help="trace a serve run of this many concurrent mix requests "
             "instead of one workload (one track per request: "
             "admission, queue wait, compile, transfer, launch)")
    trace_cmd.add_argument(
        "--out", default="-",
        help="output path (default: stdout)")

    bench_cmd = commands.add_parser(
        "bench",
        help="with names: run workloads through all configurations; "
             "with no names: tree-vs-source engine speedup sweep",
        parents=[_STREAMS_PARENT, _DEVICES_PARENT])
    bench_cmd.add_argument("workloads", nargs="*",
                           help="workload names (see 'list'); omit for "
                                "the engine sweep")
    bench_cmd.add_argument("--out", default=None,
                           help="sweeps: where to write the JSON report "
                                "(default BENCH_interp.json, or "
                                "BENCH_streams.json with --streams)")
    bench_cmd.add_argument("--repeat", type=int, default=3,
                           help="engine sweep: timing runs per engine "
                                "per workload (the median is kept; "
                                "min/max record the spread; default 3, "
                                "the least BENCH_interp.json is "
                                "written from)")

    multibench_cmd = commands.add_parser(
        "multibench",
        help="multi-GPU sweep: device counts x workloads, byte-"
             "identity checked against the single-device baseline")
    multibench_cmd.add_argument(
        "workloads", nargs="*",
        help="workload names (see 'list'); omit for all 24")
    multibench_cmd.add_argument(
        "--devices", type=int, nargs="*", default=None, metavar="N",
        help="device counts to sweep (default: 1 2 4 8)")
    multibench_cmd.add_argument(
        "--topology", choices=("single", "ring", "full"),
        default="full",
        help="inter-device link topology (default full)")
    multibench_cmd.add_argument(
        "--out", default="BENCH_multigpu.json",
        help="where to write the JSON report (default "
             "BENCH_multigpu.json)")

    faultbench_cmd = commands.add_parser(
        "faultbench",
        help="chaos sweep: every workload under seeded fault schedules "
             "and device-heap caps, observables byte-checked")
    faultbench_cmd.add_argument(
        "workloads", nargs="*",
        help="workload names (see 'list'); omit for all 24")
    faultbench_cmd.add_argument(
        "--out", default="BENCH_faults.json",
        help="where to write the JSON report (default "
             "BENCH_faults.json)")

    sanitize_cmd = commands.add_parser(
        "sanitize",
        help="run the CPU-vs-GPU differential oracle under the "
             "communication sanitizer",
        parents=[_ENGINE_PARENT])
    sanitize_cmd.add_argument(
        "targets", nargs="+",
        help="workload names, MiniC source paths, or 'all'")
    sanitize_cmd.add_argument(
        "--level", choices=("unoptimized", "optimized"),
        default="optimized",
        help="pipeline level for the GPU-managed subject run")
    sanitize_cmd.add_argument(
        "--verbose", action="store_true",
        help="print sanitizer statistics for clean runs too")

    lint_cmd = commands.add_parser(
        "lint",
        help="static communication verifier and DOALL race auditor",
        parents=[_STREAMS_PARENT, _FAULTS_PARENT, _VALIDATE_PARENT])
    lint_cmd.add_argument(
        "targets", nargs="*",
        help="workload names, MiniC source paths, or 'all' (default: "
             "all; with --corpus and no targets, only the corpus runs)")
    lint_cmd.add_argument(
        "--level", choices=("unoptimized", "optimized"),
        default="optimized",
        help="pipeline level to lint the post-pipeline IR of")
    lint_cmd.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit machine-readable findings as JSON (deterministic "
             "order, stable per-finding fingerprints)")
    lint_cmd.add_argument(
        "--sarif", action="store_true", dest="as_sarif",
        help="emit findings as a SARIF 2.1.0 log (one run per module)")
    lint_cmd.add_argument(
        "--corpus", action="store_true",
        help="also self-check the seeded-defect corpus (every seeded "
             "bug must be flagged, every clean control must pass)")

    fuzz_cmd = commands.add_parser(
        "fuzz",
        help="scenario engine: generate MiniC programs and check the "
             "full differential property matrix on each",
        parents=[_VALIDATE_PARENT])
    fuzz_cmd.add_argument("--seed", type=int, default=0,
                          help="generation seed (default 0); the run is "
                               "fully determined by (seed, count)")
    fuzz_cmd.add_argument("--count", type=int, default=100,
                          help="number of programs to generate "
                               "(default 100)")
    fuzz_cmd.add_argument("--slow", action="store_true",
                          help="widen every property across extra "
                               "levels and fault/pressure schedules")
    fuzz_cmd.add_argument("--artifacts", default=None, metavar="DIR",
                          help="write minimized counterexamples (and "
                               "the JSON report) into this directory")
    fuzz_cmd.add_argument("--no-minimize", action="store_true",
                          help="skip counterexample minimization")
    fuzz_cmd.add_argument("--cache-stats", action="store_true",
                          help="print artifact-cache counters after "
                               "the fuzz run")

    serve_cmd = commands.add_parser(
        "serve",
        help="compile-once serve-many request loop: admit, batch, and "
             "execute concurrent mix requests in simulated time",
        parents=[_SANITIZE_PARENT, _DEVICES_PARENT])
    serve_cmd.add_argument("--clients", type=int, default=50,
                           help="concurrent requests (default 50; one "
                                "burst at t=0)")
    serve_cmd.add_argument("--seed", type=int, default=0,
                           help="mix seed (default 0)")
    serve_cmd.add_argument("--workers", type=int, default=4,
                           help="host workers (default 4)")
    serve_cmd.add_argument("--policy", choices=("fifo", "fair"),
                           default="fifo",
                           help="admission policy (default fifo)")
    serve_cmd.add_argument("--batch-limit", type=int, default=64,
                           help="largest shared dispatch (default 64)")
    serve_cmd.add_argument("--no-batching", action="store_true",
                           help="dispatch every request alone")
    serve_cmd.add_argument("--no-sharing", action="store_true",
                           help="never share read-only device copies")
    serve_cmd.add_argument("--no-cache", action="store_true",
                           help="charge a full compile per request "
                                "(the cache-off ablation)")
    serve_cmd.add_argument("--shuffle-seed", type=int, default=None,
                           help="seeded shuffle of the pending queue "
                                "before each dispatch")
    serve_cmd.add_argument("--spread", type=float, default=0.0,
                           metavar="SECONDS",
                           help="spread arrivals uniformly over this "
                                "window instead of one burst")
    serve_cmd.add_argument("--tenants", default=None, metavar="SPEC",
                           help="comma-separated tenants, each "
                                "name[=heap-limit-bytes]; requests "
                                "round-robin over them "
                                "(e.g. 'gold,tight=24576')")
    serve_cmd.add_argument("--quota-mix", action="store_true",
                           help="serve the heap-allocating quota mix "
                                "(exercises eviction and strict "
                                "heap-limit rejection under tenant "
                                "caps)")
    serve_cmd.add_argument("--json", action="store_true",
                           dest="as_json",
                           help="emit the full report as JSON")

    servebench_cmd = commands.add_parser(
        "servebench",
        help="serve sweep: clients x cache x sharing, with byte-"
             "identity and sanitizer verification per scale")
    servebench_cmd.add_argument(
        "--clients", type=int, nargs="*", default=None,
        help="client scales (default: 10 100 1000)")
    servebench_cmd.add_argument("--seed", type=int, default=0,
                                help="mix seed (default 0)")
    servebench_cmd.add_argument("--no-verify", action="store_true",
                                help="skip the byte-identity and "
                                     "sanitized verification passes")
    servebench_cmd.add_argument(
        "--out", default="BENCH_serve.json",
        help="where to write the JSON report (default "
             "BENCH_serve.json)")

    commands.add_parser("list", help="list the 24 paper workloads")
    return parser


def _fault_plan(seed: Optional[int]):
    """A ``FaultPlan`` at the standard chaos rates, or None."""
    if seed is None:
        return None
    from .evaluation.faultbench import CHAOS_RATES
    from .gpu.faults import FaultPlan
    return FaultPlan(seed=seed, **CHAOS_RATES)


def _read_target(target: str) -> Tuple[str, str]:
    """``(source, name)`` for a MiniC source path or a workload name.

    An existing path, or anything with a file extension, is read as
    a file (``OSError`` if it cannot be); otherwise the target names
    a workload (:class:`UnknownWorkloadError` if it does not).
    """
    if os.path.exists(target) or os.path.splitext(target)[1]:
        with open(target) as handle:
            return handle.read(), target
    workload = get_workload(target)
    return workload.source, workload.name


def _compile(target: str, level_name: str, record_events: bool = False,
             engine: str = "source", streams: bool = False,
             topology=None):
    source, name = _read_target(target)
    config = CgcmConfig(opt_level=_LEVELS[level_name],
                        record_events=record_events, engine=engine,
                        streams=streams, topology=topology)
    compiler = CgcmCompiler(config)
    report = compiler.compile_source(source, name)
    return compiler, report, name


def _cmd_run(args: argparse.Namespace) -> int:
    from . import api

    source, name = _read_target(args.source)
    config = CgcmConfig(opt_level=_LEVELS[args.level],
                        record_events=args.trace, engine=args.engine,
                        streams=args.streams,
                        faults=_fault_plan(args.faults),
                        device_heap_limit=args.heap_limit,
                        validate=args.validate,
                        sanitize=args.sanitize,
                        topology=_topology_from_args(args))
    workload = api.compile_workload(source, config, name=name)
    report = workload.report
    result = workload.run()
    for line in result.stdout:
        print(line)
    if args.sanitize and result.sanitizer_report is not None:
        print(result.sanitizer_report.summary(), file=sys.stderr)
        if not result.sanitizer_report.clean and result.exit_code == 0:
            return 1
    if args.stats:
        print(f"-- {args.level} --", file=sys.stderr)
        print(f"modelled time : {result.total_seconds * 1e6:10.2f} us "
              f"(cpu {result.cpu_seconds * 1e6:.2f} / "
              f"gpu {result.gpu_seconds * 1e6:.2f} / "
              f"comm {result.comm_seconds * 1e6:.2f})", file=sys.stderr)
        if args.streams:
            print(f"critical path : "
                  f"{result.critical_path_seconds * 1e6:10.2f} us "
                  f"({result.total_seconds / result.critical_path_seconds:.2f}x"
                  " vs serial sum)" if result.critical_path_seconds > 0
                  else "critical path : 0", file=sys.stderr)
            if report.overlap_stats:
                print(f"overlap stats : {report.overlap_stats}",
                      file=sys.stderr)
        if report.doall_kernels:
            print(f"DOALL kernels : "
                  f"{[k.name for k in report.doall_kernels]}",
                  file=sys.stderr)
        if report.glue_kernels:
            print(f"glue kernels  : "
                  f"{[k.name for k in report.glue_kernels]}",
                  file=sys.stderr)
        counters = ["kernel_launches", "htod_copies", "dtoh_copies",
                    "htod_bytes", "dtoh_bytes"]
        if args.faults is not None or args.heap_limit is not None:
            from .evaluation.faultbench import RECOVERY_COUNTERS
            counters.extend(RECOVERY_COUNTERS)
        if getattr(args, "devices", 1) > 1:
            counters.extend(["multigpu_placements",
                             "multi_device_launches",
                             "sharded_launches", "p2p_copies",
                             "p2p_bytes"])
        for counter in counters:
            if counter in result.counters:
                print(f"{counter:14s}: {result.counters[counter]}",
                      file=sys.stderr)
    if args.trace:
        print(render_schedule(result.events), file=sys.stderr)
    if args.cache_stats:
        _print_cache_stats()
    return result.exit_code


def _print_cache_stats() -> None:
    from . import api

    stats = api.cache_stats()
    print("artifact cache: "
          f"{stats['hits']} hits, {stats['misses']} misses, "
          f"{stats['evictions']} evictions, "
          f"{stats['entries']}/{stats['capacity']} entries",
          file=sys.stderr)


def _cmd_emit_ir(args: argparse.Namespace) -> int:
    _, report, _ = _compile(args.source, args.level, streams=args.streams)
    print(module_to_str(report.module))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .interp.trace import chrome_trace_json

    if args.serve is not None:
        from .serve import ServeLoop, ServeOptions
        from .serve.mixes import build_mix

        loop = ServeLoop(ServeOptions(record_events=True))
        report = loop.run(build_mix(args.serve))
        document = chrome_trace_json(report.events,
                                     f"serve-{args.serve}")
        if args.out == "-":
            print(document)
        else:
            with open(args.out, "w") as handle:
                handle.write(document + "\n")
            print(f"wrote {args.out} ({len(report.events)} events, "
                  f"{len(report.ok)}/{len(report.metrics)} requests ok)",
                  file=sys.stderr)
        return 0 if len(report.ok) == len(report.metrics) else 1
    if args.target is None:
        print("repro trace: a workload or source target is required "
              "unless --serve is given", file=sys.stderr)
        return 2
    compiler, report, name = _compile(
        args.target, args.level, record_events=True, engine=args.engine,
        streams=args.streams, topology=_topology_from_args(args))
    result = compiler.execute(report)
    document = chrome_trace_json(result.events, name)
    if args.out == "-":
        print(document)
    else:
        with open(args.out, "w") as handle:
            handle.write(document + "\n")
        print(f"wrote {args.out} ({len(result.events)} events)",
              file=sys.stderr)
    return result.exit_code


def _cmd_bench(args: argparse.Namespace) -> int:
    if getattr(args, "devices", 1) and args.devices > 1:
        # Multi-device ask: run the multibench sweep at just this
        # device count (plus the 1-device baseline row).
        args.devices = [1, args.devices]
        if args.out is None:
            args.out = "BENCH_multigpu.json"
        return _cmd_multibench(args)
    if args.streams:
        return _cmd_overlap_bench(args)
    if not args.workloads:
        return _cmd_engine_bench(args)
    print(f"{'workload':16s} {'IE':>8s} {'unopt':>8s} {'opt':>8s} "
          f"{'limit':>6s}")
    for name in args.workloads:
        result = run_benchmark(get_workload(name))
        print(f"{name:16s} "
              f"{result.speedup('inspector-executor'):7.2f}x "
              f"{result.speedup('unoptimized'):7.2f}x "
              f"{result.speedup('optimized'):7.2f}x "
              f"{result.limiting_factor:>6s}")
    return 0


def _cmd_engine_bench(args: argparse.Namespace) -> int:
    """Tree-vs-source engine sweep over all 24 workloads."""
    from .evaluation.bench import MIN_COMMITTED_REPEAT, run_engine_bench

    out = args.out if args.out else "BENCH_interp.json"
    if os.path.basename(out) == "BENCH_interp.json" \
            and args.repeat < MIN_COMMITTED_REPEAT:
        raise ConfigError(
            f"--repeat {args.repeat} is too noisy for the committed "
            f"{out}; use --repeat {MIN_COMMITTED_REPEAT} or more, or "
            "--out elsewhere")

    def progress(comparison):
        status = "ok" if comparison.ok else "DIVERGED"
        print(f"{comparison.name:16s} {comparison.speedup:6.2f}x  {status}",
              file=sys.stderr)

    bench = run_engine_bench(repeat=args.repeat, progress=progress)
    print(bench.render())
    bench.write(out)
    print(f"wrote {out}", file=sys.stderr)
    return 0 if bench.ok else 1


def _cmd_overlap_bench(args: argparse.Namespace) -> int:
    """Serial-vs-overlapped sweep (all 24, or the named workloads)."""
    from .evaluation.overlap import run_overlap_bench

    def progress(comparison):
        status = "ok" if comparison.ok else "DIVERGED"
        print(f"{comparison.name:16s} {comparison.speedup:6.2f}x  {status}",
              file=sys.stderr)

    workloads = ([get_workload(n) for n in args.workloads]
                 if args.workloads else None)
    out = args.out if args.out else "BENCH_streams.json"
    bench = run_overlap_bench(workloads, progress=progress)
    print(bench.render())
    bench.write(out)
    print(f"wrote {out}", file=sys.stderr)
    return 0 if bench.ok else 1


def _cmd_multibench(args: argparse.Namespace) -> int:
    """Device-count sweep with byte-identity verification."""
    from .evaluation.multibench import (DEFAULT_DEVICE_COUNTS,
                                        run_multigpu_bench)

    def progress(cell):
        status = "ok" if cell.ok else "DIVERGED"
        print(f"{cell.name:16s} {cell.devices}dev "
              f"{cell.speedup:6.2f}x  {status}", file=sys.stderr)

    workloads = ([get_workload(n) for n in args.workloads]
                 if args.workloads else None)
    counts = tuple(args.devices) if args.devices else DEFAULT_DEVICE_COUNTS
    report = run_multigpu_bench(workloads, device_counts=counts,
                                topology_kind=args.topology,
                                progress=progress)
    print(report.render())
    report.write(args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_faultbench(args: argparse.Namespace) -> int:
    """Chaos sweep: seeded fault schedules over the workloads."""
    from .evaluation.faultbench import run_fault_bench

    def progress(comparison):
        status = "ok" if comparison.ok else "DIVERGED"
        print(f"{comparison.name:16s} {comparison.schedule:10s} "
              f"{comparison.overhead:6.2f}x  {status}", file=sys.stderr)

    workloads = ([get_workload(n) for n in args.workloads]
                 if args.workloads else None)
    bench = run_fault_bench(workloads, progress=progress)
    print(bench.render())
    bench.write(args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if bench.ok else 1


def _cmd_sanitize(args: argparse.Namespace) -> int:
    from .sanitizer import run_differential

    level = _LEVELS[args.level]
    targets: List[str] = []
    for target in args.targets:
        if target == "all":
            targets.extend(workload_names())
        else:
            targets.append(target)

    failures = 0
    for target in targets:
        source, name = _read_target(target)
        report = run_differential(source, name, level, engine=args.engine)
        print(report.summary())
        if args.verbose and report.ok:
            stats = report.sanitizer.stats
            print("  " + ", ".join(f"{k}={v}"
                                   for k, v in sorted(stats.items())),
                  file=sys.stderr)
        if not report.ok:
            failures += 1
    total = len(targets)
    print(f"sanitize: {total - failures}/{total} clean", file=sys.stderr)
    return 1 if failures else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .staticcheck import check_corpus, lint_source, sarif_document

    level = _LEVELS[args.level]
    targets: List[str] = []
    for target in args.targets:
        if target == "all":
            targets.extend(workload_names())
        else:
            targets.append(target)
    if not targets and not args.corpus:
        targets = list(workload_names())

    faults = _fault_plan(args.faults)
    reports = []
    for target in targets:
        source, name = _read_target(target)
        reports.append(lint_source(source, name, level,
                                   streams=args.streams, faults=faults,
                                   validate=args.validate))

    corpus_results = check_corpus() if args.corpus else []
    corpus_misses = [r for r in corpus_results if not r.caught]
    failures = [r for r in reports if not r.clean]

    if args.as_sarif:
        document = sarif_document(reports)
        print(json.dumps(document, indent=2))
    elif args.as_json:
        payload = {"reports": [r.to_json() for r in reports]}
        if args.corpus:
            payload["corpus"] = [
                {"name": r.defect.name, "caught": r.caught,
                 "expected_pass": r.defect.expected_pass,
                 "expected_kinds": list(r.defect.kinds),
                 "report": r.report.to_json()}
                for r in corpus_results]
        print(json.dumps(payload, indent=2))
    else:
        for report in reports:
            print(report.render(max_notes=3))
        for result in corpus_results:
            verdict = "caught" if result.caught else "MISSED"
            if result.defect.is_control:
                verdict = "clean" if result.caught else "FALSE POSITIVE"
            print(f"corpus {result.defect.name:24s} {verdict}")
            if not result.caught:
                for finding in result.report.findings:
                    print("  " + finding.render())
        print(f"lint: {len(reports) - len(failures)}/{len(reports)} "
              "modules clean"
              + (f", corpus {len(corpus_results) - len(corpus_misses)}"
                 f"/{len(corpus_results)} as expected"
                 if args.corpus else ""),
              file=sys.stderr)
    return 1 if failures or corpus_misses else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from .scenarios import run_fuzz

    def progress(verdict):
        print(verdict.summary(), file=sys.stderr)

    report = run_fuzz(args.seed, args.count, slow=args.slow,
                      progress=progress,
                      minimize=not args.no_minimize,
                      validate=args.validate)
    print(report.render())
    if args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
        for ce in report.counterexamples:
            base = os.path.join(args.artifacts, ce.name)
            with open(base + ".c", "w") as handle:
                handle.write(ce.source)
            with open(base + ".min.c", "w") as handle:
                handle.write(ce.minimized_source)
        document = {
            "seed": report.seed, "count": report.count,
            "slow": report.slow, "passed": report.passed,
            "verdicts": [
                {"name": v.name, "ok": v.ok,
                 "failed": list(v.failed)} for v in report.verdicts],
            "counterexamples": [
                {"name": ce.name, "failed": list(ce.failed),
                 "minimized_summary": ce.minimized_summary}
                for ce in report.counterexamples],
        }
        path = os.path.join(args.artifacts, "fuzz_report.json")
        with open(path, "w") as handle:
            json.dump(document, handle, indent=2)
        print(f"wrote {path}", file=sys.stderr)
    if args.cache_stats:
        _print_cache_stats()
    return 0 if report.ok else 1


def _parse_tenants(spec: Optional[str]):
    """``name[=heap-limit]``, comma-separated, into TenantSpecs."""
    from .serve import TenantSpec

    tenants = {}
    if not spec:
        return tenants
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, limit = part.partition("=")
        name = name.strip()
        if not name:
            raise ConfigError(f"--tenants: empty tenant name in {spec!r}")
        try:
            heap = int(limit) if limit else None
        except ValueError:
            raise ConfigError(
                f"--tenants: heap limit for {name!r} must be an integer "
                f"byte count, got {limit!r}") from None
        tenants[name] = TenantSpec(name, device_heap_limit=heap)
    return tenants


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from .serve import ServeLoop, ServeOptions
    from .serve.mixes import MIX_SOURCES, QUOTA_SOURCE, build_mix

    tenants = _parse_tenants(args.tenants)
    options = ServeOptions(
        workers=args.workers, policy=args.policy,
        batching=not args.no_batching, sharing=not args.no_sharing,
        cache=not args.no_cache, sanitize=args.sanitize,
        batch_limit=args.batch_limit, shuffle_seed=args.shuffle_seed,
        tenants=tenants, topology=_topology_from_args(args))
    sources = ((("quota", QUOTA_SOURCE),) if args.quota_mix
               else MIX_SOURCES)
    requests = build_mix(
        args.clients, seed=args.seed,
        tenants=tuple(tenants) if tenants else ("default",),
        arrival_spread_s=args.spread, sources=sources)
    report = ServeLoop(options).run(requests)
    if args.as_json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0 if len(report.ok) == len(report.metrics) else 1


def _cmd_servebench(args: argparse.Namespace) -> int:
    from .evaluation.servebench import DEFAULT_SCALES, run_serve_bench

    def progress(cell):
        print(f"clients={cell.clients:5d} "
              f"cache={'on' if cell.cache else 'off':3s} "
              f"sharing={'on' if cell.sharing else 'off':3s} "
              f"{cell.throughput_rps:10.0f} req/s", file=sys.stderr)

    scales = tuple(args.clients) if args.clients else DEFAULT_SCALES
    report = run_serve_bench(scales=scales, seed=args.seed,
                             verify=not args.no_verify,
                             progress=progress)
    print(report.render())
    report.write(args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_list(_: argparse.Namespace) -> int:
    for workload in ALL_WORKLOADS:
        print(f"{workload.name:16s} {workload.suite:10s} "
              f"{workload.description}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "emit-ir": _cmd_emit_ir,
                "bench": _cmd_bench, "multibench": _cmd_multibench,
                "faultbench": _cmd_faultbench,
                "trace": _cmd_trace, "sanitize": _cmd_sanitize,
                "lint": _cmd_lint, "fuzz": _cmd_fuzz,
                "serve": _cmd_serve, "servebench": _cmd_servebench,
                "list": _cmd_list}
    try:
        return handlers[args.command](args)
    except TransformValidationError as exc:
        for finding in exc.findings:
            print(finding.render(), file=sys.stderr)
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except _INPUT_ERRORS as exc:
        if isinstance(exc, OSError) and exc.filename is not None:
            message = f"{exc.filename}: {exc.strerror}"
        else:
            message = str(exc)
        print(f"repro: {message}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
