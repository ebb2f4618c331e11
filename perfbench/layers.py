"""Where the ledger is attached: the public entry points of each layer.

Every span and counter is named after the ``repro`` module that does
the work, so a per-layer metric reads as ``<layer>.<what>``.  The
instrumentation lives entirely in the benchmark: :func:`instrument`
wraps existing functions and methods from outside the program and the
returned :class:`~ledger.Patcher` undoes it.

Hot per-access hooks (the streams write-back guard, per-block
``successors``) are counted, or left inside their caller's self time,
so the traced run stays within a small multiple of the untraced one.
"""

from __future__ import annotations

import importlib

from ledger import Ledger, Patcher

#: (class path, [method, ...], span name).  Methods of one row share a
#: span name, so e.g. the sync and async map entry points add up.
SPANNED_METHODS = (
    ("repro.api.Session", ["compile"], "api.compile"),
    ("repro.api.CompiledWorkload", ["run"], "api.run"),
    ("repro.core.compiler.CgcmCompiler", ["compile_module"],
     "transforms.pipeline"),
    ("repro.transforms.doall.DoallParallelizer", ["run"], "transforms.doall"),
    ("repro.transforms.commmgmt.CommunicationManager",
     ["run", "manage_launch"], "transforms.commmgmt"),
    ("repro.transforms.glue_kernels.GlueKernels", ["run"],
     "transforms.glue_kernels"),
    ("repro.transforms.alloca_promotion.AllocaPromotion", ["run"],
     "transforms.alloca_promotion"),
    ("repro.transforms.map_promotion.MapPromotion", ["run"],
     "transforms.map_promotion"),
    ("repro.transforms.comm_overlap.CommOverlap", ["run"],
     "transforms.comm_overlap"),
    ("repro.interp.machine.Machine", ["__init__"], "interp.machine_init"),
    ("repro.interp.machine.Machine", ["run"], "interp.cpu"),
    ("repro.interp.machine.Machine", ["launch_evaluated"], "interp.kernel"),
    ("repro.runtime.cgcm.CgcmRuntime",
     ["map_ptr", "map_array", "map_ptr_async", "map_array_async"],
     "runtime.map"),
    ("repro.runtime.cgcm.CgcmRuntime",
     ["unmap_ptr", "unmap_array", "unmap_ptr_async", "unmap_array_async"],
     "runtime.unmap"),
    ("repro.runtime.cgcm.CgcmRuntime", ["release_ptr", "release_array"],
     "runtime.release"),
    ("repro.runtime.cgcm.CgcmRuntime", ["sync", "_sync_pending"],
     "runtime.sync"),
    ("repro.multigpu.coordinator.MultiGpuCoordinator",
     ["__init__", "_on_op", "schedule_launch"], "multigpu.coordinator"),
    ("repro.sanitizer.sanitizer.CommSanitizer",
     ["__init__", "_on_mem", "_on_launch", "_on_heap", "_on_frame_exit",
      "_on_device", "_on_op", "_on_multigpu", "finish"], "sanitizer"),
)

#: (module path, function, span name).
SPANNED_FUNCTIONS = (
    ("repro.frontend.lowering", "compile_minic", "frontend"),
    ("repro.ir.verifier", "verify_module", "ir.verifier"),
    ("repro.staticcheck.linter", "lint_module", "staticcheck.lint"),
    ("repro.interp.srcgen", "compile_function_source",
     "interp.srcgen.codegen"),
    ("repro.multigpu.placement", "plan_placement", "multigpu.placement"),
)

#: Call counters: (class path, method, count name).
COUNTED_METHODS = (
    ("repro.analysis.dominators.DominatorTree", "__init__",
     "analysis.domtree_builds"),
    ("repro.analysis.dominators.PostDominatorTree", "__init__",
     "analysis.postdomtree_builds"),
    ("repro.analysis.liveness.Liveness", "__init__",
     "analysis.liveness_builds"),
    ("repro.analysis.modref.ModRefAnalysis", "__init__",
     "analysis.modref_builds"),
    ("repro.ir.block.BasicBlock", "successors", "ir.successors_calls"),
    ("repro.ir.block.BasicBlock", "predecessors", "ir.predecessors_calls"),
    ("repro.interp.srcgen._SourceCompiler", "compile",
     "interp.srcgen.compiles"),
    ("repro.runtime.cgcm.CgcmRuntime", "_sync_pending",
     "runtime.guard_syncs"),
)

COUNTED_FUNCTIONS = (
    ("repro.analysis.loops", "find_loops", "analysis.loop_builds"),
)

#: Counters of compile-side work, reported over one compile of the
#: workload's artifacts (set-up on ``paper24``/``overlap``, one pass
#: on ``fuzz``).
COMPILE_COUNTERS = (
    "analysis.domtree_builds", "analysis.postdomtree_builds",
    "analysis.loop_builds", "analysis.liveness_builds",
    "analysis.modref_builds", "ir.successors_calls",
    "ir.predecessors_calls", "interp.srcgen.compiles",
)

#: Span names whose per-pass self time is reported as ``<name>.self_s``.
SELF_TIME_SPANS = (
    "api.compile", "api.run", "frontend", "transforms.pipeline",
    "transforms.doall", "transforms.commmgmt", "transforms.glue_kernels",
    "transforms.alloca_promotion", "transforms.map_promotion",
    "transforms.comm_overlap", "ir.verifier", "staticcheck.lint",
    "interp.machine_init", "interp.cpu", "interp.kernel",
    "runtime.map", "runtime.unmap", "runtime.release", "runtime.sync",
    "multigpu.placement", "multigpu.coordinator", "sanitizer",
)

#: Run-side spans whose per-pass call count is ``<name>.calls``.
RUN_CALL_SPANS = ("runtime.map", "runtime.unmap", "runtime.release")


def _resolve(path: str):
    module_path, _, attr = path.rpartition(".")
    return getattr(importlib.import_module(module_path), attr)


def instrument(ledger: Ledger) -> Patcher:
    """Attach ``ledger`` to every layer boundary listed above."""
    patcher = Patcher(ledger)
    # Import every instrumented module first, so function rebinding
    # reaches all of its importers.
    for path, _fn, _name in SPANNED_FUNCTIONS + COUNTED_FUNCTIONS:
        importlib.import_module(path)
    for cls_path, methods, name in SPANNED_METHODS:
        cls = _resolve(cls_path)
        for method in methods:
            patcher.method(cls, method, name)
    for cls_path, method, name in COUNTED_METHODS:
        patcher.method(_resolve(cls_path), method, name, count_only=True)
    for module_path, fn, name in SPANNED_FUNCTIONS:
        patcher.function(importlib.import_module(module_path), fn, name)
    for module_path, fn, name in COUNTED_FUNCTIONS:
        patcher.function(importlib.import_module(module_path), fn, name,
                         count_only=True)
    return patcher
