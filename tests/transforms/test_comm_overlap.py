"""Comm-overlap transform: hoisting, sinking, async rewrite, syncs."""

from repro.core.compiler import CgcmCompiler, compile_and_run
from repro.core.config import CgcmConfig, OptLevel
from repro.ir.instructions import Call, LaunchKernel
from repro.runtime.cgcm import (ASYNC_RUNTIME_FUNCTIONS, MAP_FUNCTIONS,
                                SYNC_FUNCTION, UNMAP_FUNCTIONS)

#: Two global arrays; A is initialized, then B, then a kernel reads A
#: and writes B, then the checksum prints from B.  Gives the overlap
#: pass independent CPU code on both sides of the communication.
TWO_ARRAYS = """
double A[128];
double B[128];

int main() {
  for (int i = 0; i < 128; i = i + 1) {
    A[i] = i * 0.5;
  }
  for (int r = 0; r < 3; r = r + 1) {
    for (int i = 0; i < 128; i = i + 1) {
      B[i] = A[i] * 2.0 + r;
    }
  }
  double sum = 0.0;
  for (int i = 0; i < 128; i = i + 1) {
    sum = sum + B[i];
  }
  print_f64(sum);
  return 0;
}
"""


def compile_streams(source, name="program"):
    compiler = CgcmCompiler(CgcmConfig(opt_level=OptLevel.OPTIMIZED,
                                       streams=True))
    report = compiler.compile_source(source, name)
    return compiler, report


def runtime_calls(module):
    out = []
    for fn in module.defined_functions():
        for inst in fn.instructions():
            if isinstance(inst, Call):
                out.append(inst)
    return out


class TestRewrite:
    def test_moved_calls_become_async(self):
        _, report = compile_streams(TWO_ARRAYS)
        names = {c.callee.name for c in runtime_calls(report.module)}
        assert names & set(ASYNC_RUNTIME_FUNCTIONS)
        assert report.overlap_stats["async_rewrites"] > 0

    def test_stats_reported(self):
        _, report = compile_streams(TWO_ARRAYS)
        stats = report.overlap_stats
        for key in ("maps_hoisted", "block_hops", "unmaps_sunk",
                    "async_rewrites", "syncs_inserted"):
            assert key in stats
        assert stats["maps_hoisted"] > 0
        assert stats["unmaps_sunk"] > 0

    def test_without_streams_no_async_names(self):
        compiler = CgcmCompiler(CgcmConfig(opt_level=OptLevel.OPTIMIZED))
        report = compiler.compile_source(TWO_ARRAYS, "serial")
        names = {c.callee.name for c in runtime_calls(report.module)}
        assert not names & set(ASYNC_RUNTIME_FUNCTIONS)
        assert report.overlap_stats == {}


class TestLegality:
    def test_map_never_crosses_launch(self):
        """Epoch semantics: no map/unmap call may have moved across a
        kernel launch, so within every block maps precede the first
        launch only if they did so legally -- spot-checked by the fact
        that each launch still has every operand's map before it."""
        _, report = compile_streams(TWO_ARRAYS)
        for fn in report.module.defined_functions():
            for block in fn.blocks:
                mapped_before = set()
                for inst in block.instructions:
                    if isinstance(inst, Call) \
                            and inst.callee.name in MAP_FUNCTIONS:
                        mapped_before.add(inst)
                    elif isinstance(inst, LaunchKernel):
                        for arg in inst.args:
                            if isinstance(arg, Call) \
                                    and arg.callee.name in MAP_FUNCTIONS \
                                    and arg.parent is block:
                                assert arg in mapped_before

    def test_map_never_crosses_registration(self):
        """Executing the transformed module must not fault: a map
        hoisted above its unit's declareGlobal would."""
        compiler, report = compile_streams(TWO_ARRAYS)
        result = compiler.execute(report)
        assert result.exit_code == 0

    def test_unmap_sink_keeps_release_glued(self):
        """Wherever an unmap sank, a release of the same pointer that
        followed it still follows it."""
        _, report = compile_streams(TWO_ARRAYS)
        for fn in report.module.defined_functions():
            for block in fn.blocks:
                insts = block.instructions
                for i, inst in enumerate(insts):
                    if isinstance(inst, Call) \
                            and inst.callee.name.startswith("release") \
                            and i > 0:
                        prev = insts[i - 1]
                        if isinstance(prev, Call) \
                                and prev.callee.name in UNMAP_FUNCTIONS \
                                and prev.args and inst.args:
                            assert prev.args[0] is inst.args[0]

    def test_verifier_accepts_transformed_module(self):
        from repro.ir.verifier import verify_module
        _, report = compile_streams(TWO_ARRAYS)
        verify_module(report.module)  # raises on breakage


class TestEquivalence:
    def test_observables_identical_and_critical_path_bounded(self):
        serial = compile_and_run(TWO_ARRAYS, OptLevel.OPTIMIZED)
        compiler, report = compile_streams(TWO_ARRAYS)
        streamed = compiler.execute(report)
        assert streamed.observable() == serial.observable()
        assert streamed.critical_path_seconds <= serial.total_seconds
        assert streamed.critical_path_seconds < streamed.total_seconds

    def test_sanitizer_clean_with_streams(self):
        compiler = CgcmCompiler(CgcmConfig(opt_level=OptLevel.OPTIMIZED,
                                           streams=True, sanitize=True))
        report = compiler.compile_source(TWO_ARRAYS, "sanitized")
        result = compiler.execute(report)
        assert result.sanitizer_report is not None
        assert result.sanitizer_report.clean

    def test_lint_clean_with_streams(self):
        from repro.staticcheck.linter import lint_source
        report = lint_source(TWO_ARRAYS, "linted", streams=True)
        assert report.clean, [f.render() for f in report.findings]

    def test_engines_agree_under_streams(self):
        """Tree and source engines produce identical observables and
        identical stream schedules."""
        results = {}
        for engine in ("tree", "source"):
            compiler = CgcmCompiler(CgcmConfig(
                opt_level=OptLevel.OPTIMIZED, streams=True, engine=engine))
            report = compiler.compile_source(TWO_ARRAYS, engine)
            results[engine] = compiler.execute(report)
        tree, source = results["tree"], results["source"]
        assert tree.observable() == source.observable()
        assert tree.critical_path_seconds == source.critical_path_seconds
        assert tree.total_seconds == source.total_seconds


class TestSyncBarrier:
    #: The CPU reads B immediately after unmapping it in the same
    #: block: the transform must either not sink the unmap past the
    #: read or insert a cgcmSync in front of it.
    READ_AFTER_UNMAP = """
double A[64];
double B[64];

int main() {
  for (int i = 0; i < 64; i = i + 1) {
    A[i] = i * 1.0;
  }
  for (int r = 0; r < 2; r = r + 1) {
    for (int i = 0; i < 64; i = i + 1) {
      B[i] = A[i] + r;
    }
  }
  print_f64(B[0] + B[63]);
  return 0;
}
"""

    def test_reader_still_sees_written_back_bytes(self):
        serial = compile_and_run(self.READ_AFTER_UNMAP, OptLevel.OPTIMIZED)
        compiler, report = compile_streams(self.READ_AFTER_UNMAP)
        streamed = compiler.execute(report)
        assert streamed.observable() == serial.observable()

    def test_every_sync_follows_some_unmap(self):
        """Inserted cgcmSyncs are write-back barriers: each one has at
        least one unmap earlier in its own function."""
        _, report = compile_streams(self.READ_AFTER_UNMAP)
        for fn in report.module.defined_functions():
            unmap_seen = False
            for inst in fn.instructions():
                if not isinstance(inst, Call):
                    continue
                if inst.callee.name in UNMAP_FUNCTIONS:
                    unmap_seen = True
                elif inst.callee.name == SYNC_FUNCTION:
                    assert unmap_seen, "cgcmSync before any unmap"
