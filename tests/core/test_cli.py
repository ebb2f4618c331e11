"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main

PROGRAM = r"""
double xs[16];
int main(void) {
    for (int i = 0; i < 16; i++) xs[i] = i;
    for (int t = 0; t < 3; t++)
        for (int i = 0; i < 16; i++)
            xs[i] = xs[i] + 1.0;
    double s = 0.0;
    for (int i = 0; i < 16; i++) s += xs[i];
    print_f64(s);
    return 0;
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "program.c"
    path.write_text(PROGRAM)
    return str(path)


class TestRun:
    def test_run_prints_program_output(self, source_file, capsys):
        code = main(["run", source_file])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.strip() == "168"

    def test_levels_agree(self, source_file, capsys):
        outputs = []
        for level in ("sequential", "unoptimized", "optimized"):
            main(["run", source_file, "--level", level])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_stats_go_to_stderr(self, source_file, capsys):
        main(["run", source_file, "--stats"])
        captured = capsys.readouterr()
        assert "modelled time" in captured.err
        assert "DOALL kernels" in captured.err
        assert "modelled" not in captured.out

    def test_trace_renders_schedule(self, source_file, capsys):
        main(["run", source_file, "--level", "unoptimized", "--trace"])
        captured = capsys.readouterr()
        assert "CPU " in captured.err
        assert "Comm" in captured.err


class TestEmitIr:
    def test_optimized_ir_contains_runtime_calls(self, source_file,
                                                 capsys):
        main(["emit-ir", source_file])
        out = capsys.readouterr().out
        assert "kernel @" in out
        assert "call @map" in out
        assert "launch @" in out

    def test_sequential_ir_is_plain(self, source_file, capsys):
        main(["emit-ir", source_file, "--level", "sequential"])
        out = capsys.readouterr().out
        assert "kernel @" not in out
        assert "call @map" not in out


class TestListAndBench:
    def test_list_names_all_workloads(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        assert out.count("\n") == 24
        assert "gemm" in out and "blackscholes" in out

    def test_bench_one_workload(self, capsys):
        main(["bench", "atax"])
        out = capsys.readouterr().out
        assert "atax" in out
        assert "Comm." in out

    def test_unknown_workload_exits_2(self, capsys):
        assert main(["bench", "not-a-workload"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: unknown workload 'not-a-workload'")
        assert len(err.splitlines()) == 1


def exit_code(argv):
    """``main``'s exit code, including argparse's ``SystemExit``."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestExitCodes:
    """Every CLI failure is one ``repro:`` line and a documented code."""

    FILES = {
        "bad.c": "int main(void) { return 0 }\n",
        "divzero.c": "long z;\n"
                     "int main(void) { print_i64(10 / z); return 0; }\n",
    }

    @pytest.mark.parametrize("argv, code", [
        pytest.param(["run", "cfd"], 0, id="workload-name"),
        pytest.param(["run", "{dir}/bad.c"], 2, id="syntax-error"),
        pytest.param(["emit-ir", "{dir}/missing.c"], 2, id="missing-file"),
        pytest.param(["sanitize", "no-such-workload"], 2,
                     id="unknown-workload"),
        pytest.param(["run", "cfd", "--engine", "compiled"], 2,
                     id="retired-engine"),
        pytest.param(["run", "{dir}/divzero.c"], 3, id="runtime-error"),
        pytest.param(["bench", "--repeat", "1",
                      "--out", "{dir}/BENCH_interp.json"], 2,
                     id="noisy-committed-bench"),
    ])
    def test_exit_code(self, argv, code, tmp_path, capsys):
        for name, text in self.FILES.items():
            (tmp_path / name).write_text(text)
        argv = [arg.format(dir=tmp_path) for arg in argv]
        assert exit_code(argv) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == ""
        else:
            assert err.startswith("repro: ")
            assert len(err.splitlines()) == 1, err


class TestCacheStats:
    def test_run_reports_artifact_cache_counters(self, source_file,
                                                 capsys):
        from repro import api

        api.clear_cache()
        code = main(["run", source_file, "--cache-stats"])
        captured = capsys.readouterr()
        assert code == 0
        assert "artifact cache:" in captured.err
        assert "1 misses" in captured.err
        main(["run", source_file, "--cache-stats"])
        assert "1 hits" in capsys.readouterr().err
        api.clear_cache()


class TestServe:
    def test_serve_burst_reports(self, capsys):
        code = main(["serve", "--clients", "8"])
        captured = capsys.readouterr()
        assert code == 0
        assert "serve: 8/8 ok" in captured.out
        assert "HtoD bytes saved" in captured.out

    def test_serve_json_is_machine_readable(self, capsys):
        import json

        code = main(["serve", "--clients", "4", "--json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 0
        assert document["ok"] == 4
        assert len(document["per_request"]) == 4

    def test_serve_tenant_spec_caps_heaps(self, capsys):
        code = main(["serve", "--clients", "4", "--quota-mix",
                     "--tenants", "gold,tiny=8192"])
        captured = capsys.readouterr()
        assert code == 1  # the tiny tenant's requests are rejected
        assert "2 rejected" in captured.out
        assert "tenant tiny" in captured.out

    def test_serve_bad_tenant_spec_exits_2(self, capsys):
        assert main(["serve", "--tenants", "t=lots"]) == 2
        assert "--tenants" in capsys.readouterr().err

    def test_trace_serve_emits_per_request_tracks(self, tmp_path,
                                                  capsys):
        import json

        out = tmp_path / "serve.json"
        code = main(["trace", "--serve", "4", "--out", str(out)])
        assert code == 0
        document = json.loads(out.read_text())
        names = {event["args"]["name"]
                 for event in document["traceEvents"]
                 if event.get("name") == "thread_name"}
        assert {"req0", "req1", "req2", "req3"} <= names

    def test_trace_without_target_or_serve_exits_2(self, capsys):
        assert main(["trace"]) == 2
        assert "required" in capsys.readouterr().err

    def test_servebench_smoke(self, tmp_path, capsys):
        import json

        out = tmp_path / "BENCH_serve.json"
        code = main(["servebench", "--clients", "6",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "cache speedup" in captured.out
        document = json.loads(out.read_text())
        assert document["byte_identity"]["6"] is True


class TestSanitize:
    def test_sanitize_workloads_clean(self, capsys):
        code = main(["sanitize", "atax", "--verbose"])
        captured = capsys.readouterr()
        assert code == 0
        assert "atax [optimized]: OK" in captured.out
        assert "1/1 clean" in captured.err
        assert "kernel_launches=" in captured.err

    def test_sanitize_source_file(self, source_file, capsys):
        code = main(["sanitize", source_file, "--level", "unoptimized"])
        captured = capsys.readouterr()
        assert code == 0
        assert "[unoptimized]: OK" in captured.out

    def test_sanitize_reports_failure_exit_code(self, tmp_path, capsys):
        # Manual-mode program with a skipped unmap: the subject's
        # globals diverge from the reference and the sanitizer flags
        # the lost update, so the command exits non-zero.
        path = tmp_path / "buggy.c"
        path.write_text(r"""
double A[8];

__global__ void scale(long tid, double *a) { a[tid] = a[tid] * 2.0; }

int main(void) {
    for (int i = 0; i < 8; i++) A[i] = i + 1;
    double *d = (double *) map((char *) A);
    __launch(scale, 8, d);
    release((char *) A);
    double s = 0.0;
    for (int i = 0; i < 8; i++) s += A[i];
    print_f64(s);
    return 0;
}
""")
        code = main(["sanitize", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "FAIL" in captured.out
        # The structured violation names the mishandled unit even
        # though the subject run died mid-way.
        assert "global A" in captured.out
        assert "0/1 clean" in captured.err
