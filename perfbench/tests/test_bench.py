"""Self-tests of the benchmark harness, run at smoke size.

    python3 -m pytest perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

sys.path.insert(0, str(run.SRC))

from qrollout import rank_select  # noqa: E402


def run_smoke(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)], smoke=True)
    lines = capsys.readouterr().out.splitlines()
    printed = {line.split(" = ")[0]: line.rsplit(" ", 1)[1]
               for line in lines if " = " in line}
    return code, printed, json.loads(lines[-1])


def test_benchmark_json_is_generated_from_the_tables():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.benchmark_json()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["synth", "verify", "estimate"])
def test_smoke_run_emits_every_metric_with_its_unit(capsys, workload, trace):
    code, printed, line = run_smoke(capsys, workload, trace)
    assert code == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    bench = run.benchmark_json()
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    for name, unit in declared.items():
        assert printed[name] == unit
    assert printed["fail_ratio"] == "1"
    assert printed["bench.checks"] == printed["bench.checks_failed"] == "count"


def test_end_to_end_times_are_scaled_by_the_calibration_kernel():
    result = run.run("estimate", 3, 0.0, False, smoke=True)
    m = result["metrics"]
    passes, cals = result["job_walls_s"], result["calibration_samples_s"]
    assert [set(c) for c in cals] == [set(p) for p in passes]
    assert m["wall_s"] == pytest.approx(run.job_list_wall(
        [{job: t * run.CALIBRATION_REF_S / c[job] for job, t in p.items()}
         for p, c in zip(passes, cals)]))
    assert len(result["setup_samples_s"]) == run.SETUP_SAMPLES
    assert len(result["setup_calibration_s"]) == run.SETUP_SAMPLES
    assert m["setup_s"] > 0 and m["setup_unscaled_s"] > 0


def test_planted_wrong_reference_fails_the_run(capsys, monkeypatch):
    real = rank_select.scan_gate_count
    monkeypatch.setattr(rank_select, "scan_gate_count", lambda n: real(n) + 1)
    code, _, line = run_smoke(capsys, "synth", 1)
    assert code != 0
    assert not line["correct"]
    assert 0 < line["failed"] <= line["attempted"]


def test_raised_exception_counts_as_a_failed_check():
    def broken(h):
        raise RuntimeError("planted")
    h = run.Harness(spans.Recorder(False))
    run.run_pass([("ok", lambda h: h.check(True, "ok")), ("broken", broken)], h)
    assert h.attempted == 2
    assert len(h.failures) == 1 and "planted" in h.failures[0]


def test_self_time_subtracts_the_union_of_clipped_children():
    tree = [spans.Span(0, None, "root", None, 0.0, 10.0),
            spans.Span(1, 0, "a", None, 1.0, 3.0),
            spans.Span(2, 0, "b", None, 2.0, 5.0),      # overlaps a
            spans.Span(3, 0, "c", None, 9.0, 12.0),     # runs past the root
            spans.Span(4, 2, "d", None, 2.5, 3.5)]
    own = spans.self_times(tree)
    assert own == {0: 5.0, 1: 2.0, 2: 2.0, 3: 3.0, 4: 1.0}
    assert [sp.id for sp in spans.descendants(tree, 2)] == [2, 4]


@pytest.mark.parametrize("workload", ["synth", "verify", "estimate"])
def test_traced_self_times_add_up_to_the_pass_span(workload):
    result = run.run(workload, 3, 0.0, True, smoke=True)
    recorded = [spans.Span(**d) for d in result["spans"]]
    own = spans.self_times(recorded)
    roots = [sp for sp in recorded if sp.name == "bench.pass"]
    assert len(roots) == 1
    tree = spans.descendants(recorded, roots[0].id)
    layers = sum(own[sp.id] for sp in tree if sp.name in run.LAYER_SPANS)
    harness = sum(own[sp.id] for sp in tree if sp.name.startswith("bench."))
    assert layers > 0
    assert layers + harness == pytest.approx(roots[0].end - roots[0].start,
                                             rel=1e-9)
    m = result["metrics"]
    reported = sum(m[f"{name}.s"] for name in run.LAYER_SPANS)
    assert reported + m["bench.harness.s"] == pytest.approx(m["bench.pass.s"],
                                                            rel=1e-9)


def test_without_program_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
