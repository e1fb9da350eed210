"""Self-test of the benchmark, with planted faults on a tiny program (b2d3).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import campaigns
import run
import spans

TINY = {
    name: dataclasses.replace(w, branching=2, depth=3, fuzz_budget=200)
    for name, w in campaigns.WORKLOADS.items()
}


@pytest.fixture(scope="module")
def m():
    return run.import_munchkin()


def campaign_outcome(m, name: str, seed: int = 0):
    w = TINY[name]
    params = campaigns.gen_params(m, w, seed)
    program = m.generate_program(params)
    return params, w.summarize(m, program, w.campaign(m, program, seed, w.fuzz_budget))


def main_result(monkeypatch, capsys, argv: list[str]) -> tuple[int, dict | None]:
    """Exit code and result line of a run on the tiny workloads."""
    for name, w in TINY.items():
        monkeypatch.setitem(campaigns.WORKLOADS, name, w)
    code = run.main(argv)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def test_benchmark_json_declares_what_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in campaigns.WORKLOADS.values()
    ]
    assert [(e["name"], e["unit"]) for e in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(e["name"], e["unit"]) for e in spec["per_layer"]] == list(run.PER_LAYER)
    setup = next(e for e in spec["end_to_end"] if e["name"] == "setup_s")
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_passes_and_prints_every_declared_metric(
    monkeypatch, capsys, tmp_path, workload, trace
):
    code, line = main_result(
        monkeypatch, capsys,
        ["--workload", workload, "--seconds", "0.01", "--trace", str(trace),
         "--out", str(tmp_path)],
    )
    assert code == 0
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 1 + trace
    declared = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in line["metrics"].items()] == list(declared)
    record = json.loads((tmp_path / f"{workload}-seed0-trace{trace}.json").read_text())
    assert record["env"]["loadavg_start"] and record["env"]["nproc"] >= 1
    assert len({s["digest"] for s in record["samples"]}) == 1
    for s in record["samples"]:
        scale = run.REFERENCE_CALIB_S / s["calib_s"]
        assert s["campaign_s"] == pytest.approx(s["wall_s"] * scale)
        assert len(s["setup_s"]) == run.SETUPS_PER_CAMPAIGN


def test_traced_fuzz_only_run_does_no_solver_or_callgraph_work(monkeypatch, capsys):
    _, line = main_result(
        monkeypatch, capsys, ["--workload", "fuzz-b2d9", "--seconds", "0.01", "--trace", "1"]
    )
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["callgraph.sonar_calls"] == metrics["solver.solve_calls"] == 0
    assert metrics["executor.runs.fuzz"] == TINY["fuzz-b2d9"].fuzz_budget + 1


def test_oracle_passes_the_real_campaigns(m):
    for name in TINY:
        params, out = campaign_outcome(m, name)
        assert campaigns.oracle_errors(m, params, out) == []


def test_oracle_catches_a_reported_function_no_test_covers(m):
    params, out = campaign_outcome(m, "fs-b2d8")
    planted = dataclasses.replace(
        out, functions=out.functions | {"n_99_99"}, covered=out.covered + 1
    )
    errors = campaigns.oracle_errors(m, params, planted)
    assert any("n_99_99" in e for e in errors)


def test_oracle_catches_a_test_whose_coverage_is_missing(m):
    params, out = campaign_outcome(m, "sf-b3d6")
    leaf = "n_5_5"
    suite = [
        tc for tc in out.suite
        if leaf not in m.generator.covered_functions(params, tc[0] if tc else 0)
    ]
    assert len(suite) < len(out.suite)
    errors = campaigns.oracle_errors(m, params, dataclasses.replace(out, suite=suite))
    assert any(leaf in e for e in errors)


def test_oracle_catches_a_wrong_coverage_percent(m):
    params, out = campaign_outcome(m, "fuzz-b2d9")
    errors = campaigns.oracle_errors(m, params, dataclasses.replace(out, covered=out.covered - 1))
    assert any("coverage_pct" in e for e in errors)


def test_a_changed_digest_fails_the_run(monkeypatch, capsys):
    original = TINY["fs-b2d8"].summarize
    calls = []

    def planted(m, program, raw):
        out = original(m, program, raw)
        calls.append(out)
        return dataclasses.replace(out, digest="0" * 64) if len(calls) == 2 else out

    monkeypatch.setitem(TINY, "fs-b2d8", dataclasses.replace(TINY["fs-b2d8"], summarize=planted))
    code, line = main_result(
        monkeypatch, capsys, ["--workload", "fs-b2d8", "--seconds", "0.01", "--trace", "1"]
    )
    assert code == 1
    assert not line["correct"] and line["failed"] == 1 and line["metrics"] == {}


def test_compare_names_each_differing_counter_and_digest():
    a = {"workload": "w", "seed": 0, "digest": "aa", "counters": {"x": 1, "y": 2, "z": 3}}
    b = {"workload": "w", "seed": 0, "digest": "bb", "counters": {"x": 1, "y": 5}}
    diffs = run.compare(a, b)
    assert diffs == ["digest: aa != bb", "y: 2 != 5"]
    with pytest.raises(run.BenchError):
        run.compare(a, dict(b, seed=1))


def test_check_exits_nonzero_on_a_difference(tmp_path, capsys):
    record = {"workload": "w", "seed": 0, "digest": "aa", "counters": {"x": 1}, "metrics": {}}
    (tmp_path / "a.json").write_text(json.dumps(record))
    (tmp_path / "b.json").write_text(json.dumps(dict(record, counters={"x": 2})))
    assert run.main(["--check", str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0
    assert run.main(["--check", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert "DIFFERS x: 1 != 2" in capsys.readouterr().out


def test_a_hook_the_package_no_longer_binds_is_a_note(monkeypatch, m):
    monkeypatch.setattr(
        spans, "HOOKS",
        spans.HOOKS + (("orchestrator", "gone", "x.gone"), ("nosuchmodule", "f", "x.f")),
    )
    tracer = spans.Tracer()
    with spans.installed(tracer):
        tracer.call(spans.ROOT, lambda: None)
    assert len(tracer.notes) == 2 and "x.gone" not in tracer.bound
    assert spans.layer_metrics(tracer)["callgraph.sonar_calls"] == 0


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fs-b2d8", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
