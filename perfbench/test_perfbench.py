"""Self-tests of the benchmark: its gates can fail, its counts repeat.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from sbspec import braces, ideals, suite  # noqa: E402


def run_benchmark(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def catalog6(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cat") / "c6.jsonl")
    return path, workloads.catalog6_body(path)


def test_catalog6_gate_passes_on_the_real_catalog(catalog6):
    path, outputs = catalog6
    verdict = workloads.catalog6_check(path, outputs)
    assert (verdict.attempted, verdict.failed, verdict.problems) == (756, 0, [])


def test_corrupted_catalog_record_raises_error_rate(catalog6):
    path, (records, _, _) = catalog6
    back = list(records)
    back[5] = dataclasses.replace(back[5], ideal_count=back[5].ideal_count + 1)
    rows = suite.run_records(back)
    verdict = workloads.catalog6_check(path, (records, tuple(back), rows))
    assert verdict.failed > 0
    assert any("round-trip" in p for p in verdict.problems)


def test_changed_catalog_bytes_raise_error_rate(catalog6):
    path, (records, back, rows) = catalog6
    changed = list(records)
    changed[0] = dataclasses.replace(changed[0], t1=not changed[0].t1)
    verdict = workloads.catalog6_check(path, (tuple(changed), tuple(changed), rows))
    assert verdict.failed == verdict.attempted
    assert any("sha256" in p for p in verdict.problems)


def test_wrong_ideal_count_raises_error_rate():
    z2_cubed = braces.trivial_brace(workloads.elementary_abelian_table(3))
    named = [("z2^4-trivial", z2_cubed)]
    verdict = workloads.lattice_check(named, workloads.lattice_body(named))
    assert "z2^4-trivial: 16 ideals, expected 67" in verdict.problems
    assert verdict.failed == 5  # the wrong count plus four braces that never ran

    named = [("z12-trivial", z2_cubed)]
    verdict = workloads.suite12_check(named, workloads.suite12_body(named))
    assert verdict.failed >= workloads.SUITE_ROWS_PER_BRACE


def test_relabelled_inputs_follow_the_seed_and_keep_the_gates():
    first = workloads.lattice_inputs(11, "")
    assert first == workloads.lattice_inputs(11, "")
    other = workloads.lattice_inputs(12, "")
    assert [b.add for _, b in first] != [b.add for _, b in other]
    z2_4 = dict(first)["z2^4-trivial"]
    assert z2_4.add != workloads.elementary_abelian_table(4)
    assert len(ideals.ideal_lattice(z2_4).members) == 67


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail_percentile([float(i) for i in range(19)]) is None
    for n in (20, 30, 57):
        pct, value = run.tail_percentile([float(i) for i in range(n)])
        assert sum(v > value for v in range(n)) >= 10
        assert pct >= 50


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [run.unit_of(n) for n in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", ["catalog6", "lattice"])
def test_two_traced_runs_give_identical_counts(workload):
    args = ("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    results = [run_benchmark(*args) for _ in range(2)]
    counts = []
    for proc in results:
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc.stdout)
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER)
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] != "s"})
    assert counts[0] == counts[1]


def test_untraced_run_prints_every_end_to_end_metric():
    proc = run_benchmark("--workload", "catalog6", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["attempted"] >= 756 and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "error_rate" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    args = ("--workload", "lattice", "--seed", "1", "--seconds", "10", "--trace", "0")
    proc = run_benchmark(*args, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
