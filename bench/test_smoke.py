"""Smoke test of the benchmark itself, at tiny sizes (about a minute):

    python3 -m pytest bench/test_smoke.py

Every workload runs in both modes and emits every metric named in
``BENCHMARK.json`` with its unit; a corrupted golden digest is counted as
one failed op without crashing the run; and a directory holding only the
benchmark (no ``src/``) makes it exit nonzero without a result.
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import golden  # noqa: E402
import reference  # noqa: E402


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {"nproc", "cpu_model", "caches", "python", "numpy", "git_commit"} <= set(detail["machine"])
    return result


def assert_metrics(result: dict, group: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    if group == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def copy_checkout(dest: Path, with_sources: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["array_sweep", "point_queries"])
def test_in_process_workloads(workload, trace):
    result = result_of(run_bench(ROOT, workload, trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert_metrics(result, "per_layer" if trace else "end_to_end")


def test_repro_traced():
    result = result_of(run_bench(ROOT, "repro", 1))
    assert result["correct"] and result["failed"] == 0
    assert_metrics(result, "per_layer")
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["cli.main.calls"] == 28  # repro itself plus its 27 steps
    assert m["hybrid.checkpoint_scan.points"] == 10000
    assert m["trace.layers_self_s"] + m["trace.outside_s"] == pytest.approx(m["trace.wall_s"])


def test_repro_counts_a_corrupted_digest(tmp_path):
    root = copy_checkout(tmp_path)
    digests_path = root / "bench" / "golden" / "repro_sha256.json"
    digests = json.loads(digests_path.read_text())
    digests["qec_map_933.csv"] = "0" * 64
    digests_path.write_text(json.dumps(digests))
    result = result_of(run_bench(root, "repro", 0))
    assert result["failed"] == 1 and not result["correct"]
    assert result["attempted"] == len(digests) + 1
    assert_metrics(result, "end_to_end")


def test_golden_counts_match_the_repro_digests():
    digests = golden.load_digests()
    for name, code in reference.load_codes().items():
        rendered = hashlib.sha256(reference.counts_csv(code["counts"])).hexdigest()
        assert rendered == digests[f"qec_counts_{name}.csv"], name


def test_exits_nonzero_without_sources(tmp_path):
    root = copy_checkout(tmp_path, with_sources=False)
    for workload in ("repro", "array_sweep", "point_queries"):
        proc = run_bench(root, workload, 0)
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
