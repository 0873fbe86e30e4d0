"""Checks on the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Each run is a subprocess, as the benchmark is always run, so that no value
computed in one run can be reused by the next.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import pytest

import workloads
from run import END_TO_END, PER_LAYER

COUNT_SUFFIXES = (".calls", ".distinct", ".entries", ".madds", ".gf_new", ".traced_ops")


def bench(*args: str, root=workloads.ROOT, runs: int = 1) -> list[tuple[int, dict | None, str]]:
    """Run the benchmark ``runs`` times at once; per run its exit code, result and stderr."""
    procs = [subprocess.Popen([sys.executable, "bench/run.py", *args], cwd=root, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE)
             for _ in range(runs)]
    results = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        lines = out.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        results.append((proc.returncode, result, err))
    return results


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    # the configuration every traced run uses; two runs side by side, one per CPU
    runs = bench("--workload", name, "--seed", "11", "--seconds", "1", "--trace", "1", runs=2)
    for code, result, err in runs:
        assert code == 0, err
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(PER_LAYER)
    first, second = (r[1]["metrics"] for r in runs)
    counts = [n for n in PER_LAYER if n.endswith(COUNT_SUFFIXES)]
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["linalg.rref.calls"]["value"] > 0


def test_untraced_run_prints_every_end_to_end_metric():
    [(code, result, err)] = bench("--workload", "dense", "--seed", "5", "--seconds", "0.5",
                                  "--trace", "0")
    assert code == 0, err
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_sources():
    scratch = workloads.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        shutil.copytree(workloads.BENCH, f"{tmp}/bench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp)
        [(code, result, err)] = bench("--workload", "cli_mix", "--seed", "1", "--seconds", "1",
                                      "--trace", "0", root=tmp)
    assert code != 0 and result is None
    assert "no abcat sources" in err


def test_fails_when_the_pool_runs_out():
    scratch = workloads.ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for part in ("bench", "src", "tests/golden"):
            shutil.copytree(workloads.ROOT / part, f"{tmp}/{part}",
                            ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        pool_path = f"{tmp}/bench/pool.json"
        with open(pool_path, encoding="utf-8") as handle:
            pool = json.load(handle)
        for entry in pool["workloads"]["dense"].values():
            entry["offsets"] = entry["offsets"][:3]
            entry["digests"] = entry["digests"][:3 * workloads.DIGEST_HEX]
        with open(pool_path, "w", encoding="utf-8") as handle:
            json.dump(pool, handle)
        [(code, result, err)] = bench("--workload", "dense", "--seed", "1", "--seconds", "60",
                                      "--trace", "0", root=tmp)
    assert code == 3 and result is None
    assert "pool.json holds only 3 cycles" in err
