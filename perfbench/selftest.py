#!/usr/bin/env python3
"""The benchmark's own checks.

    python3 perfbench/selftest.py [workload ...]

- the digests recorded at the seed commit equal the independent reference;
- two traced runs with the same seed report identical work counts, and the
  result line carries exactly the per-layer metrics of BENCHMARK.json;
- an untraced run carries exactly the end-to-end metrics;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Each run is as short as the benchmark allows (one round, or one untraced
and one traced round), so the whole file takes a few minutes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = {"count", "1/step", "bits/step"}  # work counts and ratios of them
MANUAL = ["verify-certify"]  # runnable by name, not in BENCHMARK.json (see NOTE.md)


def bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    return res


def check_digests():
    sys.path.insert(0, str(HERE))
    import oracle

    recorded = json.loads((HERE / "digests.json").read_text())
    for name, coeffs, index in (("cbrt2", (-2, 0, 0, 1), 1), ("c7", (-1, -2, 1, 1), 3)):
        quotients = oracle.cf_quotients(coeffs, index, 2000)
        assert oracle.digest(oracle.reference_steps(coeffs, quotients)) == recorded[f"{name}@2000"], name
    print("ok: recorded digests match the independent reference")


def check_traced_counts(workload):
    first, second = (result(bench(workload, 1))["metrics"] for _ in range(2))
    assert list(first) == [m["name"] for m in SPEC["per_layer"]], "per-layer metric names"
    exact = [k for k, v in first.items() if v["unit"] in EXACT_UNITS]
    differ = [k for k in exact if first[k]["value"] != second[k]["value"]]
    assert not differ, f"{workload}: counts differ between traced runs: {differ}"
    print(f"ok: {workload}: {len(exact)} work counts repeat exactly between two traced runs")


def check_untraced(workload):
    metrics = result(bench(workload, 0))["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]], "end-to-end metric names"
    assert all(v["value"] > 0 for v in metrics.values()), metrics
    print(f"ok: {workload}: untraced run reports every end-to-end metric, none 0")


def check_bare_directory():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("request-stream", 0, cwd=bare)
        assert proc.returncode != 0, "benchmark succeeded without the sources"
        assert not proc.stdout.strip(), f"printed output without the sources: {proc.stdout!r}"
    finally:
        shutil.rmtree(bare)
    print("ok: without the sources the benchmark exits non-zero and prints no result")


def main(argv) -> int:
    workloads = argv or [w["name"] for w in SPEC["workloads"]] + MANUAL
    check_digests()
    check_bare_directory()
    for workload in workloads:
        check_untraced(workload)
        check_traced_counts(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
