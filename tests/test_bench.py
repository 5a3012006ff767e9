import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def reject_constant(name):
    raise ValueError(f"non-finite value {name} in the result line")


# the cubic_sweep cases keep their ids "0" and "1"
@pytest.mark.parametrize("workload, trace", [
    ("cubic_sweep", "0"), ("cubic_sweep", "1"), ("pipeline_pruned", "0")],
    ids=["0", "1", "pipeline_pruned-0"])
def test_bench_result_line_is_strict_json(workload, trace):
    """A short benchmark, untraced (wall_s, setup_s, peak_rss_mb) or traced
    (per-layer metrics), exits 0 and ends with a strict-JSON result (no
    NaN or Infinity) that reads correct, with no failed op. An untraced
    result carries exactly the end-to-end metrics BENCHMARK.json names,
    each finite and positive. Most of a pipeline_pruned run's time is the
    harness's fixed work: the fresh interpreters behind setup_s and the
    dense-SVD reference for the warm-up op's kappa."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1],
                        parse_constant=reject_constant)
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    if trace == "0":
        names = {m["name"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        assert set(result["metrics"]) == names
        for name, metric in result["metrics"].items():
            assert 0 < metric["value"] < math.inf, (name, metric)
