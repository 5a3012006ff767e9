import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def reject_constant(name):
    raise ValueError(f"non-finite value {name} in the result line")


@pytest.mark.parametrize("trace", ["0", "1"])
def test_bench_result_line_is_strict_json(trace):
    """A short `cubic_sweep` benchmark, untraced (wall_s, setup_s,
    peak_rss_mb) or traced (per-layer metrics), exits 0 and ends with a
    strict-JSON result (no NaN or Infinity) that reads correct, with no
    failed op."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cubic_sweep",
         "--seed", "1", "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1],
                        parse_constant=reject_constant)
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
