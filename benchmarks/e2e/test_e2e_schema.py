"""Self-test of the benchmark's output schema (outside tier-1 testpaths).

    python3 -m pytest benchmarks/e2e/test_e2e_schema.py -q \
        -p no:cacheprovider --confcutdir=benchmarks/e2e

(``--confcutdir`` keeps ``benchmarks/conftest.py`` out: it imports
``repro.bench``, which needs ``PYTHONPATH=src`` and is due for deletion.)

``run.py --smoke`` runs all six workloads at tiny sizes, once untraced
and once traced, and must emit exactly the workload and metric names
that ``BENCHMARK.json`` declares: none missing, none extra, all finite.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_declared_names_are_well_formed():
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in SPEC[section]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize(
    "trace, section", [(0, "end_to_end"), (1, "per_layer")]
)
def test_smoke_emits_exactly_the_declared_metrics(tmp_path, trace, section):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke",
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == [
        w["name"] for w in SPEC["workloads"]]
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for run in runs:
        result = run["result"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(declared), run["workload"]
        for name, metric in result["metrics"].items():
            assert metric["unit"] == declared[name]
            assert math.isfinite(metric["value"]), (run["workload"], name)
