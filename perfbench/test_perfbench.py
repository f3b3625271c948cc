"""Tests of the benchmark harness's own logic, plus a smoke run of every workload."""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

from repro.data.schema import ColumnDef, ColumnType, Schema
from repro.data.table import Table
from repro.runtime import service
from repro.workloads import HealthLNKWorkload

from perfbench import checks, harness, run, tracing
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _table(names, *columns, float_cols=()):
    schema = Schema([
        ColumnDef(n, ColumnType.FLOAT if n in float_cols else ColumnType.INT) for n in names
    ])
    arrays = [
        np.asarray(c, dtype=np.float64 if n in float_cols else np.int64)
        for n, c in zip(names, columns)
    ]
    return Table(schema, arrays)


# -- percentile and sample-count rule --------------------------------------------------------


def test_percentile_interpolates_between_order_statistics():
    values = list(range(1, 11))
    assert harness.percentile(values, 50) == pytest.approx(5.5)
    assert harness.percentile(values, 90) == pytest.approx(9.1)
    assert harness.percentile(reversed(values), 0) == 1
    assert harness.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_tail_needs_ten_samples_beyond_it():
    assert harness.samples_beyond(100, 90) == 10
    assert harness.samples_beyond(99, 90) == 9
    assert harness.tail_is_resolved(100)
    assert not harness.tail_is_resolved(99)
    assert harness.tail_is_resolved(20, 50)
    assert not harness.tail_is_resolved(6)


# -- reference comparators -------------------------------------------------------------------


def test_hhi_within_fixed_point_tolerance():
    out = _table(["hhi"], [0.4], float_cols=("hhi",))
    assert checks.check_hhi(out, 0.4 + 0.5 * checks.FIXED_POINT_TOLERANCE) is None
    assert checks.check_hhi(out, 0.4 + 2 * checks.FIXED_POINT_TOLERANCE) is not None


def test_average_scores_match_by_zip_in_any_order():
    ref = _table(["zip", "total", "cnt", "avg_score"], [1, 2], [10, 9], [2, 3], [5.0, 3.0],
                 float_cols=("avg_score",))
    shuffled = _table(["zip", "total", "cnt", "avg_score"], [2, 1], [9, 10], [3, 2],
                      [3.000001, 5.0], float_cols=("avg_score",))
    assert checks.check_average_scores(shuffled, ref) is None
    off = _table(["zip", "total", "cnt", "avg_score"], [2, 1], [9, 10], [3, 2], [3.1, 5.0],
                 float_cols=("avg_score",))
    assert "zip 2" in checks.check_average_scores(off, ref)
    missing = _table(["zip", "total", "cnt", "avg_score"], [1], [10], [2], [5.0],
                     float_cols=("avg_score",))
    assert "ZIP codes differ" in checks.check_average_scores(missing, ref)


def test_count_is_exact():
    out = _table(["aspirin_count"], [12])
    assert checks.check_count(out, "aspirin_count", 12) is None
    assert checks.check_count(out, "aspirin_count", 13) is not None


def test_top_k_accepts_either_side_of_a_tie_at_the_cut():
    truth = _table(["diagnosis", "cnt"], [1, 2, 3, 4, 5], [5, 4, 3, 3, 1])

    def top(keys, counts):
        return checks.check_top_k(_table(["diagnosis", "cnt"], keys, counts), truth, 3,
                                  "diagnosis", "cnt")

    assert top([1, 2, 3], [5, 4, 3]) is None
    assert top([2, 4, 1], [4, 3, 5]) is None          # other side of the 3-3 tie, reordered
    assert "missing" in top([1, 3, 4], [5, 3, 3])     # key 2 beats the cut
    assert top([1, 2, 5], [5, 4, 1]) is not None      # key 5 is below the cut
    assert "true count" in top([1, 2, 3], [5, 4, 4])  # wrong count
    assert top([1, 2, 2], [5, 4, 4]) is not None      # duplicate key
    assert top([1, 2], [5, 4]) is not None            # too few rows


def test_top_k_against_the_generator_reference():
    generator = HealthLNKWorkload(seed=3)
    cohort = generator.comorbidity_inputs(200)
    full = generator.reference_comorbidity(cohort, top_k=400)
    assert checks.check_top_k(generator.reference_comorbidity(cohort, top_k=10), full, 10,
                              "diagnosis", "cnt") is None


# -- self time from nested spans -------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("child", 40, 90),
        ("parent", 0, 100),
        ("grandchild", 50, 60),
        ("child", 10, 30),
    ]
    summary = tracing.summarize(spans)
    assert summary["parent"] == [1, 100, 30]
    assert summary["child"] == [2, 70, 60]
    assert summary["grandchild"] == [1, 10, 10]


def test_self_time_with_shared_start_and_siblings():
    spans = [("inner", 0, 10), ("outer", 0, 40), ("next", 40, 50), ("leaf", 10, 10)]
    summary = tracing.summarize(spans)
    assert summary["outer"] == [1, 40, 30]
    assert summary["inner"] == [1, 10, 10]
    assert summary["next"] == [1, 10, 10]
    assert summary["leaf"] == [1, 0, 0]
    merged = tracing.merge_summaries({"outer": [1, 1, 1]}, summary)
    assert merged["outer"] == [2, 41, 31]


# -- metadata and the benchmark description --------------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(harness.per_layer_names())
    assert [m["name"] for m in spec["end_to_end"]] == list(_E2E_NAMES)


_E2E_NAMES = (
    "setup_s", "query_p50_ms", "query_p90_ms", "queries_per_s", "cpu_ms_per_query",
    "peak_rss_mb", "wire_bytes_per_query", "wire_frames_per_query",
)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hhi-bigdata", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_missing_hook_fails_the_traced_run(monkeypatch):
    from repro.exec.engine import ColumnarBackend

    # Not called under the row default, so only the tracing hook notices.
    monkeypatch.delattr(ColumnarBackend, "distinct")
    out = io.StringIO()
    args = Namespace(workload="hhi-bigdata", seed=5, seconds=1.0, trace=1, smoke=True)
    assert not run.run(args, out=out)
    assert "ColumnarBackend.distinct" in out.getvalue()
    assert json.loads(out.getvalue().strip().splitlines()[-1])["correct"] is False


# -- smoke: every workload end to end, traced and untraced -----------------------------------


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run(workload):
    originals = (service.merge_payloads, service.AgentPool.submit)
    for trace in (0, 1):
        out = io.StringIO()
        args = Namespace(workload=workload, seed=5, seconds=1.0, trace=trace, smoke=True)
        assert run.run(args, out=out), out.getvalue()
        lines = out.getvalue().strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        meta = json.loads(next(line for line in lines if line.startswith("# meta "))[7:])
        for key in ("commit", "dirty", "python", "numpy", "nproc", "cpu", "start_method",
                    "seed", "sizes"):
            assert key in meta
        if trace:
            assert set(result["metrics"]) == {n for n, _ in harness.per_layer_names()}
            assert result["metrics"]["agent.attributed_pct"]["value"] > 90
        else:
            assert list(result["metrics"]) == list(_E2E_NAMES)
            assert all(m["value"] > 0 for m in result["metrics"].values())
    assert (service.merge_payloads, service.AgentPool.submit) == originals
    assert service.active_agent_processes() == []
