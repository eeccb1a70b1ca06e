"""Tests of the benchmark's own code.

Run from the repository root:

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from layers import PACKAGES, package_of

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# -- BENCHMARK.json and metric names ------------------------------------------------


def test_spec_shape(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_metric_names_are_valid(spec):
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


@pytest.mark.parametrize("name", ["a b", "_lead", "-lead", "x" * 65, "é", "a/b", ""])
def test_invalid_names_are_rejected(name):
    assert not NAME.match(name)


def test_per_layer_names_cover_every_package(spec):
    names = {m["name"] for m in spec["per_layer"]}
    for package in PACKAGES + ("other",):
        assert f"{package}.self_s" in names
    for bench in ("llmbench-chat", "taobench", "storagebench"):
        assert f"workloads.{bench}.point_s" in names


def test_package_of():
    sep = os.sep
    assert package_of(f"{sep}x{sep}src{sep}repro{sep}sim{sep}engine.py") == "sim"
    assert package_of(f"{sep}x{sep}src{sep}repro{sep}__init__.py") == "other"
    assert package_of("~") == "other"
    assert package_of(f"{sep}usr{sep}lib{sep}python3{sep}heapq.py") == "other"


# -- digest checks -------------------------------------------------------------------


@pytest.fixture(scope="module")
def payload():
    from repro.exec import RunPoint, execute_point, report_to_dict

    point = RunPoint(benchmark="djangobench", measure_seconds=0.05, warmup_seconds=0.05)
    return point, report_to_dict(execute_point(point))


def test_digest_catches_a_tampered_report(payload, tmp_path):
    point, original = payload
    tampered = json.loads(json.dumps(original))
    tampered["result"]["throughput_rps"] += 1.0
    assert workloads.digest(original) == workloads.digest(json.loads(json.dumps(original)))
    assert workloads.digest(tampered) != workloads.digest(original)

    rep = workloads.Rep("faults-control", "measure", 0.0, str(tmp_path))
    key = workloads.point_key(point)
    rep.attempted = 1
    rep.digests = {key: workloads.digest(original)}
    rep.compare("cache replay", {key: workloads.digest(original)})
    assert rep.as_dict()["failed"] == 0
    rep.compare("cache replay", {key: workloads.digest(tampered)})
    result = rep.as_dict()
    assert result["failed"] == 1
    assert "differs" in result["errors"][0]


def test_compare_flags_missing_and_extra_points(tmp_path):
    rep = workloads.Rep("grid-pool", "measure", 0.0, str(tmp_path))
    rep.attempted = 3
    rep.digests = {"a": "1", "b": "2", "c": "3"}
    rep.compare("sample", {"a": "1"}, partial=True)
    assert not rep.failed_keys
    rep.compare("replay", {"a": "1", "b": "2", "d": "4"})
    assert rep.failed_keys == {"c", "d"}


def test_check_reps_counts_points_that_differ_between_repetitions():
    def rep(digests, mode="measure"):
        return {"mode": mode, "attempted": len(digests), "failed": 0,
                "errors": [], "digests": digests}

    same = {"a": "1", "b": "2"}
    assert run.check_reps([rep(same), rep(dict(same)), rep({}, "setup")]) == (4, 0, [])
    attempted, failed, errors = run.check_reps([rep(same), rep({"a": "1", "b": "X"})])
    assert (attempted, failed) == (4, 1)
    assert "b differs" in errors[0]


def test_digest_mismatch_exits_nonzero(monkeypatch, capsys):
    def rep(digest):
        return {"mode": "measure", "attempted": 1, "failed": 0, "errors": [],
                "digests": {"a": digest}, "meta": {}, "setup_s": 0.3, "wall_s": 1.0,
                "events": 10, "events_s": 1.0, "replays": [0.01], "peak_rss_mb": 70.0}

    monkeypatch.setattr(run, "run_reps", lambda *args: ([rep("1"), rep("2")], ""))
    assert run.main(["--workload", "faults-control"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_spread():
    assert run.spread([1.0]) == 0.0
    assert run.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert run.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


# -- smoke runs at a shortened window --------------------------------------------


@pytest.fixture
def two_reps(monkeypatch):
    monkeypatch.setattr(run, "MIN_MEASURE_REPS", 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(workload, two_reps):
    result, meta, errors = run.run_benchmark(workload, 7, 1.0, False, window=0.05)
    assert errors == []
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    assert meta["repetitions"] == 2
    assert meta["error_rate"] == 0
    if workload == "grid-pool" and meta["auto_workers"] > 1:
        assert meta["pool_mode"] == "warm" and not meta["pool_fallback"]


@pytest.mark.parametrize("workload", ["suite-cold", "faults-control"])
def test_smoke_trace(workload, spec):
    result, meta, errors = run.run_benchmark(workload, 7, 1.0, True, window=0.1)
    assert errors == []
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["trace.overhead"] > 1.0
    assert metrics["sim.events"] > 0 and metrics["sim.self_s"] > 0
    if workload == "faults-control":
        assert metrics["llm.self_s"] == 0
        assert metrics["faults.shed"] > 0
    else:
        assert metrics["faults.shed"] == 0
        assert metrics["llm.decoded_tokens"] > 0


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
