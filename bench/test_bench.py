"""Tests for the benchmark itself: tiny runs of every workload, failure
accounting, metric names against BENCHMARK.json, and the refusal to run
without the package sources."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from infocost import axioms  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, tmp_path: Path) -> workloads.Workload:
    return workloads.build(name, seed=3, scale="tiny", workdir=tmp_path)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_workload_passes_every_recheck(name, tmp_path):
    workload = tiny(name, tmp_path)
    tally = run.Tally()
    times = run.run_pass(workload.ops, tally, run.HostSpeed())
    assert tally.reasons == []
    assert tally.attempted == len(workload.ops) > 0
    # without speed samples the rescaled time is the wall time
    assert all(wall == scaled > 0 for wall, scaled in times.values())


def test_speed_samples_are_left_out_and_rescale_spans():
    host = run.HostSpeed()
    with host.sampling():
        mark = host.start()
        end = run.perf_counter() + 0.5
        while run.perf_counter() < end:
            pass
        wall, scaled = host.stop(mark)
    assert len(host.samples) >= 3
    assert 0.5 - host.busy <= wall < 0.5
    # a span is rescaled by the mean speed the samples taken in it saw
    assert min(host.samples) <= run.KERNEL_REF_S * wall / scaled <= max(host.samples)
    assert host.scale(since=len(host.samples)) > 0  # no new sample: the last ones serve


def test_same_seed_gives_same_inputs(tmp_path):
    first = workloads.build("cycle", seed=5, scale="full", workdir=tmp_path).instances
    again = workloads.build("cycle", seed=5, scale="full", workdir=tmp_path).instances
    other = workloads.build("cycle", seed=6, scale="full", workdir=tmp_path).instances
    assert first == again
    assert first != other


def test_corrupted_multipliers_count_as_failures(tmp_path, monkeypatch):
    original = axioms.check_nipmc

    def corrupted(dataset, **kwargs):
        verdict = original(dataset, **kwargs)
        if not verdict.passed:
            return verdict
        key = next(iter(verdict.multipliers))
        bad = {**verdict.multipliers, key: verdict.multipliers[key] + 10**6}
        return dataclasses.replace(verdict, multipliers=bad)

    monkeypatch.setattr(axioms, "check_nipmc", corrupted)
    workload = tiny("cycle", tmp_path)
    tally = run.Tally()
    run.run_pass(workload.ops, tally, run.HostSpeed())
    # the check and recover operations of the passing dataset fail their
    # re-checks; the violating dataset's reject operation still passes
    assert tally.failed == 2
    assert tally.attempted == 3
    failed_ops = sorted(r.split(":")[0].rsplit(".", 1)[1] for r in tally.reasons)
    assert failed_ops == ["check", "recover"]


def test_flipped_verdict_counts_as_failure(tmp_path, monkeypatch):
    original = axioms.check_nipmc

    def flipped(dataset, **kwargs):
        verdict = original(dataset, **kwargs)
        return dataclasses.replace(verdict, passed=not verdict.passed)

    monkeypatch.setattr(axioms, "check_nipmc", flipped)
    workload = tiny("cycle", tmp_path)
    tally = run.Tally()
    run.run_pass(workload.ops, tally, run.HostSpeed())
    assert tally.failed == tally.attempted == 3


def test_traced_pass_names_every_layer_and_matches_benchmark(tmp_path):
    workload = tiny("roundtrip", tmp_path)
    tally = run.Tally()
    tracer = tracing.Tracer()
    with tracer.installed():
        run.run_pass(workload.ops, tally, run.HostSpeed(), tracer)
    assert not hasattr(axioms.check_nipmc, "__wrapped__")  # wrappers removed
    layer = tracer.metrics()
    metrics = run.per_layer_metrics(layer, {"cli": 1.0}, 0.0, tally, 1.0, 1.0, 0.002)
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    for name in ("io", "model", "revealed", "axioms", "lp", "recovery",
                 "piecewise", "forward", "cli"):
        assert tracer.layers[name][0] > 0, name
    assert layer["forward.lp_solves"][0] == 4
    ops = {s.op for s in tracer.spans}
    assert ops == {op.name for op in workload.ops}


def test_end_to_end_names_match_benchmark():
    metrics = run.end_to_end_metrics(1.0, 1.0)
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(metrics[name]["unit"] == unit for name, unit in units.items())


def test_interaction_map_names_known_metrics():
    known = {m["name"] for m in BENCHMARK["per_layer"] + BENCHMARK["end_to_end"]}
    names = {w["name"] for w in BENCHMARK["workloads"]}
    table = json.loads((Path(run.__file__).parent / "interactions.json").read_text())
    for row in table["map"]:
        assert row["per_layer"] in known
        assert set(row["moves"]) <= known
        assert set(row["workloads"]) <= names


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cycle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
