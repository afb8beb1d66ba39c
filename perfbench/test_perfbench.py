"""The benchmark's own tests: a reduced-size pass of every workload.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from inputs import StratifiedPoissonStream  # noqa: E402
from measure import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    measured_pass,
    traced_pass,
)
from spans import installed_wrappers  # noqa: E402
from speed import probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.workloads.distributions import WEB_SEARCH  # noqa: E402
from repro.workloads.patterns import all_to_all  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_lists_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == END_TO_END
    assert _units("per_layer") == PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_measured_pass(name, tmp_path):
    outcome = measured_pass(WORKLOADS[name], seed=1, seconds=0.0,
                            workdir=tmp_path, reduced=True)
    assert outcome.checks_failed == []
    assert outcome.failed == 0
    assert set(outcome.metrics) == set(END_TO_END)
    assert outcome.metrics["flows_completed_frac"] == 1.0
    assert all(value > 0 for value in outcome.metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_pass_matches_untraced_and_cleans_up(name, tmp_path):
    outcome = traced_pass(WORKLOADS[name], seed=1, workdir=tmp_path,
                          reduced=True)
    # the pass compares every traced run's FCTs with its untraced twin
    assert outcome.checks_failed == []
    assert installed_wrappers() == []
    assert set(outcome.metrics) == set(PER_LAYER)
    metrics = outcome.metrics
    assert metrics["engine.events"] > 0 and metrics["link.pkts"] > 0
    assert metrics["trace.overhead_frac"] > 0
    assert 0 < metrics["trace.unattributed_frac"] < 1
    soak = name == "soak"
    assert (metrics["resilience.checkpoints"] > 0) == soak
    assert (metrics["validate.self_s"] > 0) == soak
    assert (metrics["shard.rounds"] > 0) == (name == "sharded")


def test_a_failed_check_names_itself_and_voids_its_flows(tmp_path):
    base = WORKLOADS["incast"]

    def truncated(seed, reduced):
        return dataclasses.replace(base.scenario(seed, reduced),
                                   max_time=1e-4)

    outcome = measured_pass(dataclasses.replace(base, scenario=truncated),
                            1, 0.0, tmp_path, reduced=True)
    assert any("all-flows-complete" in check
               for check in outcome.checks_failed)
    assert outcome.failed == outcome.attempted > 0
    assert outcome.metrics["flows_completed_frac"] == 0.0


def test_fcts_are_fixed_by_the_seed(tmp_path):
    workload = WORKLOADS["incast"]
    first = measured_pass(workload, 3, 0.0, tmp_path, reduced=True)
    again = measured_pass(workload, 3, 0.0, tmp_path, reduced=True)
    other = measured_pass(workload, 4, 0.0, tmp_path, reduced=True)
    assert first.digest == again.digest != other.digest


def test_stratified_stream_is_seeded_and_ordered():
    def flows(seed):
        return list(StratifiedPoissonStream(
            all_to_all(list(range(8))), WEB_SEARCH, load=0.5, link_rate=1e10,
            n_flows=200, n_senders=8, seed=seed, size_cap=2_000_000))

    a, b = flows(5), flows(5)
    assert [(f.src, f.dst, f.size, f.start_time) for f in a] == \
        [(f.src, f.dst, f.size, f.start_time) for f in b]
    assert [f.flow_id for f in a] == list(range(200))
    starts = [f.start_time for f in a]
    assert starts == sorted(starts)
    # stratified sizes: the sample mean sits close to the capped mean
    mean = sum(f.size for f in a) / len(a)
    assert abs(mean / WEB_SEARCH.mean(2_000_000) - 1.0) < 0.05
    # every seed offers the same sizes over nearly the same span (all
    # gaps but the one drawn for the first flow), in its own order
    c = flows(6)
    assert sorted(f.size for f in a) == sorted(f.size for f in c)
    assert [f.size for f in a] != [f.size for f in c]
    assert a[-1].start_time == pytest.approx(c[-1].start_time, rel=0.05)


@pytest.mark.parametrize("width", [1, 2, 3])
def test_speed_probe_times_the_loop_and_reaps_its_copies(width):
    assert 0 < probe(width) < 10.0
    try:  # a copy the probe did not wait for would be reaped here
        reaped, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        reaped = 0
    assert reaped == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "incast",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
