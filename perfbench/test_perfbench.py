"""Tests of the benchmark itself, on shrunken workloads.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
import time
from functools import partial

import numpy as np
import pytest

import run

run.import_program()

import layers  # noqa: E402
import workloads  # noqa: E402

SMOKE = {
    "sweep_elongated": partial(workloads.SweepElongated,
                               values=[500.0, 880.0, 900.0], rings=8),
    "relax_ladder": partial(workloads.RelaxLadder, rings=(8,)),
    "saddle_family": partial(workloads.SaddleFamily, ts=(0.3,), rings=8,
                             rows=5),
}


def _declared(section):
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[section]]


@pytest.fixture
def smoke(monkeypatch, capsys):
    """Run one shrunken workload through run.main; returns (result, detail)."""
    for name, factory in SMOKE.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, factory)

    def go(name, trace=0, seed=0, seconds=0):
        code = run.main(["--workload", name, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        return json.loads(lines[-1]), json.loads(lines[-2])

    return go


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_every_declared_metric_is_printed(smoke, name):
    t0 = time.perf_counter()
    result, _ = smoke(name, trace=0)
    assert list(result["metrics"]) == _declared("end_to_end")
    assert all(m["value"] != 0 for m in result["metrics"].values())
    result, detail = smoke(name, trace=1)
    assert list(result["metrics"]) == _declared("per_layer")
    assert detail["pass_traced"] == [False, True]
    assert set(detail["metadata"]) >= {"python", "numpy", "scipy", "nproc",
                                       "cpu"}
    assert time.perf_counter() - t0 < 60.0


def test_injected_failure_lowers_ops_ok_frac(smoke, monkeypatch):
    clean, _ = smoke("saddle_family")
    assert clean["correct"] and clean["failed"] == 0
    assert clean["metrics"]["ops_ok_frac"]["value"] == 1.0

    monkeypatch.setattr(workloads.sweep, "count_self_intersections",
                        lambda mesh, x: 1)
    broken, detail = smoke("saddle_family")
    assert not broken["correct"]
    assert broken["failed"] == len(detail["pass_wall_s"])   # one shape a pass
    assert broken["metrics"]["ops_ok_frac"]["value"] == pytest.approx(
        1.0 - broken["failed"] / broken["attempted"])


def test_sweep_rerun_must_be_byte_identical(smoke, monkeypatch):
    _, clean = smoke("sweep_elongated")
    assert "diagram.csv differs from the first pass" not in clean["failures"]

    write = workloads.sweep.write_diagram_csv
    calls = []

    def drifting(path, diagram):
        write(path, diagram)
        calls.append(path)
        if len(calls) == 2:            # the second pass writes one byte more
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(text.replace(",converged\n", ",converged \n", 1))

    monkeypatch.setattr(workloads.sweep, "write_diagram_csv", drifting)
    result, detail = smoke("sweep_elongated")
    assert "diagram.csv differs from the first pass" in detail["failures"]
    assert result["failed"] == len(clean["failures"]) + 1


def test_counting_shim_reproduces_solver_counts(smoke):
    _, detail = smoke("relax_ladder", seed=0)
    assert detail["energy_evals"] == [2329, 2329]


def test_self_fractions_partition_traced_passes(smoke):
    result, detail = smoke("relax_ladder", trace=1, seconds=3)
    assert detail["pass_traced"].count(True) >= 2
    fracs = [m["value"] for k, m in result["metrics"].items()
             if k.endswith("self_frac") or k == "sweep.si_frac"]
    assert all(f >= 0 for f in fracs)
    # every pass of the ladder runs inside cmd_relax spans
    assert 0.95 < sum(fracs) <= 1.0


def test_instrument_restores_every_name():
    import filmloop.cli
    import filmloop.optimize
    before = (filmloop.optimize.energy_and_gradient, filmloop.cli.relax,
              dict(filmloop.cli._COMMANDS))
    with layers.instrument(layers.Recorder(tracing=True)):
        assert filmloop.optimize.energy_and_gradient is not before[0]
    assert (filmloop.optimize.energy_and_gradient, filmloop.cli.relax,
            filmloop.cli._COMMANDS) == before


def test_reference_clock_excludes_its_kernel():
    import signal
    import refclock
    clock = refclock.RefClock()
    handler = signal.getsignal(signal.SIGALRM)
    wall0, now0 = time.perf_counter(), clock.now()
    with clock.sampling():
        while time.perf_counter() - wall0 < 0.35:
            pass
    wall = time.perf_counter() - wall0
    assert len(clock.samples) >= 4                 # start, >= 2 ticks, end
    assert clock.now() - now0 == pytest.approx(wall - clock.spent, abs=1e-3)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert clock.scale(0) > 0


def test_self_time_subtracts_children():
    spans = [("cli", "cmd", 0.0, 10.0, -1),
             ("optimize", "relax", 1.0, 9.0, 0),
             ("energy", "eg", 2.0, 5.0, 1),
             ("optimize", "precond_apply", 6.0, 7.0, 1)]
    assert layers.self_times(spans) == pytest.approx(
        {"cli": 2.0, "optimize": 5.0, "energy": 3.0})


def test_sweep_schedule_is_the_acceptance_grid():
    v = workloads.SWEEP_VALUES
    assert len(v) == 36 and v[0] == 500.0 and v[-1] == 900.0
    assert np.all(np.diff(v) > 0)


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relax_ladder",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert "correct" not in done.stdout
