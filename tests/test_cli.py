"""Command-line interface: exit codes, emitted artifacts, and rerun
determinism, driven in process through main(argv) plus one real subprocess
check of the module entry point.
"""

import json
import re
import subprocess
import sys

import numpy as np
import pytest

import filmloop
from filmloop.cli import main
from filmloop.energy import SIGMA_PER_SPRING_K
from filmloop.sweep import BifurcationDiagram, SweepPoint, write_diagram_csv


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert filmloop.__version__ in capsys.readouterr().out


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "filmloop.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == filmloop.__version__


def test_usage_errors_exit_one():
    assert main([]) == 1
    assert main(["--bogus-flag"]) == 1
    assert main(["sweep"]) == 1                   # no config, no range
    assert main(["mesh", "--rings", "0"]) == 1


def test_mesh_command_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "mesh"
    assert main(["mesh", "--rings", "3", "--out", str(out)]) == 0
    assert "pass" in capsys.readouterr().out
    assert (out / "mesh.obj").exists()
    report = json.loads((out / "validation.json").read_text())
    assert report["passed"] is True
    assert report["vertex_count"] == 3 * 3**2 + 3 * 3 + 1


def test_stability_command_prints_threshold_table(capsys):
    assert main(["stability"]) == 0
    out = capsys.readouterr().out
    assert "1488.301281" in out                   # gamma at the first mode
    assert "644.453359" in out                    # same row in k L^3 / alpha


def test_relax_command_summary(tmp_path, capsys):
    out = tmp_path / "relax"
    rc = main(["relax", "--kl3a", "30", "--rings", "5",
               "--max-iterations", "20000", "--out", str(out)])
    assert rc == 0
    assert "converged" in capsys.readouterr().out
    assert (out / "relaxed.obj").exists()
    assert (out / "boundary.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["planarity"] < 1e-4            # well below any onset
    assert summary["length_rel_err"] < 1e-3
    assert abs(summary["gauss_bonnet_defect"]) < 1e-9


def test_sweep_command_and_manifest_rerun(tmp_path, capsys):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    rc = main(["sweep", "--start", "20", "--stop", "60", "--num", "3",
               "--rings", "4", "--out", str(out1)])
    assert rc == 0
    assert "3 converged" in capsys.readouterr().out
    rc = main(["sweep", "--config", str(out1 / "manifest.json"),
               "--out", str(out2)])
    assert rc == 0
    assert ((out1 / "diagram.csv").read_bytes()
            == (out2 / "diagram.csv").read_bytes())


def test_sweep_config_unknown_keys_exit_one(tmp_path, capsys):
    # an unknown key at either level of the config is rejected by name,
    # before any relaxation runs; the last three are keys of manifests
    # written before preconditioning, the kick amplitude and the penalty
    # round limit became constants
    base = {"values": [20.0, 40.0], "rings": 3}
    for bad, cfg in (("bogus", dict(base, bogus=1)),
                     ("rng_seed", dict(base, options={"rng_seed": 0})),
                     ("precondition", dict(base,
                                           options={"precondition": True})),
                     ("perturbation_amplitude",
                      dict(base, perturbation_amplitude=None)),
                     ("max_penalty_rounds", dict(base, max_penalty_rounds=5))):
        path = tmp_path / f"{bad}.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path),
                     "--out", str(tmp_path / bad)]) == 1
        err = capsys.readouterr().err
        assert bad in err and "Traceback" not in err
        assert not (tmp_path / bad).exists()


@pytest.mark.parametrize("key, cfg", [
    ("max_iterations", {"options": {"max_iterations": "x"}}),
    ("base_seed", {"base_seed": "a"}),
    ("options", {"options": 5}),
    ("warm_start", {"warm_start": "no"}),
    ("rings", {"rings": 3.5}),
    ("alpha", {"alpha": 0}),
    ("JSON", [1, 2]),
    ("values", {"values": [100.0, float("nan")]}),
    ("alpha", {"alpha": float("nan")}),
    ("values", {"values": [100.0, float("inf")]}),
])
def test_sweep_config_bad_value_types_exit_one(tmp_path, capsys, key, cfg):
    # a value of the wrong type (or a zero or non-finite modulus, which
    # would divide by zero or poison every energy) is rejected by key before
    # any relaxation runs; a manifest that is not a JSON object is rejected
    # as such
    if isinstance(cfg, dict):
        cfg = dict({"values": [20.0, 40.0], "rings": 3}, **cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--kl3a", "nan"),
                                         ("--gradient-tolerance", "nan")])
def test_relax_non_finite_flag_exits_one(tmp_path, capsys, flag, value):
    # a NaN passes every "< 0" guard; it is a usage error, not a relaxation
    # that fails with a non-finite energy
    out = tmp_path / "relax"
    assert main(["relax", "--rings", "3", flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_sweep_partial_range_is_a_usage_error(tmp_path, capsys):
    # --start alone next to --config used to be ignored silently
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"values": [20.0, 40.0], "rings": 3}))
    out = tmp_path / "s"
    for argv in (["--config", str(cfg), "--start", "1"],
                 ["--config", str(cfg), "--stop", "60", "--num", "3"],
                 ["--start", "20", "--stop", "60"]):
        assert main(["sweep", *argv, "--out", str(out)]) == 1
        assert "--start, --stop and --num" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_jobs_below_one_is_a_usage_error(tmp_path, capsys, jobs):
    out = tmp_path / "s"
    assert main(["sweep", "--start", "20", "--stop", "60", "--num", "3",
                 "--rings", "3", "--no-warm-start", "--jobs", jobs,
                 "--out", str(out)]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_jobs_needs_no_warm_start(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["sweep", "--start", "20", "--stop", "60", "--num", "3",
                 "--rings", "3", "--jobs", "2", "--out", str(out)]) == 1
    assert "--no-warm-start" in capsys.readouterr().err
    assert not out.exists()


def _write_fit_csv(path, n):
    gammas = np.linspace(1010.0, 1240.0, n)
    points = []
    for i, g in enumerate(gammas):
        a = 0.1 * np.sqrt(g - 1005.0)
        points.append(SweepPoint(
            index=i, k_l3_alpha=g / SIGMA_PER_SPRING_K, gamma=g,
            spring_k=g / SIGMA_PER_SPRING_K, energy_total=1.0,
            energy_bending=0.5, energy_springs=0.5, energy_penalty=0.0,
            start_energy=1.0, boundary_length=1.0, length_rel_err=1e-6,
            mean_abs_kn=a, int_abs_kn=a, int_K=2.5 - 0.003 * g, mean_K=0.0,
            area=0.08, planarity=0.05, dominant_mode=2, mode2_amp=0.01,
            gauss_bonnet=1e-12, self_intersections=0, iterations=100,
            penalty_rounds=1, seed=i, converged=1, status="converged"))
    write_diagram_csv(path, BifurcationDiagram(points=points))


def test_fit_command_recovers_exponent(tmp_path, capsys):
    csv = tmp_path / "diagram.csv"
    _write_fit_csv(csv, 12)
    rc = main(["fit", "--diagram", str(csv), "--threshold", "1000",
               "--units", "gamma"])
    assert rc == 0
    out = capsys.readouterr().out
    m = re.search(r"p = ([0-9.]+)", out)
    assert m and abs(float(m.group(1)) - 0.5) < 1e-3
    assert "slope" in out
    # same threshold expressed in k L^3 / alpha units
    rc = main(["fit", "--diagram", str(csv),
               "--threshold", str(float(1000.0 / SIGMA_PER_SPRING_K))])
    assert rc == 0
    m = re.search(r"p = ([0-9.]+)", capsys.readouterr().out)
    assert m and abs(float(m.group(1)) - 0.5) < 1e-3


def test_fit_command_error_codes(tmp_path):
    assert main(["fit", "--diagram", str(tmp_path / "missing.csv"),
                 "--threshold", "1000"]) == 1
    sparse = tmp_path / "sparse.csv"
    _write_fit_csv(sparse, 5)
    assert main(["fit", "--diagram", str(sparse), "--threshold", "1000",
                 "--units", "gamma"]) == 2


def test_fit_rejects_ragged_rows(tmp_path, capsys):
    good = tmp_path / "diagram.csv"
    _write_fit_csv(good, 12)
    lines = good.read_text().splitlines()
    for name, row in (("short", ",".join(lines[3].split(",")[:-2])),
                      ("long", lines[3] + ",1.0")):
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines[:3] + [row] + lines[4:]) + "\n")
        assert main(["fit", "--diagram", str(path), "--threshold", "1000",
                     "--units", "gamma"]) == 1
        assert "line 4" in capsys.readouterr().err


def test_asymptotic_command_table(tmp_path, capsys):
    out = tmp_path / "asym"
    rc = main(["asymptotic", "--num", "3", "--out", str(out)])
    assert rc == 0
    lines = (out / "family.csv").read_text().splitlines()
    assert lines[0].startswith("gamma,t,radius,")
    assert len(lines) == 4
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == 0.0                        # below threshold: flat disk
    last = [float(v) for v in lines[3].split(",")]
    assert last[1] > 0.3                          # well above: twisted branch
    assert last[7] < 0                            # negative integrated K
