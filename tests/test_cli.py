"""Command-line interface: exit codes, emitted artifacts, and rerun
determinism, driven in process through main(argv) plus one real subprocess
check of the module entry point.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import filmloop
from filmloop import cli, optimize, saddle, sweep
from filmloop.cli import main
from filmloop.diffgeo import boundary_geometry, gaussian_curvature
from filmloop.energy import SIGMA_PER_SPRING_K
from filmloop.mesh import MAX_RINGS
from filmloop.meshio import write_obj
from filmloop.sweep import (CSV_COLUMNS, BifurcationDiagram, SweepPoint,
                            SweepSchedule, run_sweep, write_diagram_csv)

from helpers import disk_solution, one_family_table_row


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert filmloop.__version__ in capsys.readouterr().out


def test_fit_help_says_the_fit_is_one_local_search(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit", "--help"])
    assert exc.value.code == 0
    assert "one local search from one start" in " ".join(
        capsys.readouterr().out.split())


def test_every_subcommand_option_has_a_help_string():
    parser = cli.build_parser()
    (subcommands,) = [a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
    missing = [f"{name} {action.option_strings[-1]}"
               for name, sub in subcommands.choices.items()
               for action in sub._actions if not action.help]
    assert missing == []


def _python(*args):
    """Run a fresh interpreter that imports this filmloop, with or without
    PYTHONPATH=src in the environment (pytest's own pythonpath setting does
    not reach a child process)."""
    path = [str(Path(filmloop.__file__).parents[1]),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_module_entry_point_runs():
    proc = _python("-m", "filmloop.cli", "--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == filmloop.__version__


def test_pyproject_version_matches_package():
    pyproject = Path(filmloop.__file__).parents[2] / "pyproject.toml"
    version = re.search(r'^version = "([^"]+)"$', pyproject.read_text(),
                        re.MULTILINE).group(1)
    assert version == filmloop.__version__


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


@pytest.mark.parametrize("mode", ["1", "0", "-3"])
def test_stability_max_mode_below_two_exits_one(capsys, mode):
    assert main(["stability", "--max-mode", mode]) == 1
    captured = capsys.readouterr()
    assert "--max-mode" in captured.err and captured.out == ""


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
    assert summary["function_evals"] > summary["iterations"] > 0
    assert summary["k_l3_alpha"] == 30.0
    assert summary["gamma"] == SIGMA_PER_SPRING_K * 30.0
    assert summary["planarity"] < 1e-4            # well below any onset
    assert summary["length_rel_err"] < 1e-3
    assert abs(summary["gauss_bonnet_defect"]) < 1e-9
    # a flat disk's line tension, at the film's tension 2 sqrt(3) k
    beta = disk_solution(1.0, 2.0 * np.sqrt(3.0) * 30.0, 1.0).beta
    assert abs(summary["line_tension"] / beta - 1.0) < 0.05


def test_relax_command_reuses_the_curvature_field(tmp_path, monkeypatch):
    # the curvature field and boundary geometry built once for boundary.csv,
    # the Gauss-Bonnet defect and the summary give the bytes each call gets
    # by building its own
    argv = ["relax", "--kl3a", "900", "--rings", "6", "--max-iterations",
            "60000"]
    assert main(argv + ["--out", str(tmp_path / "once")]) == 0
    write, defect = cli.write_boundary_observables, cli.gauss_bonnet_defect
    curvature, states = cli.gaussian_curvature, []

    def recording(mesh, x, geometry):
        states.append((mesh, x))
        return curvature(mesh, x, geometry)

    monkeypatch.setattr(cli, "gaussian_curvature", recording)
    monkeypatch.setattr(cli, "write_boundary_observables",
                        lambda path, field, bg: write(
                            path, gaussian_curvature(*states[-1]),
                            boundary_geometry(*states[-1])))
    monkeypatch.setattr(cli, "gauss_bonnet_defect",
                        lambda mesh, x, field: defect(mesh, x))
    assert main(argv + ["--out", str(tmp_path / "twice")]) == 0
    for name in ("boundary.csv", "summary.json"):
        assert ((tmp_path / "once" / name).read_bytes()
                == (tmp_path / "twice" / name).read_bytes())


def test_relax_command_exits_two_when_length_is_not_held(tmp_path, capsys,
                                                         monkeypatch):
    # one penalty round leaves a cold twisted solve's length off target
    monkeypatch.setattr(optimize, "MAX_PENALTY_ROUNDS", 1)
    out = tmp_path / "relax"
    rc = main(["relax", "--kl3a", "900", "--rings", "8",
               "--max-iterations", "60000", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().out.startswith("max_penalty_rounds:")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "max_penalty_rounds"
    assert summary["length_rel_err"] >= 1e-3


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


def test_sweep_manifest_of_another_version_exits_one(tmp_path, capsys):
    # a manifest from another filmloop version is refused before any solve;
    # the same config without the manifest wrapper runs
    cfg = {"values": [20.0, 40.0, 60.0], "rings": 4}
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"command": "sweep", "version": "0.1.0",
                               "config": cfg}))
    assert main(["sweep", "--config", str(old),
                 "--out", str(tmp_path / "old")]) == 1
    err = capsys.readouterr().err
    assert "'0.1.0'" in err and repr(filmloop.__version__) in err
    assert "Traceback" not in err and not (tmp_path / "old").exists()
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(cfg))
    assert main(["sweep", "--config", str(plain),
                 "--out", str(tmp_path / "plain")]) == 0


def test_sweep_config_unknown_keys_exit_one(tmp_path, capsys):
    # an unknown key at either level of the config is rejected by name,
    # before any relaxation runs; the last five are keys of manifests
    # written before preconditioning, the kick amplitude, the penalty
    # round limit, the bending modulus and the loop length became constants
    base = {"values": [20.0, 40.0], "rings": 3}
    for bad, cfg in (("bogus", dict(base, bogus=1)),
                     ("rng_seed", dict(base, options={"rng_seed": 0})),
                     ("precondition", dict(base,
                                           options={"precondition": True})),
                     ("perturbation_amplitude",
                      dict(base, perturbation_amplitude=None)),
                     ("max_penalty_rounds", dict(base, max_penalty_rounds=5)),
                     ("alpha", dict(base, alpha=1.0)),
                     ("target_length", dict(base, target_length=1.0))):
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
    ("elongation", {"elongation": 0}),
    ("JSON", [1, 2]),
    ("values", {"values": [100.0, float("nan")]}),
    ("elongation", {"elongation": float("nan")}),
    ("values", {"values": [100.0, float("inf")]}),
    ("base_seed", {"base_seed": -1}),
    ("values", {"values": ["500", "600", "700"], "rings": 2}),
    ("values", {"values": [True, 2, 3], "rings": 2}),
    ("values", {"values": [-10.0, 0.0, 10.0], "direction": "down"}),
])
def test_sweep_config_bad_value_types_exit_one(tmp_path, capsys, key, cfg):
    # a value of the wrong type (or a zero or non-finite modulus, which
    # would divide by zero or poison every energy, or a negative seed, which
    # no random generator takes) is rejected by key before any relaxation
    # runs; a manifest that is not a JSON object is rejected as such
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


def test_relax_negative_max_iterations_names_the_option(tmp_path, capsys):
    # rejected in the form its sibling gradient_tolerance uses, with the value
    out = tmp_path / "relax"
    assert main(["relax", "--rings", "3", "--max-iterations", "-1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: option 'max_iterations' must be >= 0, "
                          "got -1")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-5", "nan", "inf"])
def test_relax_bad_kl3a_is_named_by_its_flag(tmp_path, capsys, value):
    # rejected before EnergyParams could name it by its field, spring_k
    out = tmp_path / "relax"
    assert main(["relax", "--rings", "3", "--kl3a", value,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --kl3a must be finite and >= 0")
    assert "spring_k" not in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["relax", "--rings", "2", "--kl3a", "1e307"],
    ["sweep", "--rings", "2", "--start", "1e307", "--stop", "1e307",
     "--num", "1"],
    ["relax", "--rings", "2", "--kl3a", "1e306"],
    ["sweep", "--rings", "2", "--start", "1e306", "--stop", "1e306",
     "--num", "1"],
    ["relax", "--rings", "2", "--kl3a", "9e305"],
    ["sweep", "--rings", "2", "--start", "9e305", "--stop", "9e305",
     "--num", "1"],
])
def test_overflowing_penalty_names_the_terms_it_comes_from(tmp_path, capsys,
                                                           argv):
    # a finite kL^3/alpha whose starting penalty 100 (spring_k + alpha / L^3)
    # overflows, or overflows when doubled (from 9e305 on), as the
    # gradient's 2 mu (l - L) and the Hessian's 2 mu u u^T double it: the
    # error names those terms, not length_penalty_k, which no flag sets
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the starting penalty 100 * (spring_k + "
                          "alpha / L^3), doubled in the gradient and the "
                          "Hessian, is not finite: spring_k = "
                          f"{float(argv[4])!r}, alpha / L^3 = 1.0")
    assert "length_penalty_k" not in err and "Traceback" not in err
    assert not out.exists()


def test_relax_accepts_zero_kl3a(tmp_path):
    # no film: the bending-only loop relaxes to its circle
    out = tmp_path / "relax"
    assert main(["relax", "--rings", "2", "--kl3a", "0",
                 "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["k_l3_alpha"] == 0.0


def test_relax_and_sweep_leave_spatial_and_optimize_unimported(tmp_path):
    # in one fresh interpreter: the commands that solve nothing load no
    # scipy module; relax and sweep load the solver's BLAS when they solve,
    # but a relax and a sweep whose states are all certified graphs need
    # neither the KD-tree pair search nor scipy.optimize, and a full mesh's
    # energy, its loop's film, needs no sparse matrix
    _write_fit_csv(tmp_path / "diagram.csv", 12)
    out = str(tmp_path)
    script = (
        "import json, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "from filmloop.cli import main\n"
        "print(json.dumps(['import', scipy_modules()]))\n"
        f"for argv in (['mesh', '--rings', '2', '--out', {out + '/m'!r}],\n"
        "             ['stability'],\n"
        "             ['asymptotic', '--num', '3', '--rings', '2',\n"
        f"              '--save-meshes', '--out', {out + '/a'!r}],\n"
        f"             ['fit', '--diagram', {out + '/diagram.csv'!r},\n"
        "              '--threshold', '1000', '--units', 'gamma']):\n"
        "    assert main(argv) == 0\n"
        "    print(json.dumps([argv[0], scipy_modules()]))\n"
        "from filmloop.energy import EnergyParams, energy\n"
        "from filmloop.mesh import generate_disk_mesh\n"
        "mesh, x = generate_disk_mesh(2)\n"
        "assert energy(mesh, x, EnergyParams(spring_k=1.0)).springs > 0\n"
        f"assert main(['relax', '--rings', '2', '--out', {out + '/r'!r}]) == 0\n"
        "print(json.dumps(['relax', scipy_modules()]))\n"
        "assert main(['sweep', '--start', '20', '--stop', '40', '--num', '2',"
        f" '--rings', '2', '--out', {out + '/s'!r}]) == 0\n"
        "print(json.dumps(['sweep', scipy_modules()]))\n")
    proc = _python("-c", script)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(json.loads(line) for line in proc.stdout.splitlines()
                  if line.startswith("["))
    assert list(loaded) == ["import", "mesh", "stability", "asymptotic",
                            "fit", "relax", "sweep"]
    for command in ("import", "mesh", "stability", "asymptotic", "fit"):
        assert loaded[command] == [], command
    for command in ("relax", "sweep"):
        assert "scipy.linalg.blas" in loaded[command]
        assert not [m for m in loaded[command]
                    if m.startswith(("scipy.optimize", "scipy.spatial",
                                     "scipy.sparse"))], command


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


@pytest.mark.parametrize("argv, flags", [
    (["sweep", "--start", "500", "--stop", "900", "--num", "1"],
     ("--start", "--stop")),
    (["asymptotic", "--num", "1", "--gamma-max", "3000"],
     ("--gamma-min", "--gamma-max")),
], ids=["sweep", "asymptotic"])
def test_num_one_with_two_ends_exits_one(tmp_path, capsys, argv, flags):
    # linspace(a, b, 1) is [a]: one point would silently drop the other end
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--num 1" in err
    assert all(flag in err for flag in flags)
    assert not out.exists()


@pytest.mark.parametrize("num", ["0", "-1"])
def test_sweep_num_below_one_is_named_by_its_flag(tmp_path, capsys, num):
    # as asymptotic --num is: not the schedule's empty value array, nor
    # numpy's negative sample count
    out = tmp_path / "s"
    assert main(["sweep", "--start", "20", "--stop", "60", "--num", num,
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --num must be finite and positive, got "
                          f"{int(num)!r}")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["mesh"], ["relax"], ["sweep", "--start", "500", "--stop", "600",
                          "--num", "2"], ["asymptotic", "--save-meshes"],
], ids=["mesh", "relax", "sweep", "asymptotic"])
def test_oversized_rings_is_one_error_line(tmp_path, capsys, argv):
    # refused by the mesh's vertex bound before any array is allocated
    out = tmp_path / "out"
    assert main([*argv, "--rings", str(10**14), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("rings", [20000, 100000000])
@pytest.mark.parametrize("argv", [
    ["mesh"], ["relax"], ["sweep", "--start", "500", "--stop", "600",
                          "--num", "2"], ["asymptotic", "--save-meshes"],
], ids=["mesh", "relax", "sweep", "asymptotic"])
def test_oversized_rings_fail_before_allocating(tmp_path, capsys, argv,
                                                rings):
    # rings 20000 would build (2m + 3)^2 int64 lattice grids of 12.8 GB
    # each, rings 1e8 a 1.6 GB arange: MAX_RINGS refuses both first
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main([*argv, "--rings", str(rings), "--out", str(out)]) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert f"rings must be in 1 .. {MAX_RINGS}" in capsys.readouterr().err
    assert not out.exists()


def test_relax_negative_seed_exits_one(tmp_path, capsys):
    # named by its flag before the mesh is built or anything is written
    out = tmp_path / "relax"
    assert main(["relax", "--rings", "3", "--seed", "-1",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--seed" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sweep_no_warm_start(tmp_path, capsys):
    # cold points run through the CLI exactly as through run_sweep, and the
    # manifest carries the setting into a byte-identical rerun
    out1, out2, lib = tmp_path / "s1", tmp_path / "s2", tmp_path / "lib"
    assert main(["sweep", "--start", "20", "--stop", "60", "--num", "3",
                 "--rings", "3", "--no-warm-start", "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["warm_start"] is False
    assert main(["sweep", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    run_sweep(SweepSchedule(values=[20.0, 40.0, 60.0], rings=3,
                            warm_start=False), out_dir=str(lib))
    csv = (out1 / "diagram.csv").read_bytes()
    assert (out2 / "diagram.csv").read_bytes() == csv
    assert (lib / "diagram.csv").read_bytes() == csv


def _write_fit_csv(path, n):
    gammas = np.linspace(1010.0, 1240.0, n)
    points = []
    for i, g in enumerate(gammas):
        a = 0.1 * np.sqrt(g - 1005.0)
        points.append(SweepPoint(
            index=i, k_l3_alpha=g / SIGMA_PER_SPRING_K, gamma=g,
            energy_total=1.0,
            energy_bending=0.5, energy_springs=0.5, energy_penalty=0.0,
            start_energy=1.0, boundary_length=1.0, length_rel_err=1e-6,
            line_tension=-15.0, mean_abs_kn=a, int_abs_kn=a, int_K=2.5 - 0.003 * g, mean_K=0.0,
            area=0.08, planarity=0.05, dominant_mode=2, mode2_amp=0.01,
            gauss_bonnet=1e-12, self_intersections=0, iterations=100,
            function_evals=120, penalty_rounds=1, restarts=0, seed=i,
            converged=1,
            status="converged"))
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


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("column", ["mean_abs_kn", "gamma", "planarity"])
def test_fit_non_finite_cell_exits_one(tmp_path, capsys, column, value):
    # the diagram reader names a non-finite cell by path, line and column
    # before the fit reads it (a nan planarity would count as twisted)
    csv = tmp_path / "diagram.csv"
    _write_fit_csv(csv, 12)
    lines = csv.read_text().splitlines()
    cells = lines[6].split(",")
    cells[CSV_COLUMNS.index(column)] = value
    lines[6] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--diagram", str(csv), "--threshold", "1000",
                 "--units", "gamma"]) == 1
    err = capsys.readouterr().err
    assert f"{csv} line 7, column {column!r}: {value!r} is not finite" in err
    assert "Traceback" not in err


def test_fit_that_does_not_converge_exits_two(tmp_path, capsys, monkeypatch):
    csv = tmp_path / "diagram.csv"
    _write_fit_csv(csv, 12)
    monkeypatch.setattr(sweep, "FIT_MAX_ITERATIONS", 1)
    assert main(["fit", "--diagram", str(csv), "--threshold", "1000",
                 "--units", "gamma"]) == 2
    err = capsys.readouterr().err
    assert "power-law fit did not converge in 1 iteration" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1000"])
def test_fit_bad_threshold_exits_one(tmp_path, capsys, value):
    # a threshold that cannot be an onset is a usage error, not a failed fit
    csv = tmp_path / "diagram.csv"
    _write_fit_csv(csv, 12)
    assert main(["fit", "--diagram", str(csv), "--threshold", value]) == 1
    err = capsys.readouterr().err
    assert "--threshold" in err and "Traceback" not in err


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


def test_fit_rejects_spring_k_diagram(tmp_path, capsys):
    # a diagram from before line_tension replaced spring_k is named, exit 1
    csv = tmp_path / "diagram.csv"
    _write_fit_csv(csv, 12)
    lines = csv.read_text().splitlines()
    lines[0] = lines[0].replace("gamma,", "gamma,spring_k,")
    csv.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--diagram", str(csv), "--threshold", "1000"]) == 1
    err = capsys.readouterr().err
    assert "'spring_k'" in err and "Traceback" not in err


def test_fit_names_the_cell_it_cannot_read(tmp_path, capsys):
    # a cell its column's type does not parse is named by path, line and
    # column, exit 1
    csv = tmp_path / "diagram.csv"
    _write_fit_csv(csv, 12)
    lines = csv.read_text().splitlines()
    cells = lines[3].split(",")
    cells[CSV_COLUMNS.index("converged")] = "1.0"
    lines[3] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--diagram", str(csv), "--threshold", "1000"]) == 1
    err = capsys.readouterr().err
    assert f"{csv} line 4, column 'converged'" in err
    assert "Traceback" not in err


def test_asymptotic_command_table(tmp_path, capsys):
    out = tmp_path / "asym"
    rc = main(["asymptotic", "--num", "3", "--out", str(out)])
    assert rc == 0
    lines = (out / "family.csv").read_text().splitlines()
    assert lines[0].startswith("gamma,t,radius,")
    assert len(lines) == 4
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == 0.0                        # below threshold: flat disk
    # every curvature column of the flat disk prints 0, never -0
    assert lines[1].split(",")[5:] == ["0"] * 4
    last = [float(v) for v in lines[3].split(",")]
    assert last[1] > 0.3                          # well above: twisted branch
    assert last[7] < 0                            # negative integrated K


def test_asymptotic_default_table_int_K_routes_agree(tmp_path):
    # on the default 50-row table the second-fundamental-form and
    # Gauss-Bonnet integrals of K agree on every row to 1e-14 absolute
    # (3.6e-15 measured)
    out = tmp_path / "asym"
    assert main(["asymptotic", "--out", str(out)]) == 0
    rows = np.loadtxt(out / "family.csv", delimiter=",", skiprows=1)
    assert rows.shape == (50, 9)
    assert np.abs(rows[:, 7] - rows[:, 8]).max() <= 1e-14


@pytest.mark.parametrize("flag, argv", [
    ("--length", ["--length", "nan", "--num", "2"]),
    ("--length", ["--length", "-1", "--num", "2"]),
    ("--gamma-min", ["--gamma-min", "nan", "--num", "2"]),
    ("--gamma-max", ["--gamma-max", "inf", "--num", "2"]),
    ("--gamma-min", ["--gamma-min", "0", "--num", "2"]),
    ("--num", ["--num", "0"]),
    ("--rings", ["--rings", "0", "--num", "2", "--save-meshes"]),
    ("--gamma-min",
     ["--gamma-min", repr(3 * saddle.gamma_star()), "--num", "2"]),
], ids=["length-nan", "length-negative", "gamma-min-nan", "gamma-max-inf",
        "gamma-min-zero", "num-zero", "rings-zero", "gamma-min-at-eight"])
def test_asymptotic_bad_flag_exits_one_before_writing(tmp_path, capsys, flag,
                                                      argv):
    # a flag that cannot give a table is named and nothing is written, not
    # even the output directory
    out = tmp_path / "asym"
    assert main(["asymptotic", *argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert not out.exists()


def test_asymptotic_past_flat_eight_names_the_bound(tmp_path, capsys):
    # the pitchfork amplitude reaches t = 1 at gamma = 288 pi^3, where the
    # flat eight's normal vanishes on phi = pi/2: no partial table is left
    out = tmp_path / "asym"
    assert main(["asymptotic", "--gamma-max", "20000", "--num", "3",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--gamma-max" in err and "288 pi^3" in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--gamma-min", "--gamma-max"])
def test_asymptotic_bound_at_table_t_max(tmp_path, capsys, flag):
    # a gamma whose amplitude t is just past TABLE_T_MAX, where the two
    # integral-of-K routes part, is named; one just below gives its row
    def gamma_at(t):                  # the inverse of pitchfork_amplitude
        return 3.0 * saddle.gamma_star() / (3.0 - 2.0 * t * t)

    other = {"--gamma-min": "--gamma-max", "--gamma-max": "--gamma-min"}
    out = tmp_path / "asym"
    above = gamma_at(saddle.TABLE_T_MAX + 1e-9)
    assert main(["asymptotic", flag, repr(above), other[flag], "6000",
                 "--num", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err
    assert not out.exists()
    below = gamma_at(saddle.TABLE_T_MAX - 1e-9)
    assert main(["asymptotic", "--gamma-min", repr(below), "--gamma-max",
                 repr(below), "--num", "1", "--out", str(out)]) == 0
    row = (out / "family.csv").read_text().splitlines()[1].split(",")
    assert abs(float(row[1]) - saddle.TABLE_T_MAX) < 1e-8
    assert abs(float(row[7]) - float(row[8])) <= 1e-12 * abs(float(row[8]))


def test_asymptotic_bound_is_the_gamma_max_its_message_names(tmp_path, capsys):
    # the bound is the float the message prints: that gamma gives its row,
    # the next float above it is refused
    assert main(["asymptotic", "--gamma-max", "1e9",
                 "--out", str(tmp_path / "big")]) == 1
    err = capsys.readouterr().err
    gamma_max = float(err.split("must be at most ")[1].split(",")[0])
    out = tmp_path / "asym"
    assert main(["asymptotic", "--gamma-min", "6000", "--gamma-max",
                 repr(float(np.nextafter(gamma_max, np.inf))), "--num", "2",
                 "--out", str(out)]) == 1
    assert "--gamma-max must be at most" in capsys.readouterr().err
    assert not out.exists()
    assert main(["asymptotic", "--gamma-min", "6000", "--gamma-max",
                 repr(gamma_max), "--num", "2", "--out", str(out)]) == 0
    row = (out / "family.csv").read_text().splitlines()[2].split(",")
    assert float(row[0]) == gamma_max


def test_asymptotic_calls_each_quadrature_once_a_block(tmp_path, monkeypatch):
    # perfbench's traced saddle.quadrature_ms_per_row times these five
    # saddle attributes by name, one call of each a block of table rows,
    # and counts the rows as pitchfork_amplitude calls, one a row: the
    # command checks its gamma range without them
    names = ("energy_quadrature", "int_K_quadrature", "int_abs_kn_quadrature",
             "length_quadrature", "int_K_gauss_bonnet")
    calls = dict.fromkeys(names + ("pitchfork_amplitude",), 0)

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(saddle, name, counted(name, getattr(saddle, name)))
    rows = 2 * saddle.TABLE_BLOCK_ROWS + 3
    assert main(["asymptotic", "--num", str(rows),
                 "--out", str(tmp_path)]) == 0
    assert calls == {**dict.fromkeys(names, 3), "pitchfork_amplitude": rows}


def test_asymptotic_rows_have_the_bytes_of_one_family_rows(tmp_path):
    # three blocks, the last of two rows: every line is the row computed
    # alone by the one-family quadratures, printed the same way
    rows = 2 * saddle.TABLE_BLOCK_ROWS + 2
    assert main(["asymptotic", "--num", str(rows),
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "family.csv").read_text().splitlines()
    assert lines[0] == ",".join(saddle.TABLE_COLUMNS)
    gammas = np.linspace(0.9 * 96 * np.pi**3, 2.0 * 96 * np.pi**3, rows)
    assert lines[1:] == [",".join("%.17g" % v for v in
                                  one_family_table_row(g, 2.0 * np.pi))
                         for g in gammas]


def test_asymptotic_formats_the_mesh_faces_once(tmp_path, monkeypatch):
    # the three saved meshes share one face block, and its bytes
    faces = []
    obj_faces = cli.obj_faces

    def counted(tris):
        faces.append(obj_faces(tris))
        return faces[-1]

    monkeypatch.setattr(cli, "obj_faces", counted)
    assert main(["asymptotic", "--num", "2", "--save-meshes", "--rings", "3",
                 "--out", str(tmp_path)]) == 0
    assert len(faces) == 1
    for t in (0.05, 0.2, 0.5):
        obj = (tmp_path / f"family_t{t:.2f}.obj").read_text()
        assert obj.endswith(faces[0])


def test_asymptotic_saved_meshes_share_one_disk(tmp_path, monkeypatch):
    # the three saved shapes are sampled on one disk mesh, with the bytes of
    # family_trimesh's positions
    built = []
    generate = saddle.generate_disk_mesh

    def counted(*args):
        built.append(args)
        return generate(*args)

    monkeypatch.setattr(saddle, "generate_disk_mesh", counted)
    assert main(["asymptotic", "--num", "2", "--save-meshes", "--rings", "3",
                 "--out", str(tmp_path / "asym")]) == 0
    assert len(built) == 1
    for t in (0.05, 0.2, 0.5):
        fam = saddle.SaddleFamily(R=saddle.radius_for_length(2.0 * np.pi, t),
                                  t=t)
        mesh, x = saddle.family_trimesh(fam, 3)
        write_obj(tmp_path / "ref.obj", x, mesh.triangles)
        assert ((tmp_path / "asym" / f"family_t{t:.2f}.obj").read_bytes()
                == (tmp_path / "ref.obj").read_bytes())


def test_asymptotic_rings_needs_save_meshes(tmp_path, capsys):
    out = tmp_path / "asym"
    assert main(["asymptotic", "--rings", "3", "--num", "2",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--rings" in err and "--save-meshes" in err
    assert not out.exists()


@pytest.mark.parametrize("argv, vertices", [([], 817), (["--rings", "3"], 37)])
def test_asymptotic_saved_mesh_rings(tmp_path, argv, vertices):
    # with --save-meshes, --rings defaults to 16 (3 r (r + 1) + 1 vertices)
    out = tmp_path / "asym"
    assert main(["asymptotic", "--num", "2", "--save-meshes", *argv,
                 "--out", str(out)]) == 0
    obj = (out / "family_t0.05.obj").read_text().splitlines()
    assert sum(line.startswith("v ") for line in obj) == vertices
