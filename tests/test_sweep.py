"""Continuation driver: transition detection on synthetic diagrams, scaling
fits against known power laws, self-intersection counting on hand-built
configurations, CSV and manifest round-trips, and small end-to-end sweeps
checked for byte-level rerun determinism.
"""

import dataclasses

import numpy as np
import pytest

from filmloop.energy import SIGMA_PER_SPRING_K
from filmloop.mesh import TriMesh, generate_disk_mesh
from filmloop.optimize import MinimizeOptions
from filmloop.saddle import SaddleFamily, family_trimesh, radius_for_length
from filmloop.sweep import (BifurcationDiagram, FitError, SweepPoint,
                            SweepSchedule, _crossing_pairs,
                            count_self_intersections,
                            detect_transitions, fit_exponent, fit_linear_K,
                            read_diagram_csv, read_manifest, run_sweep,
                            write_diagram_csv, write_manifest)

from helpers import loop_crossing_pairs


def make_point(**over):
    base = dict(index=0, k_l3_alpha=100.0, gamma=100.0 * SIGMA_PER_SPRING_K,
                spring_k=100.0, energy_total=1.0, energy_bending=0.5,
                energy_springs=0.5, energy_penalty=0.0, start_energy=1.1,
                boundary_length=1.0, length_rel_err=1e-6, mean_abs_kn=0.0,
                int_abs_kn=0.0, int_K=0.0, mean_K=0.0, area=1.0 / (4 * np.pi),
                planarity=1e-9, dominant_mode=6, mode2_amp=0.0,
                gauss_bonnet=1e-12, self_intersections=0, iterations=100,
                penalty_rounds=1, seed=0, converged=1, status="converged")
    base.update(over)
    return SweepPoint(**base)


def synthetic_sequence():
    """Circle, ellipse, twisted, flat-eight segments on a 25-step grid."""
    points = []
    for i, v in enumerate(np.arange(500.0, 925.0, 25.0)):
        over = {"index": i, "k_l3_alpha": v,
                "gamma": v * SIGMA_PER_SPRING_K, "seed": i}
        if v <= 600:
            pass
        elif v <= 700:
            over.update(dominant_mode=2, mode2_amp=0.01)
        elif v <= 800:
            over.update(dominant_mode=2, mode2_amp=0.02, planarity=0.05,
                        mean_abs_kn=0.5, int_abs_kn=0.5)
        else:
            over.update(dominant_mode=2, mode2_amp=0.2, planarity=1e-7,
                        self_intersections=1)
        points.append(make_point(**over))
    return BifurcationDiagram(points=points)


def test_detects_full_transition_sequence():
    events = detect_transitions(synthetic_sequence())
    kinds = [e.kind for e in events]
    assert kinds == ["CIRCLE->ELLIPSE", "PLANAR->TWISTED",
                     "TWISTED->FLAT-EIGHT"]
    assert (events[0].lower, events[0].upper) == (600.0, 625.0)
    assert (events[1].lower, events[1].upper) == (700.0, 725.0)
    assert (events[2].lower, events[2].upper) == (800.0, 825.0)


def test_detection_skips_unconverged_points():
    diagram = synthetic_sequence()
    for p in diagram.points:
        if p.k_l3_alpha == 725.0:
            p.converged = 0
    events = detect_transitions(diagram)
    twist = [e for e in events if e.kind == "PLANAR->TWISTED"][0]
    assert (twist.lower, twist.upper) == (700.0, 750.0)


def test_detection_on_quiet_diagram_is_empty():
    points = [make_point(index=i, k_l3_alpha=v)
              for i, v in enumerate([100.0, 200.0, 300.0])]
    assert detect_transitions(BifurcationDiagram(points=points)) == []


def test_detection_needs_three_converged_points():
    points = [make_point(index=i, k_l3_alpha=v)
              for i, v in enumerate([100.0, 200.0])]
    with pytest.raises(ValueError):
        detect_transitions(BifurcationDiagram(points=points))


def fit_diagram(amp, gamma_c, p, gammas, noise=None):
    points = []
    for i, g in enumerate(gammas):
        a = amp * (g - gamma_c) ** p
        if noise is not None:
            a *= 1.0 + noise[i]
        points.append(make_point(
            index=i, k_l3_alpha=g / SIGMA_PER_SPRING_K, gamma=g,
            planarity=0.05, mean_abs_kn=a, int_abs_kn=a))
    return BifurcationDiagram(points=points)


def test_fit_exponent_recovers_square_root_law():
    gammas = np.linspace(1010.0, 1240.0, 12)
    fit = fit_exponent(fit_diagram(0.1, 1005.0, 0.5, gammas), 1000.0)
    assert abs(fit.exponent - 0.5) < 1e-3
    assert abs(fit.gamma_c - 1005.0) < 0.5
    assert fit.r_squared > 0.9999
    assert fit.n_points == 12
    assert np.isfinite(fit.stderr)


def test_fit_exponent_monte_carlo_with_noise():
    gammas = np.linspace(1010.0, 1240.0, 12)
    rng = np.random.default_rng(7)
    hits = 0
    for _ in range(100):
        noise = 0.01 * rng.standard_normal(len(gammas))
        fit = fit_exponent(fit_diagram(0.1, 1005.0, 0.5, gammas, noise), 1000.0)
        hits += 0.45 <= fit.exponent <= 0.55
    assert hits >= 95


def test_fit_exponent_needs_six_window_points():
    gammas = np.linspace(1010.0, 1240.0, 5)
    with pytest.raises(FitError):
        fit_exponent(fit_diagram(0.1, 1005.0, 0.5, gammas), 1000.0)


def test_fit_exponent_rejects_planar_branch():
    gammas = np.linspace(1010.0, 1240.0, 12)
    diagram = fit_diagram(0.1, 1005.0, 0.5, gammas)
    for p in diagram.points:
        p.planarity = 1e-8       # below the twisted threshold
    with pytest.raises(FitError):
        fit_exponent(diagram, 1000.0)


def test_fit_linear_K_recovers_line():
    gammas = np.linspace(1010.0, 1240.0, 9)
    diagram = fit_diagram(0.1, 1005.0, 0.5, gammas)
    for p in diagram.points:
        p.int_K = 2.5 - 0.003 * p.gamma
    fit = fit_linear_K(diagram, 1000.0)
    assert np.isclose(fit.slope, -0.003, rtol=1e-9)
    assert np.isclose(fit.intercept, 2.5, rtol=1e-9)
    assert fit.r_squared > 1.0 - 1e-12
    assert fit.n_points == 9
    with pytest.raises(FitError):
        fit_linear_K(diagram, 2000.0)


# ---------------------------------------------------------------------------
# self-intersections


STRIP_TRIS = np.array([[0, 1, 2], [2, 1, 3], [2, 3, 4], [4, 3, 5]])
STRIP_X = np.array([[-1.0, -1.0, 0.0], [2.0, -1.0, 0.0], [-1.0, 2.0, 0.0],
                    [3.0, 0.0, 0.0], [0.2, 0.3, -1.0], [0.1, 0.2, 1.0]])


def test_counts_crossing_triangle_pair():
    mesh = TriMesh.from_triangles(6, STRIP_TRIS)
    assert count_self_intersections(mesh, STRIP_X) == 1


def test_flat_configurations_have_no_crossings():
    mesh = TriMesh.from_triangles(6, STRIP_TRIS)
    flat = STRIP_X.copy()
    flat[4] = [4.0, 1.0, 0.0]
    flat[5] = [4.0, -1.0, 0.0]
    assert count_self_intersections(mesh, flat) == 0
    disk, x0 = generate_disk_mesh(3, 1.0)
    assert count_self_intersections(disk, x0) == 0


def _signed_volumes(a, b, c, d):
    return np.einsum("ij,ij->i", b - a, np.cross(c - a, d - a))


def _brute_force_crossings(mesh, x):
    """Pairs of vertex-disjoint triangles, all of them, in which an edge of
    one passes through the other: p, q on opposite sides of the plane and
    the line pq on the same side of all three edges."""
    tris = mesh.triangles
    i, j = np.triu_indices(len(tris), 1)
    shares = (tris[i][:, :, None] == tris[j][:, None, :]).any(axis=(1, 2))
    i, j = i[~shares], j[~shares]
    pts = x[tris]

    def edge_hits(a, b):
        t0, t1, t2 = pts[b, 0], pts[b, 1], pts[b, 2]
        hit = np.zeros(len(a), dtype=bool)
        for k in range(3):
            p, q = pts[a, k], pts[a, (k + 1) % 3]
            across = (_signed_volumes(t0, t1, t2, p)
                      * _signed_volumes(t0, t1, t2, q) < 0)
            sides = np.stack([_signed_volumes(p, q, t0, t1),
                              _signed_volumes(p, q, t1, t2),
                              _signed_volumes(p, q, t2, t0)])
            hit |= across & ((sides > 0).all(axis=0) | (sides < 0).all(axis=0))
        return hit

    return int(np.sum(edge_hits(i, j) | edge_hits(j, i)))


def _folded_pierced_disk(rings, degrees):
    # a bump on the left half pierces the right half folded back over it;
    # a gentle warp keeps every pair of triangles non-coplanar
    mesh, x = generate_disk_mesh(rings)
    x[:, 2] = (2.0 * np.exp(-((x[:, 0] + 3.0) ** 2 + x[:, 1] ** 2) / 2.0)
               + 0.01 * (x[:, 0] ** 2 + 2.0 * x[:, 1] ** 2))
    flap = x[:, 0] > 0
    hinge_dist = x[flap, 0]
    x[flap, 0] = hinge_dist * np.cos(np.radians(degrees))
    x[flap, 2] += hinge_dist * np.sin(np.radians(degrees))
    return mesh, x


def test_counts_crossings_of_folded_pierced_disk():
    mesh, x = _folded_pierced_disk(6, 160.0)
    count = count_self_intersections(mesh, x)
    assert count == _brute_force_crossings(mesh, x)
    assert count == 26


def _folded_saddle(rings, t):
    fam = SaddleFamily(R=radius_for_length(2.0 * np.pi, t), t=t)
    return family_trimesh(fam, rings)


@pytest.mark.parametrize("shape, args", [
    *[pytest.param(_folded_pierced_disk, (rings, degrees),
                   id=f"disk-r{rings}-{degrees:g}deg")
      for rings in (6, 8) for degrees in (140.0, 160.0, 175.0)],
    pytest.param(_folded_saddle, (8, 0.9), id="saddle-r8-t0.9"),
])
def test_vectorized_crossings_match_per_pair_loop(shape, args):
    # the array pass computes each pair's arithmetic as the per-pair loop
    # does, so the bounding-box prefilter and the vectorization must leave
    # the crossing pairs exactly as they were
    mesh, x = shape(*args)
    np.testing.assert_array_equal(_crossing_pairs(mesh, x),
                                  loop_crossing_pairs(mesh, x))


# ---------------------------------------------------------------------------
# persistence


def test_diagram_csv_roundtrip_and_byte_stability(tmp_path):
    points = [make_point(index=i, k_l3_alpha=100.0 + np.pi * i,
                         gamma=(100.0 + np.pi * i) * SIGMA_PER_SPRING_K,
                         energy_total=np.exp(-i), planarity=10.0**(-i - 3),
                         status="converged" if i % 2 == 0 else "max_iterations")
              for i in range(4)]
    diagram = BifurcationDiagram(points=points)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_diagram_csv(p1, diagram)
    back = read_diagram_csv(p1)
    assert len(back.points) == 4
    for orig, rt in zip(points, back.points):
        for f in dataclasses.fields(SweepPoint):
            assert getattr(orig, f.name) == getattr(rt, f.name), f.name
    write_diagram_csv(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def test_diagram_csv_rejects_unknown_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("alpha,beta\n1.0,2.0\n")
    with pytest.raises(ValueError):
        read_diagram_csv(path)


def test_manifest_roundtrip(tmp_path):
    schedule = SweepSchedule(values=np.array([20.0, 40.0, 60.0]), rings=4,
                             elongation=1.2, base_seed=3,
                             options=MinimizeOptions(max_iterations=777))
    path = tmp_path / "manifest.json"
    write_manifest(path, schedule)
    back = read_manifest(path)
    assert back.to_dict() == schedule.to_dict()
    assert back.options.max_iterations == 777


def test_schedule_validation():
    with pytest.raises(ValueError):
        SweepSchedule(values=np.array([3.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        SweepSchedule(values=np.array([]))
    with pytest.raises(ValueError):
        SweepSchedule(values=np.array([1.0, 2.0]), direction="sideways")


# ---------------------------------------------------------------------------
# end-to-end sweeps (small meshes, loose tension so relaxation is quick)


def tiny_schedule(**over):
    kwargs = dict(values=np.array([20.0, 40.0, 60.0]), rings=4,
                  options=MinimizeOptions(max_iterations=4000,
                                          gradient_tolerance=1e-5))
    kwargs.update(over)
    return SweepSchedule(**kwargs)


def test_run_sweep_records_schedule_columns(tmp_path):
    out = tmp_path / "out"
    diagram = run_sweep(tiny_schedule(base_seed=2), out_dir=out)
    assert (out / "diagram.csv").exists()
    assert (out / "manifest.json").exists()
    assert np.array_equal(diagram.column("k_l3_alpha"), [20.0, 40.0, 60.0])
    assert np.allclose(diagram.column("gamma"),
                       SIGMA_PER_SPRING_K * diagram.column("k_l3_alpha"),
                       rtol=1e-15)
    assert np.array_equal(diagram.column("seed"), [2, 3, 4])
    assert all(diagram.column("converged"))
    assert np.all(diagram.column("length_rel_err") < 1e-3)
    assert np.all(diagram.column("planarity") < 1e-3)   # far below any onset


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    run_sweep(tiny_schedule(), out_dir=out1)
    run_sweep(read_manifest(out1 / "manifest.json"), out_dir=out2)
    assert ((out1 / "diagram.csv").read_bytes()
            == (out2 / "diagram.csv").read_bytes())


def test_downward_sweep_returns_ascending_points(tmp_path):
    diagram = run_sweep(tiny_schedule(direction="down"))
    assert np.array_equal(diagram.column("k_l3_alpha"), [20.0, 40.0, 60.0])
    assert np.array_equal(diagram.column("index"), [0, 1, 2])
    assert np.array_equal(diagram.column("seed"), [0, 1, 2])


def test_parallel_cold_sweep_matches_serial(tmp_path):
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    run_sweep(tiny_schedule(warm_start=False), out_dir=out1, jobs=1)
    run_sweep(tiny_schedule(warm_start=False), out_dir=out2, jobs=2)
    assert ((out1 / "diagram.csv").read_bytes()
            == (out2 / "diagram.csv").read_bytes())
