"""Continuation driver: transition detection on synthetic diagrams, scaling
fits against known power laws, self-intersection counting on hand-built
configurations, CSV and manifest round-trips, and small end-to-end sweeps
checked for byte-level rerun determinism.
"""

import collections
import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

import filmloop
from filmloop.energy import (SIGMA_PER_SPRING_K, EnergyParams, energy,
                             loop_hessian)
from filmloop.mesh import generate_disk_mesh, scale_to_boundary_length
from filmloop import diffgeo, meshio, sweep
from filmloop.optimize import KICK_AMPLITUDE, MinimizeOptions, perturb, relax
from filmloop.diffgeo import (_crossing_pairs, _is_graph, corner_geometry,
                              count_self_intersections)
from filmloop.sweep import (CSV_COLUMNS, BifurcationDiagram, FitError,
                            SweepPoint, SweepSchedule, detect_transitions,
                            fit_exponent, fit_linear_K, read_diagram_csv,
                            read_manifest, run_sweep, unstable_mode,
                            write_diagram_csv, write_manifest)

from helpers import (curve_fit_exponent, diagram_column, exponent_fit_ssr,
                     folded_pierced_disk, loop_crossing_pairs,
                     mesh_from_triangles, reference_is_graph, saddle_shape,
                     stationary_bgon)
from test_acceptance import ELONGATED_VALUES, HEX_VALUES, RINGS, SWEEP_OPTS


def make_point(**over):
    base = dict(index=0, k_l3_alpha=100.0, gamma=100.0 * SIGMA_PER_SPRING_K,
                energy_total=1.0, energy_bending=0.5,
                energy_springs=0.5, energy_penalty=0.0, start_energy=1.1,
                boundary_length=1.0, length_rel_err=1e-6, line_tension=-15.0,
                mean_abs_kn=0.0,
                int_abs_kn=0.0, int_K=0.0, mean_K=0.0, area=1.0 / (4 * np.pi),
                planarity=1e-9, dominant_mode=6, mode2_amp=0.0,
                gauss_bonnet=1e-12, self_intersections=0, iterations=100,
                function_evals=120, penalty_rounds=1, restarts=0, seed=0,
                converged=1,
                status="converged")
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


SQRT_GAMMAS = np.linspace(1010.0, 1240.0, 12)
NEAR_GAMMAS = np.linspace(3010.0, 3700.0, 10)
NEAR_RELS = [1e-10, 1e-12]


def noisy_fit_diagrams():
    """The Monte Carlo test's 100 square-root laws with 1 % noise."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        noise = 0.01 * rng.standard_normal(len(SQRT_GAMMAS))
        yield fit_diagram(0.1, 1005.0, 0.5, SQRT_GAMMAS, noise)


def synthetic_fits():
    """(diagram, threshold) of every exponent fit the tests below make."""
    yield fit_diagram(0.1, 1005.0, 0.5, SQRT_GAMMAS), 1000.0
    for diagram in noisy_fit_diagrams():
        yield diagram, 1000.0
    for rel in NEAR_RELS:
        yield (fit_diagram(0.1, 3000.0, 0.5, NEAR_GAMMAS),
               3010.0 * (1.0 - rel))
    yield (fit_diagram(0.1, 1005.0, 0.5, np.linspace(1010.0, 1240.0, 9)),
           1000.0)


def test_fit_exponent_recovers_square_root_law():
    fit = fit_exponent(fit_diagram(0.1, 1005.0, 0.5, SQRT_GAMMAS), 1000.0)
    assert abs(fit.exponent - 0.5) < 1e-3
    assert abs(fit.gamma_c - 1005.0) < 0.5
    assert fit.r_squared > 0.9999
    assert fit.n_points == 12
    assert np.isfinite(fit.stderr)


def test_fit_exponent_monte_carlo_with_noise():
    hits = 0
    for diagram in noisy_fit_diagrams():
        fit = fit_exponent(diagram, 1000.0)
        hits += 0.45 <= fit.exponent <= 0.55
    assert hits >= 95


@pytest.mark.parametrize("rel", NEAR_RELS)
def test_fit_exponent_threshold_just_below_first_point(rel):
    # gamma_c's upper bound sits 1e-9 relative below the first window point,
    # so a threshold closer than that starts gamma_c at the bound
    fit = fit_exponent(fit_diagram(0.1, 3000.0, 0.5, NEAR_GAMMAS),
                       3010.0 * (1.0 - rel))
    assert abs(fit.exponent - 0.5) < 1e-3
    assert fit.n_points == 10


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


def _check_fit_parity(diagram, threshold):
    fit = fit_exponent(diagram, threshold)
    ref = curve_fit_exponent(diagram, threshold)
    assert fit.n_points == ref.n_points
    assert fit.exponent == pytest.approx(ref.exponent, rel=1e-6, abs=0.0)
    assert fit.gamma_c == pytest.approx(ref.gamma_c, rel=1e-6, abs=0.0)
    # on a noise-free power law both SSRs are rounding, and so are both
    # stderrs (below 5e-12): those agree absolutely, the SSRs to within
    # the SSR of residuals of one ulp of the largest value
    assert fit.stderr == pytest.approx(ref.stderr, rel=1e-4, abs=1e-10)
    a = np.abs([p.mean_abs_kn for p in diagram.points])
    ulps = len(a) * (np.finfo(float).eps * a.max()) ** 2
    assert (exponent_fit_ssr(diagram, threshold, fit)
            <= exponent_fit_ssr(diagram, threshold, ref) * (1.0 + 1e-9) + ulps)


def test_fit_exponent_matches_curve_fit_on_synthetic_diagrams():
    # the variable-projection fit against the curve_fit call it replaced
    for diagram, threshold in synthetic_fits():
        _check_fit_parity(diagram, threshold)


@pytest.fixture(scope="module")
def certified_sweeps():
    """The elongated acceptance sweep (the benchmark's sweep_elongated
    schedule) keyed by (seed, gradient tolerance), at (0, 1e-6), (1, 1e-6)
    and (0, 1e-8), and the hexagon sweep at ("hexagon", 1e-6): each
    diagram with the eigenvalues of the certificates it failed, its count
    of certificates passed and a Counter of its certificates by kind,
    ("planar" or "twisted", "pass" or "fail")."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for seed, tol in ((0, 1e-6), (1, 1e-6), (0, 1e-8), ("hexagon", 1e-6)):
            failed, kinds = [], collections.Counter()

            def recording(mesh, x_b, params, tau, failed=failed, kinds=kinds):
                mode = unstable_mode(mesh, x_b, params, tau)
                if mode is not None:
                    failed.append(mode[0])
                kinds["twisted" if x_b[:, 2].any() else "planar",
                      "pass" if mode is None else "fail"] += 1
                return mode

            mp.setattr(sweep, "unstable_mode", recording)
            opts = dataclasses.replace(SWEEP_OPTS, gradient_tolerance=tol)
            if seed == "hexagon":
                schedule = SweepSchedule(values=HEX_VALUES, rings=RINGS,
                                         options=opts)
            else:
                schedule = SweepSchedule(values=ELONGATED_VALUES, rings=RINGS,
                                         elongation=1.2, base_seed=seed,
                                         options=opts)
            diagram = run_sweep(schedule)
            passed = kinds["planar", "pass"] + kinds["twisted", "pass"]
            runs[seed, tol] = diagram, failed, passed, kinds
    return runs


@pytest.fixture(scope="module")
def acceptance_diagrams(certified_sweeps):
    """The elongated acceptance sweep at seeds 0 and 1."""
    return [certified_sweeps[seed, 1e-6][0] for seed in (0, 1)]


def _twist(diagram):
    return [(e.lower, e.upper) for e in detect_transitions(diagram)
            if e.kind == "PLANAR->TWISTED"]


def test_certificate_restarts_only_the_planar_saddle(certified_sweeps):
    # seed 0: only the planar state at 860, the loop Hessian's double
    # eigenvalue -0.52 out of plane, fails; one restart leaves it
    diagram, failed, passed, _ = certified_sweeps[0, 1e-6]
    assert [(p.k_l3_alpha, p.restarts) for p in diagram.points
            if p.restarts] == [(860.0, 1)]
    assert len(failed) == 1 and -0.53 < failed[0] < -0.51
    assert passed == len(diagram.points)


def test_no_returned_state_fails_the_certificate(certified_sweeps):
    # every point's last certificate passed, the hexagon's too, and each
    # restart relaxed again
    for diagram, failed, passed, _ in certified_sweeps.values():
        assert passed == len(diagram.points)
        assert len(failed) == sum(p.restarts for p in diagram.points)
        assert all(p.converged and p.status == "converged"
                   for p in diagram.points)


def test_certificate_traffic_is_planar_until_the_twist(certified_sweeps):
    # the traffic behind unstable_mode's two block lists: the planar points
    # up to 858 pass in two blocks, the planar saddle at 860 fails in its z
    # block, and every twisted state after it passes as one block
    for seed in (0, 1):
        assert certified_sweeps[seed, 1e-6][3] == {
            ("planar", "pass"): 19, ("planar", "fail"): 1,
            ("twisted", "pass"): 17}


def test_twist_bracket_holds_across_seeds_and_tolerances(certified_sweeps):
    # with no kick the bracket no longer moves with the tolerance or seed
    brackets = {key: _twist(run[0]) for key, run in certified_sweeps.items()
                if key[0] != "hexagon"}
    assert set(map(tuple, brackets.values())) == {((858.0, 860.0),)}
    assert _twist(certified_sweeps["hexagon", 1e-6][0]) == [(850.0, 875.0)]


def test_certified_sweep_evaluations_stay_below_the_kicked_sweeps(
        certified_sweeps):
    # a deterministic guard against relaxing a kick at every point again:
    # the kicked seed-0 sweep took 2,547 evaluations, this one 588 at both
    # seeds
    for seed in (0, 1):
        diagram = certified_sweeps[seed, 1e-6][0]
        assert sum(p.function_evals for p in diagram.points) <= 600


def test_warm_planar_points_take_the_unit_step(certified_sweeps):
    # a warm planar start is about one preconditioned step from its answer:
    # every planar point after the first takes the unit step of its single
    # iteration, 2 evaluations
    for diagram, *_ in certified_sweeps.values():
        planar = [p for p in diagram.points
                  if p.planarity <= sweep.PLANARITY_THRESHOLD]
        assert len(planar) > 1
        assert all(p.function_evals <= 2 for p in planar[1:])


def test_unstable_mode_splits_a_planar_loop():
    # the stationary B-gon fails out of plane just above its onset
    # (858.35 at B = 96) along a z-only mode, and passes just below it
    loop_mesh = generate_disk_mesh(16)[0].loop_mesh()
    xb, p = stationary_bgon(96, 860.0)
    lam, vec = unstable_mode(loop_mesh, xb, p, 1e-2)
    assert lam < -1e-2
    assert not vec[:, :2].any() and np.isclose(np.linalg.norm(vec), 1.0)
    xb, p = stationary_bgon(96, 857.0)
    assert unstable_mode(loop_mesh, xb, p, 1e-2) is None


def test_unstable_mode_builds_the_hessian_once(monkeypatch):
    # passing or failing, planar (two blocks) or not (one), a certificate
    # builds the loop Hessian once: a failing block's eigenpairs are read
    # from the factored matrix
    builds = []

    def counting(*args):
        builds.append(args)
        return loop_hessian(*args)

    monkeypatch.setattr(sweep, "loop_hessian", counting)
    loop_mesh = generate_disk_mesh(16)[0].loop_mesh()
    planar, p = stationary_bgon(96, 857.0)
    failing, p_fail = stationary_bgon(96, 860.0)
    for xb, params, fails in ((planar, p, False), (_twisted(planar), p, False),
                              (failing, p_fail, True),
                              (_twisted(failing), p_fail, True)):
        builds.clear()
        mode = unstable_mode(loop_mesh, xb, params, 1e-2)
        assert (mode is not None) == fails
        assert len(builds) == 1


def _twisted(xb):
    """xb lifted off its plane by z = 1e-9 cos 2 theta, theta the vertex
    index, so that its certificate factors the whole Hessian."""
    out = xb.copy()
    out[:, 2] = 1e-9 * np.cos(2.0 * np.arange(len(xb)))
    return out


def _lowest_pair(hess, block, nb):
    """np.linalg.eigh's lowest eigenvalue of hess[block, block] and its
    eigenvector as (B, 3) loop rows, zero off the block."""
    lam, vec = np.linalg.eigh(hess[block, block])
    mode = np.zeros(3 * nb)
    mode[block] = vec[:, 0]
    return lam[0], mode.reshape(3, nb).T


@pytest.mark.parametrize("rings, kl3a", [
    (2, 900.0), (2, 2000.0), (8, 860.0), (8, 900.0), (8, 2000.0),
    (16, 860.0), (16, 900.0), (16, 2000.0)])
def test_unstable_mode_returns_the_unshifted_eigenpair(rings, kl3a):
    # the shift is added and the blocks factored in the Hessian's own
    # memory, yet a failing state returns the bits of a fresh eigh of the
    # unshifted Hessian: the z block of a planar B-gon, the whole matrix
    # once it leaves the plane
    nb = 6 * rings
    loop_mesh = generate_disk_mesh(rings)[0].loop_mesh()
    planar, p = stationary_bgon(nb, kl3a)
    for xb, block in ((planar, slice(2 * nb, 3 * nb)),
                      (_twisted(planar), slice(0, 3 * nb))):
        lam, vec = unstable_mode(loop_mesh, xb, p, 1e-2)
        want_lam, want_vec = _lowest_pair(loop_hessian(loop_mesh, xb, p),
                                          block, nb)
        assert lam == want_lam < -1e-2
        assert np.array_equal(vec, want_vec)


def test_unstable_mode_reads_a_failing_in_plane_block(monkeypatch):
    # no B-gon fails in plane, so a block-diagonal stand-in for the Hessian
    # does: a positive definite z block passes, and the in-plane block's
    # negative eigenvalue fails with its eigh pair, zero in z
    nb = 12
    rng = np.random.default_rng(3)

    def symmetric(eigenvalues):
        q = np.linalg.qr(rng.standard_normal((len(eigenvalues),) * 2))[0]
        a = (q * eigenvalues) @ q.T
        return 0.5 * (a + a.T)

    z_block = symmetric(np.linspace(1.0, 2.0, nb))
    in_plane = symmetric(np.r_[-0.5, np.linspace(1.0, 2.0, 2 * nb - 1)])

    def stand_in(*args):
        hess = np.zeros((3 * nb, 3 * nb))
        hess[:2 * nb, :2 * nb] = in_plane
        hess[2 * nb:, 2 * nb:] = z_block
        return hess

    monkeypatch.setattr(sweep, "loop_hessian", stand_in)
    xb = stationary_bgon(nb, 20.0)[0]
    lam, vec = unstable_mode(None, xb, None, 1e-2)
    want_lam, want_vec = _lowest_pair(stand_in(), slice(0, 2 * nb), nb)
    assert lam == want_lam and -0.51 < lam < -0.49
    assert np.array_equal(vec, want_vec) and not vec[:, 2].any()


def test_passing_certificate_holds_one_hessian():
    # a passing rings-16 certificate peaks below 1.75 Hessians' bytes,
    # planar or not: no 3B x 3B copy is made (the twisted state's shifted
    # copy peaked at 2.01)
    loop_mesh = generate_disk_mesh(16)[0].loop_mesh()
    planar, p = stationary_bgon(96, 857.0)
    for xb in (planar, _twisted(planar)):
        tracemalloc.start()
        try:
            assert unstable_mode(loop_mesh, xb, p, 1e-2) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * (3 * 96) ** 2 * 8


def test_restarts_stop_at_their_cap(monkeypatch, caplog):
    # a state that keeps failing is reported unstable after MAX_RESTARTS
    # restarts, each logged with its eigenvalue, and its work sums them
    solves = []

    def recording(mesh, x0, params, opts):
        solves.append(relax(mesh, x0, params, opts))
        return solves[-1]

    def failing(mesh, x_b, params, tau):
        vec = np.zeros_like(x_b)
        vec[:, 2] = 1.0 / np.sqrt(len(x_b))
        return -1.0, vec

    monkeypatch.setattr(sweep, "relax", recording)
    monkeypatch.setattr(sweep, "unstable_mode", failing)
    with caplog.at_level("INFO", logger="filmloop.sweep"):
        diagram = run_sweep(tiny_schedule(values=np.array([20.0])))
    (point,) = diagram.points
    assert point.restarts == sweep.MAX_RESTARTS == len(solves) - 1
    assert point.status == "unstable" and point.converged == 0
    assert point.function_evals == sum(r.function_evals for r in solves)
    assert point.iterations == sum(r.iterations for r in solves)
    escapes = [r.getMessage() for r in caplog.records
               if "fails the certificate" in r.getMessage()]
    assert len(escapes) == sweep.MAX_RESTARTS
    assert all("eigenvalue -1" in m for m in escapes)


def test_fit_exponent_matches_curve_fit_on_acceptance_sweeps(
        acceptance_diagrams):
    for diagram in acceptance_diagrams:
        twist = [e for e in detect_transitions(diagram)
                 if e.kind == "PLANAR->TWISTED"][0]
        _check_fit_parity(diagram, 0.5 * (twist.lower + twist.upper)
                          * SIGMA_PER_SPRING_K)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("column", ["mean_abs_kn", "gamma"])
def test_fit_window_names_a_non_finite_point(column, value):
    diagram = fit_diagram(0.1, 1005.0, 0.5, SQRT_GAMMAS)
    setattr(diagram.points[4], column, value)
    for fit in (fit_exponent, fit_linear_K):
        with pytest.raises(ValueError,
                           match=f"point 4: {column} is {value!r}, not finite"):
            fit(diagram, 1000.0)


def test_fit_exponent_iteration_cap_raises_fit_error(monkeypatch):
    diagram = fit_diagram(0.1, 1005.0, 0.5, SQRT_GAMMAS)
    monkeypatch.setattr(sweep, "FIT_MAX_ITERATIONS", 1)
    with pytest.raises(FitError, match="did not converge in 1 iteration"):
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
    mesh = mesh_from_triangles(6, STRIP_TRIS)
    assert count_self_intersections(mesh, STRIP_X) == 1


def test_flat_configurations_have_no_crossings():
    mesh = mesh_from_triangles(6, STRIP_TRIS)
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


def test_counts_crossings_of_folded_pierced_disk():
    mesh, x = folded_pierced_disk(6, 160.0)
    assert not _is_graph(mesh, x)             # counted by the pair search
    count = count_self_intersections(mesh, x)
    assert count == _brute_force_crossings(mesh, x)
    assert count == 26


def _kicked_disk(rings):
    # a sweep's start: the elongated disk at unit length, kicked off its plane
    mesh, x = generate_disk_mesh(rings, 1.2)
    return mesh, perturb(scale_to_boundary_length(mesh, x, 1.0),
                         KICK_AMPLITUDE, 0)


@pytest.mark.parametrize("shape, args", [
    *[pytest.param(_kicked_disk, (rings,), id=f"disk-r{rings}")
      for rings in (4, 8, 16)],
    *[pytest.param(saddle_shape, (16, t), id=f"saddle-r16-t{t}")
      for t in (0.3, 0.6, 0.9)],
    pytest.param(folded_pierced_disk, (6, 160.0, 0.0), id="fold-r6-160deg"),
])
def test_graph_certificate_holds_on_embedded_shapes(shape, args):
    # the disk, buckled and twisted states are graphs over their mean plane,
    # and a single fold with no bump is one over the plane normal to its
    # bisector: certified without a pair search, and the search agrees
    mesh, x = shape(*args)
    assert _is_graph(mesh, x)
    assert count_self_intersections(mesh, x) == 0
    assert len(_crossing_pairs(mesh, x)) == 0


def test_folded_disk_without_crossings_counts_zero_by_pair_search():
    # a bump too low to reach the flap leaves the folded disk embedded, but
    # it tilts the lower half's normals away from the vector area (which
    # points almost along the fold's bisector), so the pair search decides
    mesh, x = folded_pierced_disk(6, 160.0, bump=0.75)
    assert not _is_graph(mesh, x)
    assert count_self_intersections(mesh, x) == 0
    assert _brute_force_crossings(mesh, x) == 0


def _lifted_double_cover(lift=0.05):
    # the rings-2 disk wrapped twice around its centre (angle theta -> 2
    # theta) and lifted by lift * theta: every triangle keeps its
    # orientation seen from above, but the boundary winds twice and the
    # sheets cross where the lift jumps back.  Unwarped, the lattice's
    # symmetry makes the sheets meet only edge through edge, exactly on a
    # triangle's edge, which the Moller-Trumbore margins skip; a shear
    # moves the contact into the triangles' interiors.
    mesh, x = generate_disk_mesh(2)
    x[:, 0] += 0.05 * x[:, 1] ** 2 + 0.03 * x[:, 0] * x[:, 1]
    r = np.hypot(x[:, 0], x[:, 1])
    theta = np.mod(np.arctan2(x[:, 1], x[:, 0]), 2.0 * np.pi)
    return mesh, np.stack([r * np.cos(2.0 * theta), r * np.sin(2.0 * theta),
                           lift * theta], axis=1)


def test_double_cover_fails_the_winding_check():
    mesh, x = _lifted_double_cover()
    p0 = x[mesh.triangles[:, 0]]
    n = np.cross(x[mesh.triangles[:, 1]] - p0, x[mesh.triangles[:, 2]] - p0)
    v = n.sum(axis=0)
    assert np.all(n @ v > 0.9 * np.linalg.norm(n, axis=1) * np.linalg.norm(v))
    assert not _is_graph(mesh, x)
    count = count_self_intersections(mesh, x)
    assert count == _brute_force_crossings(mesh, x)
    assert count == 4


@pytest.mark.parametrize("shape, args", [
    *[pytest.param(_kicked_disk, (rings,), id=f"disk-r{rings}")
      for rings in (1, 4, 16)],
    *[pytest.param(saddle_shape, (16, t), id=f"saddle-r16-t{t}")
      for t in (0.3, 0.6, 0.9)],
    *[pytest.param(folded_pierced_disk, (6, 160.0, bump),
                   id=f"fold-r6-160deg-bump{bump:g}")
      for bump in (0.0, 0.75, 2.0)],
    pytest.param(_lifted_double_cover, (), id="double-cover"),
])
def test_graph_verdicts_match_the_row_reference(shape, args):
    # the component-first normals and loop turns reach the same verdicts as
    # the (f, 3) row form on graphs, folds and a double cover alike
    mesh, x = shape(*args)
    assert _is_graph(mesh, x) == reference_is_graph(mesh, x,
                                                    diffgeo.GRAPH_MARGIN)


@pytest.mark.parametrize("shape, args", [
    *[pytest.param(folded_pierced_disk, (rings, degrees),
                   id=f"disk-r{rings}-{degrees:g}deg")
      for rings in (6, 8) for degrees in (140.0, 160.0, 175.0)],
    pytest.param(saddle_shape, (8, 0.9), id="saddle-r8-t0.9"),
])
def test_vectorized_crossings_match_per_pair_loop(shape, args):
    # the vertex-sharing filter is the reference's 3 x 3 index comparison,
    # and the array pass computes each pair's arithmetic as the per-pair
    # loop does, so the bounding-box prefilter and the vectorization must
    # leave the crossing pairs exactly as they were
    mesh, x = shape(*args)
    np.testing.assert_array_equal(_crossing_pairs(mesh, x),
                                  loop_crossing_pairs(mesh, x))


@pytest.mark.parametrize("shape, args", [
    pytest.param(_kicked_disk, (8,), id="disk-r8"),
    pytest.param(saddle_shape, (16, 0.9), id="saddle-r16-t0.9"),
    *[pytest.param(folded_pierced_disk, (6, 160.0, bump),
                   id=f"fold-r6-160deg-bump{bump:g}")
      for bump in (0.0, 0.75, 2.0)],
    pytest.param(_lifted_double_cover, (), id="double-cover"),
])
def test_graph_test_reads_the_corner_geometry_normals(shape, args):
    # the face normals of diffgeo's corner geometry are the graph test's
    # own, so passing them changes no verdict and no count
    mesh, x = shape(*args)
    geometry = corner_geometry(mesh.triangles, x)
    assert _is_graph(mesh, x, geometry) == _is_graph(mesh, x)
    assert (count_self_intersections(mesh, x, geometry)
            == count_self_intersections(mesh, x))


def test_sweep_point_computes_one_corner_geometry(monkeypatch):
    # boundary_geometry, gaussian_curvature and count_self_intersections
    # share the state's corner geometry: one computation a point
    calls = []
    geometry = diffgeo.corner_geometry

    def counted(tris, x):
        calls.append(len(tris))
        return geometry(tris, x)

    monkeypatch.setattr(sweep, "corner_geometry", counted)
    monkeypatch.setattr(diffgeo, "corner_geometry", counted)
    schedule = SweepSchedule(values=[100.0, 200.0], rings=3)
    run_sweep(schedule)
    mesh = generate_disk_mesh(3)[0]
    assert calls == [len(mesh.triangles)] * 2


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


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_diagram_csv_rejects_a_non_finite_float_cell(tmp_path, cell):
    # no sweep writes one: a non-finite energy or gradient raises first, and
    # a nan planarity would read as a twist between two planar states
    path = tmp_path / "diagram.csv"
    write_diagram_csv(path, BifurcationDiagram(
        points=[make_point(index=i) for i in range(3)]))
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[CSV_COLUMNS.index("planarity")] = cell
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=(
            f"line 3, column 'planarity': '{cell}' is not finite")):
        read_diagram_csv(path)


def test_diagram_csv_rejects_unknown_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("alpha,beta\n1.0,2.0\n")
    with pytest.raises(ValueError):
        read_diagram_csv(path)


def test_diagram_csv_rejects_spring_k_header(tmp_path):
    # diagrams written before the line_tension column carried spring_k
    path = tmp_path / "old.csv"
    write_diagram_csv(path, BifurcationDiagram(points=[make_point()]))
    lines = path.read_text().splitlines()
    old = lines[0].replace("gamma,", "gamma,spring_k,").split(",")
    old.remove("line_tension")
    path.write_text(",".join(old) + "\n" + lines[1] + "\n")
    with pytest.raises(ValueError, match="'spring_k'"):
        read_diagram_csv(path)
    path.write_text(",".join(lines[0].split(",")[:-1]) + "\n")
    with pytest.raises(ValueError, match="'status' missing"):
        read_diagram_csv(path)


def test_diagram_csv_rejects_header_without_function_evals(tmp_path):
    # diagrams written before the evaluation counter lack its column
    path = tmp_path / "old.csv"
    write_diagram_csv(path, BifurcationDiagram(points=[make_point()]))
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index("function_evals")
    old = [",".join(c for i, c in enumerate(line.split(",")) if i != col)
           for line in lines]
    path.write_text("\n".join(old) + "\n")
    with pytest.raises(ValueError, match="'function_evals' missing"):
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


def test_manifest_of_another_version_is_rejected(tmp_path):
    # a manifest promises a bit-for-bit rerun only under the version that
    # wrote it; a plain config carries no version and still loads
    schedule = SweepSchedule(values=np.array([20.0, 40.0]), rings=4)
    path = tmp_path / "manifest.json"
    write_manifest(path, schedule)
    doc = json.loads(path.read_text())
    assert doc["version"] == filmloop.__version__
    for version in ("0.1.0", None):
        path.write_text(json.dumps(dict(doc, version=version)))
        with pytest.raises(ValueError) as exc:
            read_manifest(path)
        assert repr(version) in str(exc.value)
        assert repr(filmloop.__version__) in str(exc.value)
    del doc["version"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="None"):
        read_manifest(path)
    path.write_text(json.dumps(doc["config"]))
    assert read_manifest(path).to_dict() == schedule.to_dict()


def test_schedule_validation():
    with pytest.raises(ValueError):
        SweepSchedule(values=np.array([3.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        SweepSchedule(values=np.array([]))
    with pytest.raises(ValueError):
        SweepSchedule(values=np.array([1.0, 2.0]), direction="sideways")
    with pytest.raises(ValueError, match="sweep config 'values' must be >= 0"):
        SweepSchedule(values=np.array([-10.0, 0.0, 10.0]))


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
    assert np.array_equal(diagram_column(diagram, "k_l3_alpha"), [20.0, 40.0, 60.0])
    assert np.allclose(diagram_column(diagram, "gamma"),
                       SIGMA_PER_SPRING_K * diagram_column(diagram, "k_l3_alpha"),
                       rtol=1e-15)
    assert np.array_equal(diagram_column(diagram, "seed"), [2, 3, 4])
    assert all(diagram_column(diagram, "converged"))
    # relax's status alone decides `converged`: it reports a solve that
    # converged off the length target as max_penalty_rounds
    assert all(p.converged == (p.status == "converged")
               for p in diagram.points)
    assert np.all(diagram_column(diagram, "length_rel_err") < 1e-3)
    assert np.all(diagram_column(diagram, "planarity") < 1e-3)   # far below any onset
    # each round evaluates its start, then at least once per accepted iterate
    assert np.all(diagram_column(diagram, "function_evals")
                  >= diagram_column(diagram, "iterations")
                  + diagram_column(diagram, "penalty_rounds"))


def test_start_energy_is_the_energy_of_each_warm_start(monkeypatch):
    # start_energy is bending + springs of relax's first evaluation: the
    # energy() of the point's start under its params, penalties off, to the
    # bit; the middle point fails its first certificate and restarts
    starts, failed = [], []
    evaluate = sweep._evaluate_point

    def recording(mesh, start, schedule, idx, kl3a, *args):
        starts.append((mesh, start, kl3a))
        return evaluate(mesh, start, schedule, idx, kl3a, *args)

    def failing_once(mesh, x_b, params, tau):
        if params.spring_k == 40.0 and not failed:
            failed.append(tau)
            vec = np.zeros_like(x_b)
            vec[:, 2] = 1.0 / np.sqrt(len(x_b))
            return -1.0, vec
        return unstable_mode(mesh, x_b, params, tau)

    monkeypatch.setattr(sweep, "_evaluate_point", recording)
    monkeypatch.setattr(sweep, "unstable_mode", failing_once)
    diagram = run_sweep(tiny_schedule())
    assert [p.restarts for p in diagram.points] == [0, 1, 0]
    assert len(starts) == len(diagram.points)
    for point, (mesh, start, kl3a) in zip(diagram.points, starts):
        params = EnergyParams(alpha=1.0, spring_k=kl3a, target_length=1.0)
        assert point.start_energy == energy(
            mesh.loop_mesh(), start.take(mesh.boundary_loop, axis=0),
            params).total


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    run_sweep(tiny_schedule(), out_dir=out1)
    run_sweep(read_manifest(out1 / "manifest.json"), out_dir=out2)
    assert ((out1 / "diagram.csv").read_bytes()
            == (out2 / "diagram.csv").read_bytes())


def test_saved_meshes_share_one_face_block(tmp_path, monkeypatch):
    # every point's OBJ carries the face block formatted once a sweep
    faces = []
    obj_faces = meshio.obj_faces

    def counted(tris):
        faces.append(obj_faces(tris))
        return faces[-1]

    monkeypatch.setattr(meshio, "obj_faces", counted)
    schedule = tiny_schedule()
    run_sweep(schedule, out_dir=tmp_path, save_meshes=True)
    assert len(faces) == 1
    mesh = generate_disk_mesh(schedule.rings)[0]
    assert faces[0] == obj_faces(mesh.triangles)
    for idx in range(len(schedule.values)):
        obj = (tmp_path / f"point_{idx:04d}.obj").read_text()
        assert obj.endswith(faces[0])


def _recorded_multipliers(monkeypatch, schedule):
    """Starting length multiplier and final relax result of every point."""
    calls = []

    def recording(mesh, x0, params, opts):
        res = relax(mesh, x0, params, opts)
        calls.append((params.length_multiplier, res))
        return res

    monkeypatch.setattr(sweep, "relax", recording)
    run_sweep(schedule)
    return calls


def test_warm_sweep_carries_scaled_multiplier(monkeypatch):
    for direction in ("up", "down"):
        schedule = tiny_schedule(values=np.array([200.0, 300.0, 450.0]),
                                 direction=direction)
        calls = _recorded_multipliers(monkeypatch, schedule)
        values = list(schedule.values)
        if direction == "down":
            values.reverse()
        assert calls[0][0] == 0.0
        for (_, prev), (lam, _), k_prev, k in zip(calls, calls[1:], values,
                                                  values[1:]):
            assert prev.params.length_multiplier != 0.0
            assert lam == prev.params.length_multiplier * k / k_prev


def test_warm_sweep_carries_the_multiplier_unscaled_after_zero(monkeypatch):
    # kL^3/alpha = 0 gives no ratio to scale by
    calls = _recorded_multipliers(monkeypatch, tiny_schedule(
        values=np.array([0.0, 5.0, 10.0]), rings=2))
    (_, first), (lam, second), (lam_next, last) = calls
    assert lam == first.params.length_multiplier
    assert lam_next == second.params.length_multiplier * 10.0 / 5.0
    assert first.converged and second.converged and last.converged


def test_cold_sweep_starts_multiplier_at_zero(monkeypatch):
    calls = _recorded_multipliers(monkeypatch, tiny_schedule(
        values=np.array([200.0, 300.0, 450.0]), warm_start=False))
    assert [lam for lam, _ in calls] == [0.0, 0.0, 0.0]


def test_downward_sweep_returns_ascending_points(tmp_path):
    diagram = run_sweep(tiny_schedule(direction="down"))
    assert np.array_equal(diagram_column(diagram, "k_l3_alpha"), [20.0, 40.0, 60.0])
    assert np.array_equal(diagram_column(diagram, "index"), [0, 1, 2])
    assert np.array_equal(diagram_column(diagram, "seed"), [0, 1, 2])
