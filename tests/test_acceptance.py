"""Acceptance gate for the film-spanning loop toolkit.

Ten criteria, one test each, in fixed order: analytic thresholds, gradient
correctness, sub-threshold relaxation, the transition sequence on desk-scale
meshes, the onset scaling fits, the Gauss-Bonnet identity, the asymptotic
family oracle suite, boundary equilibrium residuals, and sweep determinism.
Each test records its measured numbers through record_criterion before
asserting, so the terminal summary shows one PASS/FAIL line per criterion
whatever the outcome.

The two sweep fixtures (elongated and regular hexagon, rings=16) dominate
the runtime; everything else completes in seconds.
"""

import numpy as np
import pytest
from conftest import record_criterion
from helpers import (boundary_curvature_series, boundary_curvatures_exact,
                     boundary_curve, diagram_column, disk_solution,
                     el_residuals, energy_series, family_metric,
                     frenet_analyze, length_series, second_order_coefficient)

from filmloop import saddle
from filmloop.diffgeo import (boundary_geometry, gauss_bonnet_defect,
                              planarity)
from filmloop.energy import (EnergyParams, SIGMA_PER_SPRING_K, energy,
                             energy_and_gradient)
from filmloop.mesh import generate_disk_mesh, scale_to_boundary_length
from filmloop.optimize import KICK_AMPLITUDE, MinimizeOptions, perturb, relax
from filmloop.stability import critical_gamma, kl3a_from_gamma
from filmloop.sweep import (SweepSchedule, detect_transitions, fit_exponent,
                            fit_linear_K, read_manifest, run_sweep)

RINGS = 16
ELONGATED_VALUES = np.concatenate([
    np.arange(500.0, 851.0, 25.0),       # coarse approach
    np.arange(852.0, 887.0, 2.0),        # dense through the twist onset
    np.arange(890.0, 900.5, 5.0),        # short twisted tail
])
HEX_VALUES = np.arange(700.0, 1001.0, 25.0)
SWEEP_OPTS = MinimizeOptions(max_iterations=60000)


@pytest.fixture(scope="module")
def elongated_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("elongated")
    schedule = SweepSchedule(values=ELONGATED_VALUES, rings=RINGS,
                             elongation=1.2, base_seed=0, options=SWEEP_OPTS)
    return run_sweep(schedule, out_dir=out), out


@pytest.fixture(scope="module")
def hexagon_diagram():
    schedule = SweepSchedule(values=HEX_VALUES, rings=RINGS, elongation=1.0,
                             base_seed=0, options=SWEEP_OPTS)
    return run_sweep(schedule)


@pytest.fixture(scope="module")
def subcritical_state():
    """Perturbed relaxation at half the buckling threshold, to a gradient
    tolerance that pushes transverse residuals to rounding level."""
    mesh, x0 = generate_disk_mesh(RINGS, 1.2)
    x0 = perturb(scale_to_boundary_length(mesh, x0, 1.0),
                 KICK_AMPLITUDE, 0)
    params = EnergyParams(alpha=1.0,
                          spring_k=float(kl3a_from_gamma(0.5 * critical_gamma(2))),
                          target_length=1.0)
    # below the energy's rounding the Wolfe search's curvature test, which
    # reads only the gradient, carries the solve to this tolerance
    res = relax(mesh, x0, params,
                MinimizeOptions(max_iterations=60000, gradient_tolerance=1e-11))
    assert res.converged, res.status
    return mesh, res.x, res.params


def _bracket(events, kind):
    for e in events:
        if e.kind == kind:
            return e.lower, e.upper
    return None


def _overlaps(bracket, center, frac=0.15):
    if bracket is None:
        return False
    return bracket[0] <= center * (1 + frac) and bracket[1] >= center * (1 - frac)


def _fmt_bracket(bracket):
    return "none" if bracket is None else f"({bracket[0]:g}, {bracket[1]:g})"


def test_criterion_01_analytic_thresholds():
    err2 = abs(critical_gamma(2) - 48.0 * np.pi**3) / (48.0 * np.pi**3)
    err_star = abs(saddle.gamma_star() - 96.0 * np.pi**3) / (96.0 * np.pi**3)
    worst_coeff = max(
        abs(second_order_coefficient(k, 16.0 * np.pi**3 * (k**2 - 1.0)))
        / (2.0 * (k**2 - 1.0) ** 2)
        for k in range(2, 7))
    ok = err2 < 1e-13 and err_star < 1e-13 and worst_coeff < 1e-12
    record_criterion(1, ok,
                     f"threshold rel errs {err2:.1e}/{err_star:.1e}, "
                     f"coefficient zeros <= {worst_coeff:.1e} (scaled)")
    assert ok


def test_criterion_02_gradient_vs_finite_differences():
    rng = np.random.default_rng(0)
    worst = 0.0
    count = 0
    h = 3e-6
    for rings in (4, 8):
        mesh, x0 = generate_disk_mesh(rings)
        x0 = scale_to_boundary_length(mesh, x0, 1.0)
        for _ in range(50):
            params = EnergyParams(
                alpha=rng.uniform(0.1, 3.0),
                spring_k=rng.uniform(0.0, 500.0),
                target_length=1.0,
                length_penalty_k=rng.choice([0.0, 100.0, 1000.0]),
                edge_penalty_k=rng.choice([0.0, 100.0, 1000.0]))
            x = x0 + 0.05 * rng.standard_normal(x0.shape) / (2.0 * np.pi)
            _, g = energy_and_gradient(mesh, x, params)
            gscale = np.abs(g).max()
            for i in rng.choice(mesh.vertex_count, size=8, replace=False):
                for c in range(3):
                    xp = x.copy()
                    xp[i, c] += h
                    xm = x.copy()
                    xm[i, c] -= h
                    fd = (energy(mesh, xp, params).total
                          - energy(mesh, xm, params).total) / (2.0 * h)
                    worst = max(worst, abs(g[i, c] - fd) / gscale)
            count += 1
    ok = count == 100 and worst < 1e-6
    record_criterion(2, ok,
                     f"{count} configs, worst rel error {worst:.2e} (< 1e-6)")
    assert ok


def test_criterion_03_subthreshold_disk(subcritical_state):
    mesh, x, params = subcritical_state
    flat = planarity(mesh, x)
    loop = mesh.boundary_loop
    pts = x[loop]
    radii = np.linalg.norm(pts - pts.mean(axis=0), axis=1)
    target = params.target_length / (2.0 * np.pi)
    rad_dev = np.abs(radii / target - 1.0).max()
    bg = boundary_geometry(mesh, x)
    kn_max = np.abs(bg.kappa_n).max()
    bound = 1e-2 * (kn_max * params.target_length + 1e-8)
    int_kn = abs(bg.integral_kn)
    ok = flat < 1e-4 and rad_dev < 5e-3 and int_kn < bound
    record_criterion(3, ok,
                     f"planarity {flat:.1e}, radius dev {rad_dev:.1e}, "
                     f"|int kn ds| {int_kn:.1e} < {bound:.1e}")
    assert ok


def test_criterion_04_transition_sequence(elongated_run, hexagon_diagram):
    diagram, _ = elongated_run
    events = detect_transitions(diagram)
    br_ellipse = _bracket(events, "CIRCLE->ELLIPSE")
    br_twist = _bracket(events, "PLANAR->TWISTED")
    br_eight = _bracket(events, "TWISTED->FLAT-EIGHT")
    hex_events = detect_transitions(hexagon_diagram)
    br_hex = _bracket(hex_events, "PLANAR->TWISTED")

    ok_a = br_ellipse is not None
    ok_b = _overlaps(br_twist, 643.0)
    ok_c = _overlaps(br_eight, 740.0)
    ok_d = _overlaps(br_hex, 855.0)
    ok = ok_a and ok_b and ok_c and ok_d
    detail = (f"ellipse {_fmt_bracket(br_ellipse)}; "
              f"twist {_fmt_bracket(br_twist)} vs 643+-15%; "
              f"flat-eight {_fmt_bracket(br_eight)} vs 740+-15%; "
              f"hexagon {_fmt_bracket(br_hex)} vs 855+-15%")
    record_criterion(4, ok, detail)
    assert ok, (
        "transition sequence differs from the reference values: " + detail
        + ". The film is the Douglas form of the loop at its uniform "
        "parameter, a Dirichlet energy rather than an area, so it carries "
        "no in-plane shear softening: the elongated mesh stays "
        "circular-planar until the transverse onset in the bracket "
        "(860, 862) of kL^3/alpha, the same scale as the hexagon onset, and "
        "no flat-eight appears below 900.")


def test_criterion_05_pitchfork_exponent(elongated_run):
    diagram, _ = elongated_run
    br = _bracket(detect_transitions(diagram), "PLANAR->TWISTED")
    if br is None:
        record_criterion(5, False, "no twist onset detected")
        pytest.fail("no twist onset detected")
    gamma_thr = 0.5 * (br[0] + br[1]) * SIGMA_PER_SPRING_K
    fit = fit_exponent(diagram, gamma_thr)
    ok = 0.4 <= fit.exponent <= 0.6 and fit.r_squared > 0.95
    record_criterion(5, ok,
                     f"p = {fit.exponent:.4f} +- {fit.stderr:.4f}, "
                     f"R^2 = {fit.r_squared:.5f}, n = {fit.n_points}")
    assert ok


def test_criterion_06_gaussian_curvature_slope(elongated_run):
    diagram, _ = elongated_run
    br = _bracket(detect_transitions(diagram), "PLANAR->TWISTED")
    gamma_thr = 0.5 * (br[0] + br[1]) * SIGMA_PER_SPRING_K
    fit = fit_linear_K(diagram, fit_exponent(diagram, gamma_thr).gamma_c)
    ok = fit.slope < 0 and fit.r_squared > 0.95
    record_criterion(6, ok,
                     f"slope = {fit.slope:.3e}, R^2 = {fit.r_squared:.5f}, "
                     f"n = {fit.n_points}")
    assert ok


def test_criterion_07_gauss_bonnet_everywhere(elongated_run, hexagon_diagram,
                                              subcritical_state):
    diagram, _ = elongated_run
    mesh, x, _ = subcritical_state
    worst = max(float(diagram_column(diagram, "gauss_bonnet").max()),
                float(diagram_column(hexagon_diagram, "gauss_bonnet").max()),
                float(gauss_bonnet_defect(mesh, x)))
    ok = worst < 1e-9
    record_criterion(7, ok, f"max defect {worst:.2e} over "
                            f"{len(diagram.points) + len(hexagon_diagram.points) + 1} "
                            f"configurations")
    assert ok


def test_criterion_08_asymptotic_oracles():
    # (a) analytic metric vs finite differences
    fam = saddle.SaddleFamily(R=1.3, t=0.3)
    rng = np.random.default_rng(1)
    h = 1e-5
    metric_err = 0.0
    for r, p in zip(rng.uniform(0.1, 1.3, 40), rng.uniform(0, 2 * np.pi, 40)):
        xr = (saddle.family_point(fam, r + h, p)
              - saddle.family_point(fam, r - h, p)) / (2 * h)
        xp = (saddle.family_point(fam, r, p + h)
              - saddle.family_point(fam, r, p - h)) / (2 * h)
        g_rr, g_rp, g_pp = family_metric(fam, r, p)
        metric_err = max(metric_err, abs(g_rr - xr @ xr), abs(g_rp - xr @ xp),
                         abs(g_pp - xp @ xp))
    ok_a = metric_err < 1e-8

    # (b) series truncation residuals scale as t^6
    ts = np.geomspace(0.05, 0.3, 7)
    res_len = [abs(saddle.length_quadrature(saddle.SaddleFamily(1.0, t))
                   - length_series(saddle.SaddleFamily(1.0, t)))
               for t in ts]
    res_en = [abs(saddle.energy_quadrature(saddle.SaddleFamily(1.0, t), 6.0, 1.0)
                  - energy_series(saddle.SaddleFamily(1.0, t), 6.0, 1.0))
              for t in ts]
    slope_len = float(np.polyfit(np.log(ts), np.log(res_len), 1)[0])
    slope_en = float(np.polyfit(np.log(ts), np.log(res_en), 1)[0])
    ok_b = abs(slope_len - 6.0) < 0.3 and abs(slope_en - 6.0) < 0.3

    # (c) curvature split series vs Frenet projection at t = 0.05
    fam_c = saddle.SaddleFamily(R=1.0, t=0.05)
    phi = np.arange(512) * 2.0 * np.pi / 512
    fr = frenet_analyze(boundary_curve(fam_c, phi))
    kn_s, kg_s = boundary_curvature_series(fam_c, phi)
    kn_e, kg_e = boundary_curvatures_exact(fam_c, phi)
    kerr = np.abs(np.sqrt(kn_s**2 + kg_s**2) - fr.kappa).max() / fr.kappa.max()
    kn_err = np.abs(kn_s - kn_e).max() / np.abs(kn_e).max()
    kg_err = np.abs(kg_s - kg_e).max() / np.abs(kg_e).max()
    ok_c = kerr < 0.01 and kn_err < 0.01 and kg_err < 0.01

    # (d) two routes to the integrated Gaussian curvature
    intk_err = 0.0
    for t in (0.05, 0.1, 0.2, 0.4):
        fam_d = saddle.SaddleFamily(R=1.0, t=t)
        diff = abs(saddle.int_K_quadrature(fam_d)
                   - saddle.int_K_gauss_bonnet(fam_d))
        intk_err = max(intk_err, diff / t**4)
    ok_d = intk_err < 1.0
    # below 1e-9 the figure is an ulp of the integral over t^4 and flips
    # with the summation order, so the line prints the bound instead
    intk_msg = ("< 1e-9" if intk_err < 1e-9 else f"{intk_err:.1e}")

    # (e) stationarity of the constrained series energy at the branch
    L, alpha = 2.0 * np.pi, 1.0
    hs = 1e-3
    stat = 0.0
    for factor in (1.05, 1.3, 2.0):
        gam = factor * saddle.gamma_star()
        sigma = gam * alpha / L**3
        tstar = saddle.pitchfork_amplitude(gam)
        e = lambda t: saddle.constrained_energy_series(L, t, sigma, alpha)
        d = (e(tstar - 2 * hs) - 8 * e(tstar - hs)
             + 8 * e(tstar + hs) - e(tstar + 2 * hs)) / (12 * hs)
        stat = max(stat, abs(d))
    ok_e = stat < 1e-8

    ok = ok_a and ok_b and ok_c and ok_d and ok_e
    record_criterion(8, ok,
                     f"metric {metric_err:.1e}; slopes {slope_len:.2f}/"
                     f"{slope_en:.2f}; curvature {100 * kerr:.2f}%; "
                     f"intK diff/t^4 {intk_msg}; stationarity {stat:.1e}")
    assert ok


def test_criterion_09_boundary_equilibrium_residuals():
    worst = 0.0
    n = 512
    for sigma, alpha in ((6.0, 1.0), (14.0, 2.5)):
        sol = disk_solution(2.0 * np.pi, sigma, alpha)
        phi = np.arange(n) * 2.0 * np.pi / n
        pts = np.stack([np.cos(phi), np.sin(phi), np.zeros(n)], axis=1)
        fr = frenet_analyze(pts)
        fr.kappa = np.ones(n)                 # analytic circle curvature
        fr.tau = np.zeros(n)
        res_a, res_b = el_residuals(fr, np.pi / 2.0, alpha, sigma, sol.beta)
        worst = max(worst, np.abs(res_a).max(), np.abs(res_b).max())
    ok = worst < 1e-8
    record_criterion(9, ok, f"max residual {worst:.2e} (< 1e-8)")
    assert ok


def test_criterion_10_sweep_determinism(elongated_run, tmp_path):
    _, out1 = elongated_run
    schedule = read_manifest(out1 / "manifest.json")
    out2 = tmp_path / "rerun"
    run_sweep(schedule, out_dir=out2)
    b1 = (out1 / "diagram.csv").read_bytes()
    b2 = (out2 / "diagram.csv").read_bytes()
    ok = b1 == b2
    record_criterion(10, ok,
                     f"rerun diagram.csv identical ({len(b1)} bytes)" if ok
                     else "rerun diagram.csv differs")
    assert ok
