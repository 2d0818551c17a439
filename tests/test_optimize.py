"""Optimizer behavior: L-BFGS core on a quadratic oracle, mesh relaxation,
the augmented-Lagrangian length constraint and its line tension,
determinism, evaluation counts and budget, and the one Wolfe search down to
tolerances below the energy's rounding, with its budget once the energy
stops falling and its result when the search stalls.  The pair ring is
checked against its deque reference; the preconditioner against a dense
solve of the stiffness it models, the film's Douglas-form symbol and that
model itself; also the finiteness check at line-search trial points, and
the loop's flat state against callers' shapes.
"""

import collections
import dataclasses
import io
import warnings

import numpy as np
import pytest
from scipy.linalg.blas import daxpy, ddot

from filmloop.energy import (DegenerateBoundaryError, EnergyParams, energy,
                             energy_and_gradient)
from filmloop.mesh import (MeshError, generate_disk_mesh,
                           scale_to_boundary_length)
from filmloop.diffgeo import planarity
from filmloop import optimize
from filmloop.optimize import (ENERGY_ROUNDING, FINISH_ITERATIONS,
                               KICK_AMPLITUDE, LENGTH_TOL, MinimizeOptions,
                               NumericalError, minimize_function, perturb,
                               relax)
from filmloop.stability import critical_gamma, kl3a_from_gamma

from helpers import (disk_solution, fan_mesh, fft_preconditioner, polygon_mesh,
                     preconditioner_model, real_fourier_basis,
                     reference_two_loop)


def quadratic_problem(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)
    b = rng.standard_normal(n)

    def fun(x):
        return 0.5 * x @ a @ x - b @ x, a @ x - b

    return fun, a, b


def test_cg_solves_quadratic():
    fun, a, b = quadratic_problem(50, 3)
    opts = MinimizeOptions(max_iterations=2000)
    x, f, g, it, status = minimize_function(fun, np.zeros(50), opts,
                                            gtol_abs=1e-6)
    assert status == "converged"
    assert it < 50                            # far fewer than the dimension^2
    assert np.abs(x - np.linalg.solve(a, b)).max() < 1e-7
    assert np.abs(g).max() <= 1e-6


def test_cg_diagonal_preconditioner_agrees():
    fun, a, b = quadratic_problem(40, 4)
    opts = MinimizeOptions(max_iterations=2000)
    xstar = np.linalg.solve(a, b)
    minv = 1.0 / np.diag(a)
    x, *_ = minimize_function(fun, np.zeros(40), opts, gtol_abs=1e-10,
                              minv=lambda g: minv * g)
    assert np.abs(x - xstar).max() < 1e-8


def test_energy_history_monotone():
    # an accepted step passes the sufficient-decrease test, whose allowance
    # is ENERGY_ROUNDING * |f|: below the energy's rounding it may rise by
    # that much and no more
    fun, _, _ = quadratic_problem(30, 5)
    opts = MinimizeOptions(max_iterations=300)
    seen = []

    def record(k, x, f, ginf):
        seen.append((k, f))

    *_, it, _ = minimize_function(fun, np.zeros(30), opts, gtol_abs=1e-9,
                                  callback=record)
    fh = np.array([f for _, f in seen])
    assert np.all(np.diff(fh) <= ENERGY_ROUNDING * np.abs(fh[:-1]))
    assert [k for k, _ in seen] == list(range(it + 1))


def test_nonsmooth_objective_reports_line_search_failure():
    def fun(x):
        return float(np.abs(x).sum()), np.sign(x)

    opts = MinimizeOptions(max_iterations=100)
    x, f, g, it, status = minimize_function(fun, np.array([1.0]), opts,
                                            gtol_abs=1e-12)
    assert status == "search_stalled"


def test_non_finite_energy_raises():
    def fun(x):
        return np.nan, np.zeros_like(x)

    with pytest.raises(NumericalError):
        minimize_function(fun, np.zeros(3), MinimizeOptions(), gtol_abs=1e-6)


def test_collapsed_start_raises_degenerate_boundary():
    # the preconditioner's tangents at a zero-length boundary edge warn about
    # nothing, so the energy's own check names the fault
    mesh, x0 = generate_disk_mesh(3)
    x = scale_to_boundary_length(mesh, x0, 1.0)
    loop = mesh.boundary_loop
    x[loop[4]] = x[loop[3]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateBoundaryError):
            relax(mesh, x, PRECONDITIONER_PARAMS)


@pytest.mark.parametrize("bad", ["nan_energy", "inf_gradient"])
def test_non_finite_trial_point_raises(bad):
    # finite at the start, non-finite only at the first line-search trial
    calls = [0]

    def fun(x):
        calls[0] += 1
        g = x - 1.0
        f = 0.5 * float(g @ g)
        if calls[0] > 1:
            if bad == "nan_energy":
                f = np.nan
            else:
                g = g.copy()
                g[1] = np.inf
        return f, g

    with pytest.raises(NumericalError):
        minimize_function(fun, np.zeros(3), MinimizeOptions(), gtol_abs=1e-6)
    assert calls[0] == 2


@pytest.mark.parametrize("order", ["C", "F"])
def test_minimize_function_keeps_callers_shape(order):
    # the loop runs flat; fun, minv, callback and the results see (n, 3)
    rng = np.random.default_rng(11)
    target = rng.standard_normal((7, 3))
    weight = 1.0 + rng.random((7, 3))
    seen = set()

    def fun(x):
        seen.add(x.shape)
        r = x - target
        return 0.5 * float(np.sum(weight * r * r)), weight * r

    def minv(g):
        seen.add(g.shape)
        return g / weight

    def callback(it, x, f, ginf):
        seen.add(x.shape)

    x0 = np.array(np.zeros((7, 3)), order=order)
    x, f, g, it, status = minimize_function(
        fun, x0, MinimizeOptions(), gtol_abs=1e-10, callback=callback,
        minv=minv)
    assert status == "converged"
    assert x.shape == g.shape == (7, 3) and seen == {(7, 3)}
    np.testing.assert_allclose(x, target, atol=1e-9)
    np.testing.assert_array_equal(g, weight * (x - target))


@pytest.mark.parametrize("rings", [8, 16])
def test_loop_mesh_preconditioner_is_the_general_apply(rings):
    # on a loop mesh the apply is the circulant product alone: the bytes of
    # the full mesh's apply at its loop rows, which gathers the loop rows of
    # a full gradient, overwrites them and passes the other rows through
    mesh, x = generate_disk_mesh(rings, 1.2)
    x = perturb(scale_to_boundary_length(mesh, x, 1.0), KICK_AMPLITUDE, 0)
    loop = mesh.boundary_loop
    inner = np.setdiff1d(np.arange(mesh.vertex_count), loop)
    p = EnergyParams(alpha=1.0, spring_k=900.0, target_length=1.0,
                     length_penalty_k=90100.0, edge_penalty_k=90100.0)
    fast = optimize.make_preconditioner(mesh.loop_film()[0], x[loop], p)
    full = optimize.make_preconditioner(mesh, x, p)
    for g in np.random.default_rng(rings).standard_normal((3,) + x.shape):
        z = full(g)
        assert fast(g[loop]).tobytes() == z[loop].tobytes()
        assert z[inner].tobytes() == g[inner].tobytes()


def _pair(rng, n, sign=1.0):
    s = rng.standard_normal(n)
    y = sign * s + 0.3 * rng.standard_normal(n)
    return s, y


def test_pair_ring_matches_deque_two_loop():
    # the preallocated ring with in-place BLAS updates gives the deque
    # recursion's directions: while filling, full, wrapped, with a rejected
    # s.y <= 0 pair on the full ring, and after a clear
    n = 30
    rng = np.random.default_rng(3)
    scale = 1.0 + rng.random(n)

    def apply_minv(v):
        return scale * v

    ring = optimize._PairRing(n, ddot, daxpy)
    memory = collections.deque(maxlen=optimize.LBFGS_MEMORY)

    def push(s, y):
        ring.push(s, y)
        sy = float(np.vdot(s, y))
        if sy > 0.0:
            memory.append((s, y, 1.0 / sy))

    def check():
        g = rng.standard_normal(n)
        d = ring.direction(g, apply_minv)
        ref = reference_two_loop(g, memory, apply_minv)
        assert ring.count == len(memory)
        assert np.linalg.norm(d - ref) <= 1e-13 * np.linalg.norm(ref)

    for pushes in range(1, 12):
        rejected = pushes == 10                   # the ring is full by then
        s, y = _pair(rng, n, -1.0 if rejected else 1.0)
        assert (float(np.vdot(s, y)) <= 0.0) == rejected
        push(s, y)
        if pushes in (3, 8, 10, 11):
            check()
    assert len(memory) == optimize.LBFGS_MEMORY
    ring.clear()
    memory.clear()
    check()
    for _ in range(2):
        push(*_pair(rng, n))
    check()


# the penalties relax starts a kL^3/alpha = 900 solve with, 100 (k + alpha/L^3)
PRECONDITIONER_PARAMS = EnergyParams(
    alpha=1.0, spring_k=900.0, target_length=1.0, length_penalty_k=90100.0,
    edge_penalty_k=90100.0)


def _kicked_disk(rings):
    mesh, x = generate_disk_mesh(rings, 1.2)
    return mesh, perturb(scale_to_boundary_length(mesh, x, 1.0),
                         KICK_AMPLITUDE, 0)


def _assert_matches_oracle(mesh, x, p, seed):
    dense = optimize.make_preconditioner(mesh, x, p)
    fft = fft_preconditioner(mesh, x, p)
    rng = np.random.default_rng(seed)
    v, w = rng.standard_normal((2,) + x.shape)
    for u in (v, w):
        ref = fft(u)
        assert np.linalg.norm(dense(u) - ref) <= 1e-13 * np.linalg.norm(ref)
    # symmetric and positive definite
    vw, wv = np.vdot(v, dense(w)), np.vdot(w, dense(v))
    assert abs(vw - wv) <= 1e-13 * np.sqrt(np.vdot(v, dense(v))
                                           * np.vdot(w, dense(w)))
    assert np.vdot(v, dense(v)) > 0.0 and np.vdot(w, dense(w)) > 0.0


@pytest.mark.parametrize("rings", [8, 16, 32])
def test_dense_preconditioner_matches_fft(rings):
    mesh, x = _kicked_disk(rings)
    _assert_matches_oracle(mesh, x, PRECONDITIONER_PARAMS, rings)


@pytest.mark.parametrize("rings", [8, 16, 32])
def test_loop_mesh_preconditioner_matches_fft(rings):
    mesh, x = _kicked_disk(rings)
    _assert_matches_oracle(mesh.loop_film()[0], x[mesh.boundary_loop],
                           PRECONDITIONER_PARAMS, rings)


@pytest.mark.parametrize("rings", [8, 16, 32])
def test_loop_preconditioner_film_symbol_is_the_douglas_form(rings):
    # with bending, edge chain and length penalty off, the apply divides
    # loop Fourier mode m >= 1 by the film's 2k * 2 sqrt(3) pi m / B
    mesh, x = _kicked_disk(rings)
    loop_mesh = mesh.loop_film()[0]
    nb = len(mesh.boundary_loop)
    p = EnergyParams(alpha=0.0, spring_k=900.0, target_length=1.0)
    apply = optimize.make_preconditioner(loop_mesh, x[mesh.boundary_loop], p)
    basis, modes = real_fourier_basis(nb)
    for wave, m in zip(basis[1:], modes[1:]):
        film = 2.0 * 900.0 * 2.0 * np.sqrt(3.0) * np.pi * m / nb
        g = np.outer(wave, [1.0, -2.0, 0.5])
        assert np.linalg.norm(film * apply(g) - g) <= 1e-12 * np.linalg.norm(g)


@pytest.mark.parametrize("mu", [90100.0, 0.0])
@pytest.mark.parametrize("rings", [8, 16, 32])
def test_loop_preconditioner_inverts_its_model(rings, mu):
    # apply(model @ v) = v for the dense C kron I_3 + 2 mu u u^T, to the
    # accuracy its condition number allows: rounding in model @ v moves the
    # result by about eps * cond |v| (measured 4e-14 / 7e-13 / 2e-11 of |v|
    # at rings 8 / 16 / 32, cond 1.3e3 / 2.9e4 / 7.3e5)
    mesh, x = _kicked_disk(rings)
    xb = x[mesh.boundary_loop]
    loop_mesh = mesh.loop_film()[0]
    p = dataclasses.replace(PRECONDITIONER_PARAMS, length_penalty_k=mu)
    apply = optimize.make_preconditioner(loop_mesh, xb, p)
    model = preconditioner_model(loop_mesh, xb, p).loop_block()
    tol = 8.0 * np.finfo(float).eps * np.linalg.cond(model)
    for v in np.random.default_rng(rings).standard_normal((2,) + xb.shape):
        got = apply((model @ v.ravel()).reshape(v.shape))
        assert np.linalg.norm(got - v) <= tol * np.linalg.norm(v)


def test_options_validation():
    with pytest.raises(ValueError):
        MinimizeOptions(max_iterations=-1)
    with pytest.raises(ValueError):
        MinimizeOptions(gradient_tolerance=0.0)


def test_perturb_touches_only_z():
    x = np.zeros((40, 3))
    y = perturb(x, 1e-2, seed=5)
    assert np.array_equal(y[:, :2], x[:, :2])
    assert np.abs(y[:, 2]).max() <= 1e-2
    assert np.abs(y[:, 2]).max() > 0
    assert np.array_equal(perturb(x, 1e-2, seed=5), y)
    assert not np.array_equal(perturb(x, 1e-2, seed=6), y)
    with pytest.raises(ValueError):
        perturb(x, -1.0, seed=0)
    assert KICK_AMPLITUDE * (2.0 * np.pi) == 1e-3           # 1e-3 R at L = 1


def test_max_iterations_zero_returns_start():
    # the start's loop, and the harmonic disk spanning it as the interior
    mesh, x0 = generate_disk_mesh(3)
    x0 = perturb(scale_to_boundary_length(mesh, x0, 1.0), KICK_AMPLITUDE, 0)
    p = EnergyParams(alpha=1.0, spring_k=10.0, target_length=1.0)
    res = relax(mesh, x0, p, MinimizeOptions(max_iterations=0))
    assert res.iterations == 0 and res.penalty_rounds == 1
    assert res.status == "max_iterations"
    assert not res.converged
    loop = mesh.boundary_loop
    assert np.array_equal(res.x[loop], x0[loop])
    assert np.array_equal(res.x, mesh.loop_film()[1](x0[loop]))


def test_minimize_without_lattice_raises_before_solving():
    # a mesh with interior vertices but no lattice coordinates has no
    # extension, so relax refuses it before its first round
    mesh, x0 = fan_mesh(12)
    p = EnergyParams(alpha=1.0, spring_k=10.0, target_length=2.0 * np.pi)
    with pytest.raises(MeshError, match="ring and place"):
        relax(mesh, x0, p)


def test_minimize_writes_iteration_log():
    mesh, x0 = generate_disk_mesh(3)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)
    p = EnergyParams(alpha=1.0, spring_k=10.0, target_length=1.0,
                     length_penalty_k=100.0, edge_penalty_k=100.0)
    stream = io.StringIO()
    res = relax(mesh, x0, p, MinimizeOptions(max_iterations=50),
                log_stream=stream)
    lines = stream.getvalue().strip().split("\n")
    assert lines[0] == "iteration,total_energy,gradient_inf_norm,boundary_length_error"
    assert len(lines) == res.iterations + 2    # header + iterate 0 + accepted
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert np.isfinite(float(first[1]))


def test_relax_flattens_subcritical_disk():
    mesh, x0 = generate_disk_mesh(6)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)
    p = EnergyParams(alpha=1.0, spring_k=20.0, target_length=1.0)
    x0 = perturb(x0, KICK_AMPLITUDE, 0)
    res = relax(mesh, x0, p, MinimizeOptions(max_iterations=20000))
    assert res.converged
    assert res.length_error < 1e-3
    assert planarity(mesh, res.x) < 1e-6
    radii = np.linalg.norm(res.x[mesh.boundary_loop]
                           - res.x[mesh.boundary_loop].mean(axis=0), axis=1)
    assert np.abs(radii - 1.0 / (2.0 * np.pi)).max() < 0.005 / (2.0 * np.pi)


def test_relax_is_deterministic():
    mesh, x0 = generate_disk_mesh(4)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)
    p = EnergyParams(alpha=1.0, spring_k=30.0, target_length=1.0)
    x0 = perturb(x0, 1e-3, 1)
    opts = MinimizeOptions(max_iterations=5000)
    res1 = relax(mesh, x0, p, opts)
    res2 = relax(mesh, x0, p, opts)
    assert np.array_equal(res1.x, res2.x)
    assert res1.iterations == res2.iterations


def _soft_penalty_start():
    mesh, x0 = generate_disk_mesh(4)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)
    # global penalty deliberately far too soft to hold the target length in
    # one round; edge penalty left on automatic
    p = EnergyParams(alpha=1.0, spring_k=30.0, target_length=1.0,
                     length_penalty_k=1e-3, edge_penalty_k=0.0)
    return mesh, x0, p


def test_relax_escalates_weak_penalty(monkeypatch):
    # this soft start needs 9 rounds, more than relax allows by default
    monkeypatch.setattr(optimize, "MAX_PENALTY_ROUNDS", 9)
    mesh, x0, p = _soft_penalty_start()
    res = relax(mesh, x0, p, MinimizeOptions(max_iterations=20000))
    assert res.penalty_rounds >= 2
    assert res.params.length_penalty_k > 1e-3
    assert res.length_error < 1e-3


def test_relax_fails_when_rounds_run_out_with_length_off():
    # the same soft start at the default round limit: every round's solve
    # converges, but the length is still off target after the last
    mesh, x0, p = _soft_penalty_start()
    res = relax(mesh, x0, p, MinimizeOptions(max_iterations=20000))
    assert res.penalty_rounds == optimize.MAX_PENALTY_ROUNDS
    assert res.length_error >= LENGTH_TOL
    assert res.status == "max_penalty_rounds" and not res.converged


def test_converged_is_read_from_the_status():
    # a result's converged is its status, not a field a caller could set
    # out of step with it
    assert "converged" not in {
        f.name for f in dataclasses.fields(optimize.MinimizeResult)}
    mesh, x0 = generate_disk_mesh(3)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)
    p = EnergyParams(alpha=1.0, spring_k=10.0, target_length=1.0)
    for opts in (MinimizeOptions(), MinimizeOptions(max_iterations=1)):
        res = relax(mesh, x0, p, opts)
        assert res.converged == (res.status == "converged")


def test_relax_depends_on_start_only_through_loop():
    mesh, x0 = generate_disk_mesh(4)
    x0 = perturb(scale_to_boundary_length(mesh, x0, 1.0), KICK_AMPLITUDE, 0)
    p = EnergyParams(alpha=1.0, spring_k=30.0, target_length=1.0)
    moved = x0.copy()
    inner = np.setdiff1d(np.arange(mesh.vertex_count), mesh.boundary_loop)
    moved[inner] += 0.05
    a, b = relax(mesh, x0, p), relax(mesh, moved, p)
    assert np.array_equal(a.x, b.x) and a.energy == b.energy


def test_relaxed_state_is_stationary_on_the_loop():
    # the twisted state's loop is within the tolerance of the energy relax
    # minimizes, the film on the loop
    res = _cold_rings8_relax()
    mesh, _ = generate_disk_mesh(8, 1.2)
    fb, g = energy_and_gradient(mesh, res.x, res.params)
    assert res.converged and res.energy == fb
    assert np.abs(g).max() <= MinimizeOptions().gradient_tolerance * 901.0


@pytest.mark.parametrize("rings", [4, 8, 16])
def test_relax_energy_is_the_full_mesh_energy(rings):
    # the loop energy relax minimized and reports is the full mesh's at the
    # extension it returns
    mesh, x0 = _kicked_disk(rings)
    p = EnergyParams(alpha=1.0, spring_k=900.0, target_length=1.0)
    res = relax(mesh, x0, p, MinimizeOptions(max_iterations=60000))
    assert res.converged
    assert res.energy == energy(mesh, res.x, res.params)


@pytest.mark.parametrize("case", ["no_interior_vertex", "no_springs"])
def test_relax_without_interior_vertices_or_springs(case):
    # both go through the one loop-film path
    if case == "no_interior_vertex":
        mesh, x0 = polygon_mesh(24)
        k = 3.0
    else:
        mesh, x0 = generate_disk_mesh(4)
        k = 0.0
    x0 = perturb(scale_to_boundary_length(mesh, x0, 1.0), KICK_AMPLITUDE, 0)
    p = EnergyParams(alpha=1.0, spring_k=k, target_length=1.0)
    res = relax(mesh, x0, p, MinimizeOptions(max_iterations=20000))
    fb, g = energy_and_gradient(mesh, res.x, res.params)
    assert res.converged and res.length_error < LENGTH_TOL
    assert np.abs(g).max() <= MinimizeOptions().gradient_tolerance * (k + 1.0)
    assert res.energy == fb


def _cold_rings8_relax(**kwargs):
    """The cold rings-8, kL^3/alpha = 900, seed-0 relax into the twist."""
    mesh, x0 = generate_disk_mesh(8, 1.2)
    x0 = perturb(scale_to_boundary_length(mesh, x0, 1.0), KICK_AMPLITUDE, 0)
    p = EnergyParams(alpha=1.0, spring_k=900.0, target_length=1.0)
    return relax(mesh, x0, p, **kwargs)


def test_cold_relax_holds_length_without_escalation():
    # the multiplier update alone brings a cold twisted solve inside
    # LENGTH_TOL: the penalty stiffness stays at its starting value
    res = _cold_rings8_relax(opts=MinimizeOptions(max_iterations=60000))
    assert res.converged
    assert res.length_error < LENGTH_TOL
    assert res.params.length_penalty_k == 100.0 * (900.0 + 1.0)
    assert res.penalty_rounds == 1 or res.params.length_multiplier != 0.0


@pytest.mark.parametrize("kl3a", [100.0, 400.0])
def test_relaxed_disk_line_tension_matches_continuum(kl3a):
    # the flat disk's boundary multiplier, read off the length terms, is the
    # continuum disk's at film tension 2 sqrt(3) k: the loop film's tension
    # (the lattice's own), not the SIGMA_PER_SPRING_K convention.  It is off
    # by 0.44 % at k = 100 and 0.05 % at k = 400
    mesh, x0 = generate_disk_mesh(16)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)
    p = EnergyParams(alpha=1.0, spring_k=kl3a, target_length=1.0)
    res = relax(mesh, x0, p, MinimizeOptions(max_iterations=20000))
    assert res.converged
    beta = disk_solution(1.0, 2.0 * np.sqrt(3.0) * kl3a, 1.0).beta
    assert abs(res.line_tension / beta - 1.0) < 0.03


def test_relax_warm_multiplier_reaches_length_in_one_round():
    # starting from the multiplier a converged solve ended with, the same
    # solve meets LENGTH_TOL in its first round
    mesh, x0 = generate_disk_mesh(6)
    x0 = perturb(scale_to_boundary_length(mesh, x0, 1.0), KICK_AMPLITUDE, 0)
    p = EnergyParams(alpha=1.0, spring_k=200.0, target_length=1.0)
    opts = MinimizeOptions(max_iterations=20000)
    cold = relax(mesh, x0, p, opts)
    assert cold.penalty_rounds >= 2
    lam = cold.params.length_multiplier
    warm = relax(mesh, x0, EnergyParams(alpha=1.0, spring_k=200.0,
                                        target_length=1.0,
                                        length_multiplier=lam), opts)
    assert warm.penalty_rounds == 1 and warm.converged
    assert warm.length_error < LENGTH_TOL
    assert warm.params.length_multiplier == lam


def _stalling_search(monkeypatch, calls_before_stall):
    """Make the Wolfe search give up for good after a number of calls."""
    search = optimize._wolfe_search
    calls = [0]

    def stalling(*args, **kwargs):
        calls[0] += 1
        return None if calls[0] > calls_before_stall else search(*args,
                                                                 **kwargs)

    monkeypatch.setattr(optimize, "_wolfe_search", stalling)


def _stall_problem():
    mesh, x0 = generate_disk_mesh(4)
    x0 = perturb(scale_to_boundary_length(mesh, x0, 1.0), KICK_AMPLITUDE, 0)
    p = EnergyParams(alpha=1.0, spring_k=30.0, target_length=1.0,
                     length_penalty_k=3100.0, edge_penalty_k=3100.0)
    gtol = MinimizeOptions().gradient_tolerance * (30.0 + 1.0)   # L = 1
    return mesh, x0, p, gtol


def _assert_cold_rings8_outcome(res, stall_after):
    if stall_after is None:
        assert res.penalty_rounds == 2 and res.converged
    else:
        # a round whose search stalls on an empty memory ends the relax
        assert res.status == "line_search_failed" and not res.converged
        assert res.iterations == stall_after and res.penalty_rounds == 1


@pytest.mark.parametrize("stall_after", [None, 100])
def test_relax_writes_one_log_across_rounds(monkeypatch, stall_after):
    # a cold rings-8 relax at kL^3/alpha = 900 takes 2 penalty rounds and
    # 132 Wolfe searches, 117 in the first round; with the search stalled
    # after 100 calls the first round's search stalls on an empty memory
    # after its 100 steps, and the relax ends there
    if stall_after is not None:
        _stalling_search(monkeypatch, stall_after)
    stream = io.StringIO()
    res = _cold_rings8_relax(log_stream=stream)
    _assert_cold_rings8_outcome(res, stall_after)
    lines = stream.getvalue().strip().split("\n")
    assert lines[0] == optimize._LOG_HEADER.strip()
    assert sum(line.startswith("iteration") for line in lines) == 1
    its = np.array([int(line.split(",")[0]) for line in lines[1:]])
    assert its[0] == 0 and its[-1] == res.iterations
    assert np.all(np.diff(its) > 0)


@pytest.mark.parametrize("stall_after", [None, 100])
def test_function_evals_counts_every_energy_call(monkeypatch, stall_after):
    # summed over every penalty round, stalled ones included, the count
    # equals the calls a wrapper sees
    if stall_after is not None:
        _stalling_search(monkeypatch, stall_after)
    calls = [0]
    eg = optimize.energy_and_gradient

    def counted(*args):
        calls[0] += 1
        return eg(*args)

    monkeypatch.setattr(optimize, "energy_and_gradient", counted)
    res = _cold_rings8_relax()
    _assert_cold_rings8_outcome(res, stall_after)
    assert res.function_evals == calls[0]
    mesh, _ = generate_disk_mesh(8, 1.2)
    assert res.energy == energy(mesh, res.x, res.params)


def test_cold_relax_evaluation_budget():
    # L-BFGS directions take the unit step almost always: 159 evaluations
    # over 132 iterations at seed 0, where Polak-Ribiere CG took 2,099 over
    # 726
    res = _cold_rings8_relax(opts=MinimizeOptions(max_iterations=60000))
    assert res.converged
    assert res.function_evals <= 1.5 * res.iterations
    assert res.function_evals < 1000


def test_minimize_forced_stall_returns_stalled_iterate(monkeypatch):
    # the first penalty round stalls after 5 steps, and the relax ends there
    # with the round's own parameters
    mesh, x0, p, gtol = _stall_problem()
    _stalling_search(monkeypatch, 5)
    res = relax(mesh, x0, p)
    _, g = energy_and_gradient(mesh, res.x, res.params)
    assert res.status == "line_search_failed" and not res.converged
    assert res.iterations == 5 and res.penalty_rounds == 1
    assert res.params == p
    assert np.abs(g).max() > gtol
    # the stalled iterate comes back with the breakdown from its acceptance
    assert res.energy == energy(mesh, res.x, res.params)


def test_precondition_off_reaches_same_minimum():
    # unpreconditioned L-BFGS on the loop energy of relax's last round, from
    # the same start and to the same scaled tolerance, reaches the
    # preconditioned minimum
    mesh, x0 = generate_disk_mesh(4)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)
    p = EnergyParams(alpha=1.0, spring_k=20.0, target_length=1.0)
    opts = MinimizeOptions(max_iterations=40000)
    on = relax(mesh, x0, p, opts)
    loop_mesh = mesh.loop_film()[0]

    def fun(x):
        fb, g = energy_and_gradient(loop_mesh, x, on.params)
        return fb.total, g

    gtol = opts.gradient_tolerance * (p.spring_k + p.alpha)   # L = 1
    _, f_off, _, _, status = minimize_function(
        fun, x0[mesh.boundary_loop], opts, gtol, minv=None)
    assert on.converged and status == "converged"
    assert np.isclose(on.energy.total, f_off, rtol=1e-7)


def test_wolfe_debug_assertions_hold(monkeypatch):
    # every step the line search hands back during a relaxation satisfies
    # the strong-Wolfe conditions it was asked for
    search = optimize._wolfe_search
    accepted = []

    c1, c2 = optimize.WOLFE_C1, optimize.WOLFE_C2

    def checked(fun, x, d, f0, dphi0, a0, ddot):
        ls = search(fun, x, d, f0, dphi0, a0, ddot)
        if ls is not None:
            a, _, f_new, _, dphi_a = ls
            assert f_new <= f0 + c1 * a * dphi0 + 1e-12 * abs(f0), \
                "sufficient decrease violated"
            assert abs(dphi_a) <= -c2 * dphi0 + 1e-12 * abs(dphi0), \
                "curvature condition violated"
            accepted.append(a)
        return ls

    monkeypatch.setattr(optimize, "_wolfe_search", checked)
    mesh, x0 = generate_disk_mesh(3)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)
    p = EnergyParams(alpha=1.0, spring_k=10.0, target_length=1.0,
                     length_penalty_k=100.0, edge_penalty_k=100.0)
    res = relax(mesh, x0, p, MinimizeOptions(max_iterations=200))
    assert res.iterations > 0
    assert len(accepted) == res.iterations


def test_relax_finishes_below_wolfe_floor():
    # a tolerance below the energy's rounding is reached by the Wolfe
    # search, whose energy comparisons allow for that rounding
    mesh, x0 = generate_disk_mesh(6)
    x0 = scale_to_boundary_length(mesh, x0, 1.0)
    p = EnergyParams(alpha=1.0, spring_k=50.0, target_length=1.0)
    x0 = perturb(x0, KICK_AMPLITUDE, 0)
    opts = MinimizeOptions(max_iterations=20000, gradient_tolerance=1e-11)
    res = relax(mesh, x0, p, opts)
    _, g = energy_and_gradient(mesh, res.x, res.params)
    assert res.status == "converged" and res.converged
    assert np.abs(g).max() <= 1e-11 * (50.0 + 1.0)          # L = 1
    assert planarity(mesh, res.x) < 1e-12


def test_subcritical_relax_never_stalls(monkeypatch):
    # criterion 3's relax, to a tolerance below the energy's rounding:
    # every Wolfe search returns a step
    search = optimize._wolfe_search
    stalls = [0]

    def counted(*args, **kwargs):
        ls = search(*args, **kwargs)
        stalls[0] += ls is None
        return ls

    monkeypatch.setattr(optimize, "_wolfe_search", counted)
    mesh, x0 = generate_disk_mesh(16, 1.2)
    x0 = perturb(scale_to_boundary_length(mesh, x0, 1.0), KICK_AMPLITUDE, 0)
    k = float(kl3a_from_gamma(0.5 * critical_gamma(2)))
    p = EnergyParams(alpha=1.0, spring_k=k, target_length=1.0)
    opts = MinimizeOptions(max_iterations=60000, gradient_tolerance=1e-11)
    res = relax(mesh, x0, p, opts)
    assert res.converged and stalls[0] == 0


def test_finish_budget_round_is_followed_by_the_next(monkeypatch):
    # a cold rings-8 relax of the bare loop (kL^3/alpha = 0) at 1e-9: its
    # first round ends line_search_failed on the FINISH_ITERATIONS budget
    # with the length 15 % off, and the later rounds, whose multiplier and
    # stiffness change the objective, converge
    solve = optimize.minimize_function
    statuses = []

    def recorded(*args, **kwargs):
        out = solve(*args, **kwargs)
        statuses.append(out[4])
        return out

    monkeypatch.setattr(optimize, "minimize_function", recorded)
    mesh, x0 = generate_disk_mesh(8, 1.2)
    x0 = perturb(scale_to_boundary_length(mesh, x0, 1.0), KICK_AMPLITUDE, 0)
    p = EnergyParams(alpha=1.0, spring_k=0.0, target_length=1.0)
    res = relax(mesh, x0, p, MinimizeOptions(gradient_tolerance=1e-9))
    assert statuses[0] == "line_search_failed"
    assert res.converged and res.penalty_rounds == len(statuses) > 1
    assert res.length_error < LENGTH_TOL


def test_unreachable_tolerance_ends_within_finish_budget(monkeypatch):
    # the rings-32 gradient cannot reach 1e-11 (its rounding is above it),
    # so the round that misses ends line_search_failed FINISH_ITERATIONS
    # iterations after its first step that does not lower the energy, far
    # below max_iterations
    solve = optimize.minimize_function
    rounds = []

    def recorded(fun, x0, opts, gtol_abs, callback=None, **kwargs):
        energies = []
        out = solve(fun, x0, opts, gtol_abs, **kwargs,
                    callback=lambda it, x, f, ginf: energies.append(f))
        rounds.append((np.array(energies), out[3], out[4]))
        return out

    monkeypatch.setattr(optimize, "minimize_function", recorded)
    mesh, x0 = generate_disk_mesh(32, 1.2)
    x0 = perturb(scale_to_boundary_length(mesh, x0, 1.0), KICK_AMPLITUDE, 0)
    p = EnergyParams(alpha=1.0, spring_k=50.0, target_length=1.0)
    opts = MinimizeOptions(max_iterations=60000, gradient_tolerance=1e-11)
    res = relax(mesh, x0, p, opts)
    assert res.status == "line_search_failed"
    failed = [(f, it) for f, it, status in rounds
              if status == "line_search_failed"]
    assert failed
    for f, it in failed:
        risen = np.flatnonzero(np.diff(f) >= 0.0)
        assert risen.size
        assert it == 1 + risen[0] + FINISH_ITERATIONS
