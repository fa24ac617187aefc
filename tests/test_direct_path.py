"""The fast solver paths against a plain direct march.

The plain march below is the straightforward scheme: at every step it
assembles the operators from COO triplets, factorizes with SuperLU's
default options and solves.  The library caches operator patterns,
factorizations and band layouts, factorizes the blocks on the mesh's
pattern by band Cholesky on a reverse Cuthill-McKee ordering (SuperLU's
symmetric mode when a block is not positive definite), condenses marches
with a time-dependent inhomogeneity onto the unknowns their inclusions
reach, factorizing a window's blocks in SuperLU's symmetric mode, and
solves steps with no conductivity component by preconditioned CG; none of
that may move a result by more than ``RTOL`` (relative L2 over all time
nodes).
"""

import ctypes
import dataclasses
import gc
import math
import os
import sys
import threading
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

from heatprobe import fem
from heatprobe import mesh as hm
from heatprobe import scenario, synth

RTOL = 1e-10
SCENARIOS = ["ex1", "ex2", "ex3", "ex4", "ex5", "null", "mixed"]
LOCAL_MASS = (np.ones((3, 3)) + np.eye(3)) / 12.0


# -- the plain march ---------------------------------------------------------

def plain_matrix(mesh, cell_blocks):
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    n = mesh.num_vertices
    mat = sparse.csr_array((cell_blocks.ravel(), (rows, cols)), shape=(n, n))
    mat.sum_duplicates()
    return mat


def plain_operator(mesh, coeff, weight):
    g = mesh.basis_gradients
    stiff = (coeff * mesh.cell_areas)[:, None, None] * np.einsum(
        "tid,tjd->tij", g, g)
    react = (weight * mesh.cell_areas)[:, None, None] * LOCAL_MASS
    return plain_matrix(mesh, stiff) + plain_matrix(mesh, react)


def plain_cell_load(mesh, values):
    load = np.zeros(mesh.num_vertices)
    for c in range(3):
        np.add.at(load, mesh.triangles[:, c], values * mesh.cell_areas / 3.0)
    return load


def plain_neumann_load(mesh, flux):
    gi = np.asarray(flux, dtype=float)
    gj = np.roll(gi, -1)
    lens = mesh.boundary_edge_lengths / 6.0
    loop = mesh.boundary_vertices
    load = np.zeros(mesh.num_vertices)
    np.add.at(load, loop, lens * (2.0 * gi + gj))
    np.add.at(load, np.roll(loop, -1), lens * (gi + 2.0 * gj))
    return load


def plain_source_load(mesh, grid, f, g):
    """The load at the half-step node j, as ``fem.source_load`` gives it."""
    def load(j):
        t = grid.times()[j // 2] + 0.5 * grid.dt * (j % 2)
        out = np.zeros(mesh.num_vertices)
        if f is not None:
            out += plain_cell_load(mesh, f(t))
        if g is not None:
            out += plain_neumann_load(mesh, g(t))
        return out
    return load


def plain_split(u_fine, ops):
    coeff = np.ones(u_fine.shape[1])
    react = np.zeros(u_fine.shape[1])
    lagged = []
    for op in ops:
        comp = u_fine[op.component]
        if op.kind == fem.CONDUCTIVITY:
            coeff = coeff + comp
        elif op.kind == fem.POTENTIAL:
            react = react + comp
        else:
            lagged.append((comp, op.power))
    return coeff, react, lagged


def plain_lagged(mesh, lagged, y):
    ybar = y[mesh.triangles].mean(axis=1)
    w = np.zeros(mesh.num_cells)
    for comp, power in lagged:
        w += comp * np.abs(ybar) ** (power - 2.0)
    return w


def plain_fine(u):
    arr = np.asarray(u, dtype=float)
    return arr[None, :] if arr.ndim == 1 else arr


def plain_step(mesh, mass, k_mat, dt, y, load_half, load_full, startup):
    """One Crank-Nicolson step (two backward-Euler halves when starting)."""
    lu = splu((mass / dt + 0.5 * k_mat).tocsc())
    if startup:
        y_half = lu.solve(0.5 * ((2.0 / dt) * (mass @ y) + load_half))
        return lu.solve(0.5 * ((2.0 / dt) * (mass @ y_half) + load_full))
    return lu.solve((mass / dt - 0.5 * k_mat) @ y + load_half)


def plain_forward(mesh, grid, u, ops, load, init, picard_sweeps=0,
                  rows=None, rannacher=True):
    n_comp = len(ops)
    if u is None:
        u_at = lambda t: np.zeros((n_comp, mesh.num_cells))  # noqa: E731
    elif callable(u):
        u_at = lambda t: plain_fine(u(t))  # noqa: E731
    else:
        u_fixed = plain_fine(u)
        u_at = lambda t: u_fixed  # noqa: E731
    mass = plain_matrix(mesh, mesh.cell_areas[:, None, None] * LOCAL_MASS)
    dt, times = grid.dt, grid.times()
    values = [np.asarray(init, dtype=float)]
    for k in range(grid.steps):
        t_mid = times[k] + 0.5 * dt
        startup = rannacher and k == 0
        loads = (load(2 * k + 1), load(2) if startup else None)
        coeff, react, lagged = plain_split(u_at(t_mid), ops)
        y_prev = values[-1]

        def advance(weight):
            return plain_step(mesh, mass, plain_operator(mesh, coeff, weight),
                              dt, y_prev, *loads, startup)

        y_new = advance(react + plain_lagged(mesh, lagged, y_prev))
        for _ in range(picard_sweeps if lagged else 0):
            y_next = advance(react + plain_lagged(
                mesh, lagged, 0.5 * (y_prev + y_new)))
            done = np.linalg.norm(y_next - y_new) <= 1e-8 * max(
                np.linalg.norm(y_new), 1e-30)
            y_new = y_next
            if done:
                break
        values.append(y_new)
    values = np.array(values)
    return fem.Trajectory(grid, values if rows is None else values[:, rows])


def plain_dirichlet(mesh, grid, u, ops, load, trace_values, init):
    u_at = (lambda t: plain_fine(u(t))) if callable(u) \
        else (lambda t: plain_fine(u))
    mass = plain_matrix(mesh, mesh.cell_areas[:, None, None] * LOCAL_MASS)
    dt, times = grid.dt, grid.times()
    bnd = mesh.boundary_vertices
    interior = np.setdiff1d(np.arange(mesh.num_vertices), bnd)
    values = [np.asarray(init, dtype=float)]
    for k in range(grid.steps):
        coeff, react, lagged = plain_split(u_at(times[k] + 0.5 * dt), ops)
        y_prev = values[-1]
        k_mat = plain_operator(mesh, coeff,
                               react + plain_lagged(mesh, lagged, y_prev))
        s_plus = (mass / dt + 0.5 * k_mat).tocsr()
        s_ii = s_plus[interior][:, interior].tocsc()
        s_ib = s_plus[interior][:, bnd]
        lu = splu(s_ii)

        def pinned(rhs_int, trace):
            y = np.empty(mesh.num_vertices)
            y[bnd] = trace
            y[interior] = lu.solve(rhs_int - s_ib @ trace)
            return y

        if k == 0:
            half = 0.5 * (trace_values[0] + trace_values[1])
            rhs = (2.0 / dt) * (mass @ y_prev) + load(1)
            y_half = pinned(0.5 * rhs[interior], half)
            rhs = (2.0 / dt) * (mass @ y_half) + load(2)
            values.append(pinned(0.5 * rhs[interior], trace_values[1]))
            continue
        rhs = (mass / dt - 0.5 * k_mat) @ y_prev + load(2 * k + 1)
        values.append(pinned(rhs[interior], trace_values[k + 1]))
    return np.array(values)


def plain_adjoint(mesh, grid, flux_values):
    rev = np.asarray(flux_values, dtype=float)[::-1]
    mass = plain_matrix(mesh, mesh.cell_areas[:, None, None] * LOCAL_MASS)
    k_mat = plain_operator(mesh, np.ones(mesh.num_cells),
                           np.zeros(mesh.num_cells))
    z = [np.zeros(mesh.num_vertices)]
    for k in range(grid.steps):
        load_half = plain_neumann_load(mesh, 0.5 * (rev[k] + rev[k + 1]))
        load_full = plain_neumann_load(mesh, rev[1]) if k == 0 else None
        z.append(plain_step(mesh, mass, k_mat, grid.dt, z[-1], load_half,
                            load_full, k == 0))
    return np.array(z[::-1])


def rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


# -- fixtures ----------------------------------------------------------------

@pytest.fixture
def no_threads():
    """The marches of the test start no thread."""
    threads_before = set(threading.enumerate())
    yield
    assert set(threading.enumerate()) <= threads_before


def make_scenario(name):
    if name == "mixed":
        # ex2's inclusions, the potential one raised to a power law: a
        # conductivity with a lagged power weight
        return dataclasses.replace(scenario.builtin("ex2"), name="mixed", ops=(
            fem.InhomogeneityOp(fem.CONDUCTIVITY, 0),
            fem.InhomogeneityOp(fem.POWER_POTENTIAL, 1, power=3.0)))
    return scenario.null_scenario() if name == "null" \
        else scenario.builtin(name)


# -- agreement with the plain march ----------------------------------------

@pytest.mark.parametrize("name", SCENARIOS)
def test_generate_reference_matches_plain_march(name, no_threads,
                                                small_coarse, monkeypatch):
    scn = make_scenario(name)
    calls = counted_splu(monkeypatch)
    fast = synth.generate_reference(scn, small_coarse,
                                    reference_triangles=3000, horizon=0.2)
    # steps x (1 + picard_sweeps), and one S_OO for the window
    assert len(calls) <= 20 * 2 + 1
    monkeypatch.setattr(fem, "forward_solve", plain_forward)
    monkeypatch.setattr(fem, "source_load", plain_source_load)
    plain = synth.generate_reference(scn, small_coarse,
                                     reference_triangles=3000, horizon=0.2)
    assert rel(fast.values, plain.values) <= RTOL


@pytest.mark.parametrize("name", SCENARIOS)
def test_marches_match_plain_march(name, no_threads, small_fine,
                                   small_coarse, small_transfer, monkeypatch):
    scn = make_scenario(name)
    mesh = small_fine
    grid = fem.segment_grid(0.25, 0.5, 0.0125)
    f_fn, g_fn, h = scenario.samplers(mesh)
    init = h + 0.1 * mesh.vertices[:, 0]

    def truth(t):
        return scenario.eval_truth(scn, t, mesh)

    u_est = hm.prolong(hm.restrict(truth(0.4), small_transfer),
                       small_transfer)
    calls = counted_splu(monkeypatch)
    for u, picard in ((truth, 1), (None, 1), (u_est, 0)):
        calls.clear()
        fast = fem.forward_solve(mesh, grid, u, scn.ops, fem.source_load(
            mesh, grid, f_fn, g_fn), init, picard_sweeps=picard).values
        # a sampler's march also factorizes each window's S_OO
        windows = math.ceil(grid.steps / fem.CONDENSE_STEPS) if callable(u) \
            else 0
        assert len(calls) <= grid.steps * (1 + picard) + windows
        plain = plain_forward(mesh, grid, u, scn.ops, plain_source_load(
            mesh, grid, f_fn, g_fn), init, picard_sweeps=picard).values
        assert rel(fast, plain) <= RTOL

    trace = plain[:, mesh.boundary_vertices]
    calls.clear()
    fast = fem.dirichlet_solve(mesh, grid, u_est, scn.ops, fem.source_load(
        mesh, grid, f_fn, None), trace, init).values
    assert len(calls) <= grid.steps
    plain = plain_dirichlet(mesh, grid, u_est, scn.ops, plain_source_load(
        mesh, grid, f_fn, None), trace, init)
    assert rel(fast, plain) <= RTOL

    fast = fem.backward_adjoint_solve(mesh, grid, trace).values
    assert rel(fast, plain_adjoint(mesh, grid, trace)) <= RTOL


# -- what the fast paths promise beyond the tolerance ------------------------

def counted_splu(monkeypatch):
    """Record every factorization made through ``fem._factorize``, band
    Cholesky or SuperLU."""
    calls = []
    original = fem._factorize

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(fem, "_factorize", counting)
    return calls


def test_zero_power_march_is_static_and_bitwise_dynamic(small_fine,
                                                        monkeypatch):
    """ex3's background march (u=None) factorizes at most once, and its
    trajectory is the one the per-step march with the same zero power
    component gives."""
    scn = scenario.builtin("ex3")
    f_fn, g_fn, h = scenario.samplers(small_fine)
    grid = fem.segment_grid(0.0, 0.1, 0.0125)
    load = fem.source_load(small_fine, grid, f_fn, g_fn)
    zero = np.zeros((1, small_fine.num_cells))
    calls = counted_splu(monkeypatch)
    static = fem.forward_solve(small_fine, grid, None, scn.ops, load, h,
                               picard_sweeps=1).values
    assert len(calls) <= 1
    calls.clear()
    dynamic = fem.forward_solve(small_fine, grid, lambda t: zero, scn.ops,
                                load, h, picard_sweeps=1).values
    assert len(calls) == 0
    assert np.array_equal(static, dynamic)


def test_unperturbed_factorization_is_held_per_dt(monkeypatch):
    """Background and adjoint marches share one factorization across
    segments of equal dt, a new dt gets a new one, and none is left once
    the mesh is gone.  The mesh's cache holds the state of one dt, and the
    band layout of the block they factorize, built once for every dt."""
    mesh = hm.build_disk_mesh(1000)
    scn = scenario.builtin("ex1")
    f_fn, g_fn, h = scenario.samplers(mesh)
    calls = counted_splu(monkeypatch)
    layouts = []
    original = fem._BandLayout
    monkeypatch.setattr(fem, "_BandLayout", lambda labels: layouts.append(
        original(labels)) or layouts[-1])

    def segment(t_start, dt):
        grid = fem.segment_grid(t_start, t_start + 0.25, dt)
        flux = np.ones((grid.num_times, mesh.num_boundary_vertices))
        bg = fem.forward_solve(mesh, grid, None, scn.ops, fem.source_load(
            mesh, grid, f_fn, g_fn), h)
        z = fem.backward_adjoint_solve(mesh, grid, flux)
        assert rel(bg.values, plain_forward(mesh, grid, None, scn.ops,
                                            plain_source_load(
                                                mesh, grid, f_fn, g_fn),
                                            h).values) <= RTOL
        assert rel(z.values, plain_adjoint(mesh, grid, flux)) <= RTOL

    segment(0.0, 0.0125)
    segment(0.25, 0.0125)                       # same dt, a new segment
    assert len(calls) == 1
    segment(0.5, 0.01)
    assert len(calls) == 2
    cache = fem._operators(mesh)
    dt, _, _, held = cache.unperturbed
    assert (dt, list(held)) == (0.01, [False])
    assert isinstance(held[False][0], fem._BandCholesky)
    assert len(layouts) == 1 and list(cache.labels) == [False]
    assert cache.labels[False][2] is layouts[0]
    cache, layout = weakref.ref(cache), weakref.ref(layouts.pop())
    del mesh
    gc.collect()
    assert cache() is None and layout() is None


# -- one way to build a step --------------------------------------------------

def estimate(name, mesh, transfer):
    """A coarse estimate of the scenario's truth at t = 0.4, prolonged."""
    scn = make_scenario(name)
    return hm.prolong(hm.restrict(scenario.eval_truth(scn, 0.4, mesh),
                                  transfer), transfer)


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex4"])
def test_static_march_factorizes_once(name, small_fine, small_transfer,
                                      monkeypatch):
    """A march with a constant estimate factorizes its step matrix once,
    Neumann and Dirichlet, also with a potential only: it does not go to
    CG on the held unperturbed factorization."""
    mesh, scn = small_fine, make_scenario(name)
    grid = fem.segment_grid(0.25, 0.5, 0.0125)
    f_fn, g_fn, h = scenario.samplers(mesh)
    trace = np.ones((grid.num_times, mesh.num_boundary_vertices))

    def marches(u):
        yield fem.forward_solve(mesh, grid, u, scn.ops, fem.source_load(
            mesh, grid, f_fn, g_fn), h)
        yield fem.dirichlet_solve(mesh, grid, u, scn.ops, fem.source_load(
            mesh, grid, f_fn, None), trace, h)

    for _ in marches(None):         # hold the unperturbed systems
        pass
    calls = counted_splu(monkeypatch)
    for _ in marches(estimate(name, mesh, small_transfer)):
        assert len(calls) == 1, name
        calls.clear()


@pytest.mark.parametrize("pinned", [False, True], ids=["whole", "interior"])
@pytest.mark.parametrize("name, kind", [("ex3", "reaction"),
                                        ("mixed", "mixed"),
                                        ("ex1", "static")])
def test_step_is_the_matrix_of_every_cell(name, kind, pinned, small_fine,
                                          small_transfer, monkeypatch):
    """A reaction-only step lagged at y, a mixed lagged step and a static
    step add their perturbed cells' change to the unperturbed operator: the
    matrix each solves (the mixed step, a sampler's, its Schur complement
    on its window), S- y and the pinned coupling are those assembled from
    every cell."""
    mesh, dt = small_fine, 0.0125
    scn = make_scenario(name)
    grid = fem.SegmentGrid(dt, 20, 4)
    t = grid.first * dt + 0.5 * dt
    u = (lambda s: scenario.eval_truth(scn, s, mesh)) if kind == "mixed" \
        else estimate(name, mesh, small_transfer)
    factorized = []
    original = fem._factorize
    monkeypatch.setattr(fem, "_factorize", lambda a, layout=None:
                        factorized.append(a) or original(a, layout))
    systems, lagged = fem._step_systems(mesh, grid, u, scn.ops, pinned)
    assert lagged == (kind != "static")
    y = 1.0 + mesh.vertices[:, 0] * mesh.vertices[:, 1]
    solver, coupling, s_minus = next(systems)(y)
    a = solver.a if kind == "reaction" else factorized[-1]
    assert isinstance(solver, fem._Pcg) == (kind == "reaction")
    assert isinstance(solver, fem._Condensed) == (kind == "mixed")

    coeff, react, powers = plain_split(plain_fine(u(t) if callable(u) else u),
                                       scn.ops)
    assert bool(powers) == (kind != "static")
    s_plus, s_minus_whole = step_matrices(
        mesh, coeff, react + plain_lagged(mesh, powers, y), dt)
    assert rel(s_minus @ y, s_minus_whole @ y) <= 1e-13
    bnd = mesh.boundary_vertices
    free = np.setdiff1d(np.arange(mesh.num_vertices), bnd) if pinned \
        else np.arange(mesh.num_vertices)
    solved = s_plus[np.ix_(free, free)]
    if kind == "mixed":
        window = solver.window
        solved = solved[np.ix_(window.inner, window.inner)] \
            - dense_ring_block(solved, window)
    assert rel(a.toarray(), solved) <= 1e-13
    if pinned:
        assert rel(coupling.toarray(), s_plus[np.ix_(free, bnd)]) <= 1e-13
    else:
        assert coupling is None


# -- preconditioned CG on the unperturbed factorization ----------------------

def reaction_marches(mesh, transfer):
    """The marches that ``fem._Pcg`` solves, as (label, march, plain march):
    the ex3 reference (a sampler and Picard sweeps), forward and Dirichlet
    marches (a coarse estimate, prolonged) and the ex4 reference (time
    only).  Each march builds its own grid."""
    ex3, ex4 = scenario.builtin("ex3"), scenario.builtin("ex4")
    f_fn, g_fn, h = scenario.samplers(mesh)
    u_est = hm.prolong(hm.restrict(scenario.eval_truth(ex3, 0.4, mesh),
                                   transfer), transfer)
    trace = np.ones((21, mesh.num_boundary_vertices))

    def grid():
        return fem.segment_grid(0.25, 0.5, 0.0125)

    def reference(scn, solve, source):
        fs, gs, hs = scenario.samplers(mesh)
        return lambda: solve(
            mesh, grid(), lambda t: scenario.eval_truth(scn, t, mesh),
            scn.ops, source(mesh, grid(), fs, gs), hs,
            picard_sweeps=1).values

    def forward(solve, source):
        return lambda: solve(mesh, grid(), u_est, ex3.ops,
                             source(mesh, grid(), f_fn, g_fn), h).values

    return [
        ("ex3 reference", reference(ex3, fem.forward_solve, fem.source_load),
         reference(ex3, plain_forward, plain_source_load)),
        ("ex3 forward", forward(fem.forward_solve, fem.source_load),
         forward(plain_forward, plain_source_load)),
        ("ex3 dirichlet",
         lambda: fem.dirichlet_solve(
             mesh, grid(), u_est, ex3.ops,
             fem.source_load(mesh, grid(), f_fn, None), trace, h).values,
         lambda: plain_dirichlet(
             mesh, grid(), u_est, ex3.ops,
             plain_source_load(mesh, grid(), f_fn, None), trace, h)),
        ("ex4 reference", reference(ex4, fem.forward_solve, fem.source_load),
         reference(ex4, plain_forward, plain_source_load)),
    ]


def test_reaction_marches_factorize_once(small_fine, small_transfer,
                                         monkeypatch):
    """A march with a fixed estimate factorizes only the unperturbed
    operator (or its interior block), never a step's.  A reference march
    (20 steps, one window) factorizes two matrices a window: its S_OO and
    its unperturbed Schur complement.  CG never falls back."""
    fallbacks = fem._Pcg.fallbacks
    calls = counted_splu(monkeypatch)
    for label, march, _ in reaction_marches(small_fine, small_transfer):
        calls.clear()
        march()
        if label.endswith("reference"):
            assert len(calls) == 2, label
        else:
            assert len(calls) <= 1, label
    assert fem._Pcg.fallbacks == fallbacks


def test_pcg_fallback_solves_directly(small_fine, small_transfer,
                                      monkeypatch):
    """With no CG step allowed every solve falls back to a factorization
    of its step matrix, which gives the direct result."""
    monkeypatch.setattr(fem, "PCG_MAX_ITERATIONS", 0)
    for label, march, plain in reaction_marches(small_fine, small_transfer):
        fallbacks = fem._Pcg.fallbacks
        assert rel(march(), plain()) <= RTOL, label
        assert fem._Pcg.fallbacks > fallbacks, label


def test_indefinite_static_step_falls_back_to_superlu(small_fine,
                                                       monkeypatch):
    """A strong negative potential makes a static step's S+ indefinite:
    band Cholesky rejects it, so its one factorization is SuperLU's, and
    the Neumann and Dirichlet marches match the plain march."""
    mesh = small_fine
    inside = np.linalg.norm(mesh.centroids - (0.3, 0.2), axis=1) <= 0.2
    potential = np.where(inside, -1000.0, 0.0)[None, :]
    ops = [fem.InhomogeneityOp(fem.POTENTIAL, 0)]
    grid = fem.segment_grid(0.0, 0.05, 0.0125)
    f_fn, g_fn, h = scenario.samplers(mesh)
    calls = counted_splu(monkeypatch)
    superlu = []
    original = fem.splu
    monkeypatch.setattr(fem, "splu", lambda *args, **kwargs:
                        superlu.append(1) or original(*args, **kwargs))
    fast = fem.forward_solve(mesh, grid, potential, ops,
                             fem.source_load(mesh, grid, f_fn, g_fn), h)
    assert len(calls) == len(superlu) == 1
    plain = plain_forward(mesh, grid, potential, ops,
                          plain_source_load(mesh, grid, f_fn, g_fn), h)
    assert rel(fast.values, plain.values) <= RTOL

    trace = plain.values[:, mesh.boundary_vertices]
    fast = fem.dirichlet_solve(mesh, grid, potential, ops, fem.source_load(
        mesh, grid, f_fn, None), trace, h).values
    assert len(calls) == len(superlu) == 2
    plain = plain_dirichlet(mesh, grid, potential, ops, plain_source_load(
        mesh, grid, f_fn, None), trace, h)
    assert rel(fast, plain) <= RTOL


def test_pcg_breakdown_solves_directly(small_fine):
    """A strong negative potential makes the step matrices indefinite: CG
    breaks down (p.Ap <= 0), and each step falls back to a factorization,
    which gives the direct result."""
    mesh = small_fine
    inside = np.linalg.norm(mesh.centroids - (0.3, 0.2), axis=1) <= 0.2
    potential = np.where(inside, -1000.0, 0.0)[None, :]
    ops = [fem.InhomogeneityOp(fem.POTENTIAL, 0)]
    grid = fem.segment_grid(0.0, 0.05, 0.0125)
    f_fn, g_fn, h = scenario.samplers(mesh)
    fallbacks = fem._Pcg.fallbacks
    fast = fem.forward_solve(mesh, grid, lambda t: potential, ops,
                             fem.source_load(mesh, grid, f_fn, g_fn), h)
    assert fem._Pcg.fallbacks == fallbacks + grid.steps
    plain = plain_forward(mesh, grid, lambda t: potential, ops,
                          plain_source_load(mesh, grid, f_fn, g_fn), h)
    assert rel(fast.values, plain.values) <= RTOL


def test_picard_sweeps_sample_each_step_once(small_fine):
    """The ex3 reference march samples the inclusions once per lattice step
    of its windows, at its midpoint (also past the grid's end, see
    ``fem._step_systems``), and reads each half-step node's load once,
    however many Picard sweeps the step runs."""
    scn = scenario.builtin("ex3")
    f_fn, g_fn, h = scenario.samplers(small_fine)
    grid = fem.segment_grid(0.25, 0.5, 0.0125)
    reads, loads = [], []

    def truth(t):
        reads.append(t)
        return scenario.eval_truth(scn, t, small_fine)

    source = fem.source_load(small_fine, grid, f_fn, g_fn)

    def load(j):
        loads.append(j)
        return source(j)

    fem.forward_solve(small_fine, grid, truth, scn.ops, load, h,
                      picard_sweeps=1)
    windows = math.ceil(grid.steps / fem.CONDENSE_STEPS)
    midpoints = (grid.first + np.arange(windows * fem.CONDENSE_STEPS)
                 + 0.5) * grid.dt
    assert np.allclose(reads, midpoints, rtol=0, atol=1e-12)
    # the startup's two half steps, then each later step's midpoint
    assert loads == [1, 2, *range(3, 2 * grid.steps, 2)]


def test_conductivity_reference_factorizes_every_step(small_fine,
                                                      monkeypatch):
    """One factorization per step (its Schur complement) and one per window
    (the block its inclusions do not reach)."""
    scn = scenario.builtin("ex1")
    f_fn, g_fn, h = scenario.samplers(small_fine)
    grid = fem.segment_grid(0.0, 0.3, 0.01)
    calls = counted_splu(monkeypatch)
    fem.forward_solve(small_fine, grid,
                      lambda t: scenario.eval_truth(scn, t, small_fine),
                      scn.ops, fem.source_load(small_fine, grid, f_fn, g_fn),
                      h, picard_sweeps=1)
    windows = math.ceil(grid.steps / fem.CONDENSE_STEPS)
    assert len(calls) == grid.steps + windows


# -- static condensation of time-dependent conductivity marches --------------

@pytest.mark.parametrize("name", ["ex1", "ex2", "ex5", "ex3", "ex4", "mixed"])
def test_condensed_windows_match_plain_march(name, small_fine, monkeypatch):
    """Neumann and Dirichlet marches over three windows, the last one short,
    each condensed on the unknowns its inclusions reach.  With a
    conductivity (ex1, ex2, ex5, and mixed, whose power weight is lagged
    with a Picard sweep) each step and sweep factorizes its Schur
    complement; without (ex3, with a Picard sweep, and ex4) CG solves it on
    the window's unperturbed one, so a window factorizes two matrices and
    CG never falls back.  Each window also factorizes its S_OO."""
    scn = make_scenario(name)
    mesh = small_fine
    grid = fem.SegmentGrid(0.01, 20, 2 * fem.CONDENSE_STEPS + 10)
    f_fn, g_fn, h = scenario.samplers(mesh)

    def truth(t):
        return scenario.eval_truth(scn, t, mesh)

    fallbacks = fem._Pcg.fallbacks
    calls = counted_splu(monkeypatch)
    fast = fem.forward_solve(mesh, grid, truth, scn.ops, fem.source_load(
        mesh, grid, f_fn, g_fn), h, picard_sweeps=1).values
    reaction = name in ("ex3", "ex4")
    sweeps = 2 if name == "mixed" else 1
    assert len(calls) == (2 * 3 if reaction else sweeps * grid.steps + 3)
    plain = plain_forward(mesh, grid, truth, scn.ops, plain_source_load(
        mesh, grid, f_fn, g_fn), h, picard_sweeps=1).values
    assert rel(fast, plain) <= RTOL

    trace = plain[:, mesh.boundary_vertices]
    fast = fem.dirichlet_solve(mesh, grid, truth, scn.ops, fem.source_load(
        mesh, grid, f_fn, None), trace, h).values
    plain = plain_dirichlet(mesh, grid, truth, scn.ops, plain_source_load(
        mesh, grid, f_fn, None), trace, h)
    assert rel(fast, plain) <= RTOL
    assert fem._Pcg.fallbacks == fallbacks


@pytest.mark.parametrize("name", ["ex1", "ex3", "ex4", "mixed"])
def test_condensed_march_is_a_prefix_of_a_longer_one(name, small_fine):
    """A march ending inside a window condenses on the whole window, so its
    steps are bitwise those of a longer march (resuming a run to a longer
    horizon extends its reference march), with a conductivity or without
    (ex3 with a Picard sweep, ex4), and with both (mixed, with a Picard
    sweep)."""
    scn = make_scenario(name)
    f_fn, g_fn, h = scenario.samplers(small_fine)

    def march(steps):
        grid = fem.SegmentGrid(0.01, 0, steps)
        return fem.forward_solve(
            small_fine, grid,
            lambda t: scenario.eval_truth(scn, t, small_fine), scn.ops,
            fem.source_load(small_fine, grid, f_fn, g_fn), h,
            picard_sweeps=1).values

    short = march(fem.CONDENSE_STEPS + 5)
    assert np.array_equal(march(2 * fem.CONDENSE_STEPS)[:len(short)], short)


def test_reaction_on_every_cell_takes_whole_matrix_cg(small_fine,
                                                      monkeypatch):
    """A potential on every cell leaves no unknown to condense: each step
    runs CG on its whole matrix, preconditioned by the held unperturbed
    factorization, and the march matches the plain march."""
    mesh = small_fine
    grid = fem.segment_grid(0.0, 0.3, 0.01)
    ops = [fem.InhomogeneityOp(fem.POTENTIAL, 0)]
    init = np.ones(mesh.num_vertices) + mesh.vertices[:, 0]

    def everywhere(t):
        return np.full(mesh.num_cells, 2.0 + t)

    calls = counted_splu(monkeypatch)
    systems, _ = fem._step_systems(mesh, grid, everywhere, ops, False)
    solver, _, _ = next(systems)(init)
    assert isinstance(solver, fem._Pcg)
    assert solver.a.shape == (mesh.num_vertices,) * 2
    del systems, solver
    fast = fem.forward_solve(mesh, grid, everywhere, ops, fem.source_load(
        mesh, grid, None, None), init).values
    assert len(calls) <= 1
    plain = plain_forward(mesh, grid, everywhere, ops, plain_source_load(
        mesh, grid, None, None), init).values
    assert rel(fast, plain) <= RTOL


# a potential on every cell of a 20000-triangle mesh (10173 vertices): the
# whole-matrix CG's vectors are long enough for BLAS to split a dot product
# over two threads; then a static conductivity march, whose band factor and
# solves are BLAS work on that mesh
WHOLE_MATRIX_CG = """
import hashlib
import numpy as np
from heatprobe import fem, mesh as hm
mesh = hm.build_disk_mesh(20000)
grid = fem.segment_grid(0.0, 0.03, 0.01)
ops = [fem.InhomogeneityOp(fem.POTENTIAL, 0)]
init = np.ones(mesh.num_vertices) + mesh.vertices[:, 0]
def everywhere(t):
    return np.full(mesh.num_cells, 2.0 + t)
systems, _ = fem._step_systems(mesh, grid, everywhere, ops, False)
assert isinstance(next(systems)(init)[0], fem._Pcg)
del systems
y = fem.forward_solve(mesh, grid, everywhere, ops,
                      fem.source_load(mesh, grid, None, None), init)
print(hashlib.sha256(y.values.tobytes()).hexdigest())
ops = [fem.InhomogeneityOp(fem.CONDUCTIVITY, 0)]
u = 0.5 * (np.linalg.norm(mesh.centroids - (0.3, 0.2), axis=1) <= 0.4)
systems, _ = fem._step_systems(mesh, grid, u, ops, False)
assert isinstance(next(systems)(init)[0], fem._BandCholesky)
del systems
y = fem.forward_solve(mesh, grid, u, ops,
                      fem.source_load(mesh, grid, None, None), init)
print(hashlib.sha256(y.values.tobytes()).hexdigest())
"""


def test_whole_matrix_cg_does_not_depend_on_the_blas_threads(run_python):
    """A march that runs CG on the whole matrix, and a static march on a
    band Cholesky factor, give the same bits under one and two BLAS
    threads."""
    one, two = (run_python(WHOLE_MATRIX_CG, OPENBLAS_NUM_THREADS=threads,
                           OMP_NUM_THREADS=threads) for threads in "12")
    assert one == two


def conductivity_march(mesh, grid, u):
    ops = [fem.InhomogeneityOp(fem.CONDUCTIVITY, 0)]
    return fem.forward_solve(mesh, grid, u, ops,
                             fem.source_load(mesh, grid, None, None),
                             np.ones(mesh.num_vertices) + mesh.vertices[:, 0])


def test_condensing_every_cell_factorizes_each_step(small_fine, monkeypatch):
    """With every cell perturbed no unknown is left to condense: each step
    factorizes its whole matrix and no window factorizes."""
    grid = fem.segment_grid(0.0, 0.3, 0.01)

    def everywhere(t):
        return np.full(small_fine.num_cells, 0.5 + t)

    calls = counted_splu(monkeypatch)
    fast = conductivity_march(small_fine, grid, everywhere).values
    assert len(calls) == grid.steps
    ops = [fem.InhomogeneityOp(fem.CONDUCTIVITY, 0)]
    plain = plain_forward(small_fine, grid, everywhere, ops,
                          plain_source_load(small_fine, grid, None, None),
                          np.ones(small_fine.num_vertices)
                          + small_fine.vertices[:, 0]).values
    assert rel(fast, plain) <= RTOL


def test_condensing_no_cell_takes_the_held_factorization(monkeypatch):
    """With no cell perturbed every step is the unperturbed one: the march
    factorizes nothing and gives bitwise the unperturbed march."""
    mesh = hm.build_disk_mesh(1000)
    grid = fem.segment_grid(0.0, 0.3, 0.01)
    held = conductivity_march(mesh, grid, None).values
    calls = counted_splu(monkeypatch)
    zero = conductivity_march(mesh, grid,
                              lambda t: np.zeros(mesh.num_cells)).values
    assert len(calls) == 0
    assert np.array_equal(zero, held)


@pytest.mark.parametrize("bad_step", [4, 30], ids=["first-window",
                                                   "second-window"])
def test_ellipticity_failure_raises(bad_step, small_fine):
    grid = fem.segment_grid(0.0, 0.4, 0.01)
    ops = [fem.InhomogeneityOp(fem.CONDUCTIVITY, 0)]

    def coefficient_drop(t):
        step = int(np.floor((t - grid.t_start) / grid.dt))
        # 1 + u turns nonpositive at the bad step: ellipticity fails
        return np.full(small_fine.num_cells, -1.5 if step == bad_step else 0.0)

    threads_before = set(threading.enumerate())
    with pytest.raises(fem.FemError, match="ellipticity"):
        fem.forward_solve(small_fine, grid, coefficient_drop, ops,
                          fem.source_load(small_fine, grid, None, None),
                          np.ones(small_fine.num_vertices))
    assert set(threading.enumerate()) <= threads_before


def _rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/statm")
def test_condensed_march_memory_is_flat():
    """A window's factorizations are freed before the next window is built;
    a march that kept them would grow by about 4 MB a window."""
    mesh = hm.build_disk_mesh(13870)
    scn = scenario.builtin("ex1")
    f_fn, g_fn, h = scenario.samplers(mesh)

    def march(steps):
        grid = fem.SegmentGrid(0.01, 0, steps)
        fem.forward_solve(mesh, grid,
                          lambda t: scenario.eval_truth(scn, t, mesh),
                          scn.ops, fem.source_load(mesh, grid, f_fn, g_fn), h,
                          rows=mesh.boundary_vertices)

    march(4)                # the operator cache and a first window
    before = _rss_mb()
    march(4 * fem.CONDENSE_STEPS)
    assert _rss_mb() - before < 8.0



def test_march_holds_one_window_at_a_time(small_fine, monkeypatch):
    """No window is alive when the next is built: a march that held on to
    its last step's system (or a loop's result tuple holding it) while it
    asked for the next would keep two windows alive."""
    scn = scenario.builtin("ex1")
    f_fn, g_fn, h = scenario.samplers(small_fine)
    grid = fem.SegmentGrid(0.01, 0, 3 * fem.CONDENSE_STEPS)
    windows, alive = [], []
    original = fem._Window.__init__

    def init(self, *args):
        alive.append(sum(window() is not None for window in windows))
        windows.append(weakref.ref(self))
        original(self, *args)

    monkeypatch.setattr(fem._Window, "__init__", init)
    fem.forward_solve(small_fine, grid,
                      lambda t: scenario.eval_truth(scn, t, small_fine),
                      scn.ops, fem.source_load(small_fine, grid, f_fn, g_fn),
                      h)
    assert alive == [0, 0, 0]


def test_window_death_frees_its_arrays(small_fine):
    """A window's arrays are freed as it dies, its preconditioner made."""
    _, window = ex1_window(small_fine, 20)
    window.precond
    data = weakref.ref(window.schur_data)
    del window
    gc.collect()
    assert data() is None


# Prints how many bytes of blocks in their own mapping (glibc's mallinfo2
# hblkhd) a 2 MiB array adds once an 8 MiB one was freed.
MAPPED_AFTER_A_FREE = """
import ctypes
import numpy as np
import heatprobe.fem

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Mallinfo2
big = np.ones(8 << 17)
del big
before = libc.mallinfo2().hblkhd
block = np.ones(2 << 17)
print(libc.mallinfo2().hblkhd - before)
"""


@pytest.mark.skipif(sys.platform != "linux"
                    or not hasattr(ctypes.CDLL(None), "mallinfo2"),
                    reason="glibc's mallinfo2 reads the heap")
def test_large_blocks_are_mapped_after_a_larger_one_is_freed(run_python):
    """Once ``fem`` is imported, a block of 2 MiB gets its own mapping also
    after one of 8 MiB was freed; glibc's dynamic threshold would have
    risen to 8 MiB and taken it from the heap.  It runs in a fresh
    interpreter: glibc serves a block of any size from a free heap chunk
    that fits before it maps one, and earlier tests leave such chunks."""
    assert int(run_python(MAPPED_AFTER_A_FREE)) >= 2 << 20


# -- what a condensed step assembles -----------------------------------------

def ex1_window(mesh, first, dt=0.01):
    """``(split, window)``: ``split(k)`` of ex1's reference march from
    lattice node ``first``, and the window of its first steps."""
    scn = scenario.builtin("ex1")

    def split(k):
        return plain_split(plain_fine(
            scenario.eval_truth(scn, (first + k + 0.5) * dt, mesh)), scn.ops)

    touched = np.zeros(mesh.num_cells)
    for k in range(fem.CONDENSE_STEPS):
        coeff, _, _ = split(k)
        touched[coeff != 1.0] = 1.0
    changed = fem.assemble_reaction(mesh, touched).diagonal() != 0.0
    plus = fem.assemble_mass(mesh).data / dt + 0.5 * fem.assemble_stiffness(
        mesh, np.ones(mesh.num_cells)).data
    labels, _, _ = fem._labels(mesh, False)
    return split, fem._Window(labels.tocsr(), plus, changed)


def step_matrices(mesh, coeff, react, dt=0.01):
    """Dense S+ and S- of a step, assembled from every cell."""
    mass = plain_matrix(mesh, mesh.cell_areas[:, None, None] * LOCAL_MASS)
    half = 0.5 * plain_operator(mesh, coeff, react)
    return (mass / dt + half).toarray(), (mass / dt - half).toarray()


def dense_ring_block(s_plus, window):
    """X = S_RO S_OO^-1 S_OR of the dense S+, on all of R."""
    s_ro = s_plus[np.ix_(window.inner, window.outer)]
    s_oo = s_plus[np.ix_(window.outer, window.outer)]
    return s_ro @ np.linalg.solve(s_oo, s_ro.T)


def test_window_ring_block_is_the_dense_one(small_fine):
    """The window's X is the dense S_RO S_OO^-1 S_OR."""
    mesh = small_fine
    _, window = ex1_window(mesh, 20)
    s_plus, _ = step_matrices(mesh, np.ones(mesh.num_cells),
                              np.zeros(mesh.num_cells))
    dense = dense_ring_block(s_plus, window)
    ring = np.flatnonzero(np.diff(window.s_ro.indptr))
    assert 0 < ring.size < window.inner.size
    assert np.abs(np.delete(dense, ring, axis=0)).max() == 0.0
    x = window._ring_block(window.s_ro[ring])
    dense = dense[np.ix_(ring, ring)]
    assert np.abs(x - dense).max() <= 1e-12 * np.abs(dense).max()


def test_condensed_step_is_the_whole_matrix_condensed(small_fine,
                                                      monkeypatch):
    """A step adds its perturbed cells' change to the window's unperturbed
    S_RR - X and S-; the Schur complement it factorizes and its S- y are
    those of the step matrix assembled from every cell."""
    mesh, dt = small_fine, 0.01
    split, _ = ex1_window(mesh, 20)
    factorized = []
    original = fem._factorize
    monkeypatch.setattr(fem, "_factorize", lambda a, layout=None:
                        factorized.append(a) or original(a, layout))
    scn = scenario.builtin("ex1")
    systems, lagged = fem._step_systems(
        mesh, fem.SegmentGrid(dt, 20, 1),
        lambda t: scenario.eval_truth(scn, t, mesh), scn.ops, False)
    assert not lagged
    y = 1.0 + mesh.vertices[:, 0] * mesh.vertices[:, 1]
    for k in range(fem.CONDENSE_STEPS):
        solver, coupling, s_minus = next(systems)(y)
        assert coupling is None
        coeff, react, _ = split(k)
        s_plus, s_minus_whole = step_matrices(mesh, coeff, react)
        window = solver.window
        schur = s_plus[np.ix_(window.inner, window.inner)] \
            - dense_ring_block(s_plus, window)
        assert rel(factorized[-1].toarray(), schur) <= 1e-13
        assert rel(s_minus @ y, s_minus_whole @ y) <= 1e-13
    # the window's S_OO, then one Schur complement per step
    assert len(factorized) == 1 + fem.CONDENSE_STEPS


def test_condensed_march_assembles_per_window(small_fine, monkeypatch):
    """A condensed march assembles the whole mesh's operators a few times
    per window, never once per step."""
    scn = scenario.builtin("ex1")
    f_fn, g_fn, h = scenario.samplers(small_fine)
    grid = fem.SegmentGrid(0.01, 0, 3 * fem.CONDENSE_STEPS)
    calls = []
    original = fem._Operators.assemble
    monkeypatch.setattr(fem._Operators, "assemble", lambda self, *args:
                        calls.append(1) or original(self, *args))
    fem.forward_solve(small_fine, grid,
                      lambda t: scenario.eval_truth(scn, t, small_fine),
                      scn.ops, fem.source_load(small_fine, grid, f_fn, g_fn),
                      h)
    assert len(calls) <= 2 * 3


def full_truth(scn, t, mesh):
    """``scenario.eval_truth`` by the centroid-in-disk test on every cell."""
    out = np.zeros((scn.num_components, mesh.num_cells))
    for inc in scn.inclusions:
        r = inc.radius(t)
        if r > 0.0:
            mask = np.linalg.norm(mesh.centroids - np.asarray(inc.center(t)),
                                  axis=1) <= r
            out[inc.component][mask] = inc.contrast(t)
    return out


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "ex5"])
def test_truth_on_nearby_cells_is_the_full_one(name, small_fine):
    """The truth tests only the cells near each inclusion, and gives
    bitwise what the test on every cell gives."""
    scn = scenario.builtin(name)
    for t in np.linspace(0.0, scn.horizon, 50):
        assert np.array_equal(scenario.eval_truth(scn, t, small_fine),
                              full_truth(scn, t, small_fine))
