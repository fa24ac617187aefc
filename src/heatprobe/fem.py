"""P1 finite elements and Crank-Nicolson time stepping on disk meshes.

Covers the forward parabolic problems (Neumann and Dirichlet variants, with
conductivity, potential and power-law potential inhomogeneities) and the
backward dual problem solved with reversed time.  All assembled operators are
exactly symmetric; within a step the nonlinear reaction weight is frozen at
the previous time level so every step is one symmetric sparse solve.
"""

from __future__ import annotations

import collections
import ctypes
import itertools
import weakref
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from scipy import sparse
from scipy.linalg import lapack
from scipy.sparse import csgraph
from scipy.sparse.linalg import splu

from .mesh import Mesh, boundary_vertex_weights

CONDUCTIVITY = "conductivity"
POTENTIAL = "potential"
POWER_POTENTIAL = "power_potential"

_KINDS = (CONDUCTIVITY, POTENTIAL, POWER_POTENTIAL)

# The most steps of any time grid: the largest in use is a horizon-10
# reference at 1000 steps.  A grid past it is refused before its arrays are
# made.
MAX_STEPS = 10**6

# The solver work of this module, counted where it is done: "band" and
# "superlu" factorizations (``_factorize``), "cg" solves and "cg_fallback"s
# to a factorization (``_Pcg``), condensation "window"s (``_Window``) and
# band "layout"s (``_BandLayout``).  A caller reads its difference across a
# call; this module starts no thread, so that difference is the call's work.
tally: collections.Counter[str] = collections.Counter()


class FemError(RuntimeError):
    """Assembly or linear-solve failure."""


@dataclass(frozen=True)
class InhomogeneityOp:
    """How one component of the inhomogeneity enters the equation.

    ``conductivity`` perturbs the diffusion coefficient (1 + u), ``potential``
    adds a zeroth-order term u*y, and ``power_potential`` adds u*|y|^(p-2)*y.
    """

    kind: str
    component: int = 0
    power: float = 2.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown inhomogeneity kind {self.kind!r}")
        if self.kind == POWER_POTENTIAL and self.power < 2.0:
            raise ValueError("power_potential requires power >= 2")


@dataclass(frozen=True)
class SegmentGrid:
    """``steps`` steps of the time lattice of step ``dt``: node i of the grid
    lies at ``(first + i) * dt``.

    A node's time is computed from its lattice index alone, so every grid of
    one lattice gives a node bitwise the same time: a grid's times are a
    bitwise prefix of those of a longer grid from the same node, and the
    segments of a run share bitwise the same ``dt``.  ``segment_grid``
    builds the grid between two times.
    """

    dt: float
    first: int
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("a segment needs at least one step")
        if self.steps > MAX_STEPS:
            raise ValueError(f"a grid of {self.steps:.3g} steps of "
                             f"dt={self.dt} is refused: at most MAX_STEPS "
                             f"= {MAX_STEPS}")
        if not self.dt > 0:
            raise ValueError("the time step must be positive")

    @property
    def t_start(self) -> float:
        return self.first * self.dt

    @property
    def t_end(self) -> float:
        return (self.first + self.steps) * self.dt

    @property
    def num_times(self) -> int:
        return self.steps + 1

    def times(self) -> np.ndarray:
        return np.arange(self.first, self.first + self.steps + 1) * self.dt


def _lattice_index(t: float, dt: float) -> int:
    """The index of the node at time ``t`` of the lattice of step ``dt``."""
    index = round(t / dt)
    if abs(index * dt - t) > 1e-9 * max(abs(t), dt):
        raise ValueError(f"time {t} is not a node of the lattice of "
                         f"dt={dt}")
    return index


def segment_grid(t_start: float, t_end: float, dt: float) -> SegmentGrid:
    """The grid of the lattice of step ``dt`` from t_start to t_end; both
    must be its nodes, so ``dt`` partitions the interval."""
    if not dt > 0:
        raise ValueError("the time step must be positive")
    try:
        first, last = _lattice_index(t_start, dt), _lattice_index(t_end, dt)
    except ValueError:
        raise ValueError(f"dt={dt} does not partition [{t_start}, {t_end}] "
                         f"on its lattice") from None
    return SegmentGrid(dt, first, last - first)


@dataclass
class BoundaryTrace:
    """Values over the boundary vertices at strictly increasing times."""

    times: np.ndarray       # (n,)
    values: np.ndarray      # (n, B)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trace times must be strictly increasing")
        if self.values.shape[0] != self.times.shape[0]:
            raise ValueError("one value row per time instant required")


@dataclass
class Trajectory:
    """One nodal field per time node of a segment grid (or its values at
    the vertices a march was asked to keep)."""

    grid: SegmentGrid
    values: np.ndarray      # (steps + 1, V) or (steps + 1, kept vertices)


class _Operators:
    """Fixed-pattern P1 operators of one mesh, built on first use.

    Every assembled matrix shares one CSR pattern.  ``scatter`` sends the
    nine entries of each cell block (row-major) to their position in the
    data array, so assembling a weighted operator is one ``np.bincount``
    over the constant per-cell blocks.  Loads are products with sparse
    cell->vertex and boundary-vertex->vertex matrices.
    """

    def __init__(self, mesh: Mesh):
        tri = mesh.triangles
        n = mesh.num_vertices
        rows = np.repeat(tri, 3, axis=1).ravel()
        cols = np.tile(tri, (1, 3)).ravel()
        keys, self.scatter = np.unique(rows * n + cols, return_inverse=True)
        self.indices = (keys % n).astype(np.int32)
        self.indptr = np.searchsorted(keys // n, np.arange(n + 1)).astype(
            np.int32)
        # every matrix built here shares these arrays: none may change them
        self.indices.flags.writeable = self.indptr.flags.writeable = False
        self.shape = (n, n)
        areas = mesh.cell_areas
        g = mesh.basis_gradients
        self.stiffness_blocks = areas[:, None] * np.einsum(
            "tid,tjd->tij", g, g).reshape(-1, 9)
        self.mass_blocks = areas[:, None] * _LOCAL_MASS
        cells = np.arange(mesh.num_cells)
        self.cell_load = sparse.csr_array(
            (np.repeat(areas / 3.0, 3), (tri.ravel(), np.repeat(cells, 3))),
            shape=(n, mesh.num_cells))
        # edge i runs from boundary vertex i to i + 1 (cyclically)
        nb = mesh.num_boundary_vertices
        lens = mesh.boundary_edge_lengths / 6.0
        here = np.arange(nb)
        nxt = np.roll(here, -1)
        e0, e1 = mesh.boundary_vertices, mesh.boundary_vertices[nxt]
        self.neumann_load = sparse.csr_array(
            (np.concatenate([2.0 * lens, lens, lens, 2.0 * lens]),
             (np.concatenate([e0, e0, e1, e1]),
              np.concatenate([here, nxt, here, nxt]))), shape=(n, nb))
        self.interior = np.setdiff1d(np.arange(n), mesh.boundary_vertices)
        self.interior.flags.writeable = False
        self.triangles = tri
        self.basis_gradients = g
        self.labels = {}            # {pinned: (labels, coupling)}
        self.layouts = {}           # {pinned: _BandLayout}, see _layout
        self.unperturbed = None     # see _unperturbed
        self.mass = None            # see _mass

    def matrix(self, data: np.ndarray) -> sparse.csr_array:
        """A matrix on the shared pattern."""
        return sparse.csr_array((data, self.indices, self.indptr),
                                shape=self.shape)

    def assemble(self, weights: np.ndarray, blocks: np.ndarray):
        data = np.bincount(self.scatter, (weights[:, None] * blocks).ravel(),
                           minlength=self.indices.size)
        return self.matrix(data)

    @cached_property
    def gradient(self) -> sparse.csr_array:
        """G (2T x V): rows t and T + t take the x and y derivative of a P1
        field on cell t."""
        tri, g = self.triangles, self.basis_gradients
        n_cells = len(tri)
        rows = np.repeat(np.arange(2 * n_cells), 3)
        cols = np.concatenate([tri, tri]).ravel()
        data = np.concatenate([g[:, :, 0], g[:, :, 1]]).ravel()
        return sparse.csr_array((data, (rows, cols)),
                                shape=(2 * n_cells, self.shape[0]))

    @cached_property
    def corner_average(self) -> sparse.csr_array:
        """A (T x V): the mean of a nodal field over each cell's corners."""
        tri = self.triangles
        return sparse.csr_array(
            (np.full(tri.size, 1.0 / 3.0),
             (np.repeat(np.arange(len(tri)), 3), tri.ravel())),
            shape=(len(tri), self.shape[0]))


_LOCAL_MASS = ((np.ones((3, 3)) + np.eye(3)) / 12.0).ravel()

# The heap policy (glibc only): every block of 1 MiB or more gets its own
# mapping, which free hands back to the system at once.  SuperLU reserves
# several times a factor's size; a fixed threshold (glibc's dynamic one rises
# to the largest block freed) keeps those reservations out of the heap, where
# a live factor would keep their pages resident.
_MMAP_THRESHOLD = 1 << 20
try:
    _LIBC = ctypes.CDLL(None)
    _LIBC.gnu_get_libc_version                  # only glibc has it
except (OSError, AttributeError, TypeError):    # not glibc
    pass
else:
    _LIBC.mallopt(-3, _MMAP_THRESHOLD)          # M_MMAP_THRESHOLD


_OPERATORS: dict[int, _Operators] = {}


def _operators(mesh: Mesh) -> _Operators:
    """The mesh's operator cache; it is dropped when the mesh is."""
    cache = _OPERATORS.get(id(mesh))
    if cache is None:
        cache = _OPERATORS[id(mesh)] = _Operators(mesh)
        weakref.finalize(mesh, _drop_operators, id(mesh))
    return cache


def _drop_operators(key: int) -> None:
    _OPERATORS.pop(key, None)


def cell_gradient(mesh: Mesh) -> sparse.csr_array:
    """The mesh's cell-gradient operator (see ``_Operators.gradient``),
    built on first use and kept with the mesh."""
    return _operators(mesh).gradient


def corner_average(mesh: Mesh) -> sparse.csr_array:
    """The mesh's corner-average operator, built on first use and kept with
    the mesh."""
    return _operators(mesh).corner_average


def assemble_mass(mesh: Mesh) -> sparse.csr_array:
    """Consistent P1 mass matrix."""
    if np.any(mesh.cell_areas <= 0):
        raise FemError("mesh contains a degenerate (zero-area) triangle")
    cache = _operators(mesh)
    return cache.assemble(np.ones(mesh.num_cells), cache.mass_blocks)


def _mass(mesh: Mesh) -> sparse.csr_array:
    """The mesh's mass matrix (``assemble_mass``), built on first use and
    kept, read-only, with the mesh."""
    cache = _operators(mesh)
    if cache.mass is None:
        cache.mass = assemble_mass(mesh)
        cache.mass.data.flags.writeable = False
    return cache.mass


def _elliptic(coefficient: np.ndarray) -> np.ndarray:
    """A diffusion coefficient, checked to be positive on every cell."""
    coefficient = np.asarray(coefficient, dtype=float)
    if np.any(coefficient <= 0):
        raise FemError(f"nonpositive diffusion coefficient "
                       f"(min {coefficient.min():.3e}) violates ellipticity")
    return coefficient


def _finite(weight: np.ndarray) -> np.ndarray:
    """A reaction weight, checked to be finite on every cell."""
    weight = np.asarray(weight, dtype=float)
    if not np.all(np.isfinite(weight)):
        raise FemError("reaction weight must be finite")
    return weight


def assemble_stiffness(mesh: Mesh, coefficient: np.ndarray) -> sparse.csr_array:
    """P1 stiffness matrix with a piecewise-constant coefficient."""
    cache = _operators(mesh)
    return cache.assemble(_elliptic(coefficient), cache.stiffness_blocks)


def assemble_reaction(mesh: Mesh, weight: np.ndarray) -> sparse.csr_array:
    """Cellwise-weighted P1 mass matrix (zeroth-order term)."""
    cache = _operators(mesh)
    return cache.assemble(_finite(weight), cache.mass_blocks)


def assemble_neumann_load(mesh: Mesh, flux: np.ndarray) -> np.ndarray:
    """Load vector of a boundary flux given at the boundary vertices.

    ``flux`` is ordered like ``mesh.boundary_vertices``; edge ``i`` runs from
    boundary vertex ``i`` to ``i + 1`` (cyclically) by construction.
    """
    return _operators(mesh).neumann_load @ np.asarray(flux, dtype=float)


def assemble_cell_load(mesh: Mesh, values: np.ndarray) -> np.ndarray:
    """Load vector of a cell field source (one third of the cell integral
    to each corner)."""
    return _operators(mesh).cell_load @ np.asarray(values, dtype=float)


def _to_fine(arr: np.ndarray, n_comp: int, mesh: Mesh) -> np.ndarray:
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.shape[0] != n_comp:
        raise FemError(f"expected {n_comp} inhomogeneity components, "
                       f"got {arr.shape[0]}")
    if arr.shape[1] != mesh.num_cells:
        raise FemError(f"inhomogeneity has {arr.shape[1]} cells; expected "
                       f"the mesh's {mesh.num_cells}")
    return arr


class _Perturbation:
    """What the inhomogeneity ``u`` (a cell field of ``mesh``, None for
    zero) changes in a step: its perturbed ``cells``, where the coefficient
    is not 1, the reaction weight not 0 or a power component not 0, and
    their coefficients (None when no op is a conductivity), weights and
    power terms.  A power component that is 0 on every cell adds no power
    term; ``lagged`` tells whether any is left."""

    def __init__(self, u, ops, mesh: Mesh):
        u_fine = np.zeros((len(ops), mesh.num_cells)) if u is None \
            else _to_fine(np.asarray(u, dtype=float), len(ops), mesh)
        coeff = np.ones(mesh.num_cells)
        react = np.zeros(mesh.num_cells)
        powers = []
        for op in ops:
            comp = u_fine[op.component]
            if op.kind == CONDUCTIVITY:
                coeff = coeff + comp
            elif op.kind == POTENTIAL:
                react = react + comp
            else:
                powers.append((comp, op.power))
        perturbed = (coeff != 1.0) | (react != 0.0)
        for comp, _ in powers:
            perturbed |= comp != 0.0
        cells = np.flatnonzero(perturbed)
        conductivity = any(op.kind == CONDUCTIVITY for op in ops)
        self.mesh, self.cells = mesh, cells
        self.coeff = coeff[cells] if conductivity else None
        self.react = react[cells]
        self.powers = [(comp[cells], power) for comp, power in powers
                       if np.any(comp)]
        self.lagged = bool(self.powers)

    def change(self, y_lag) -> np.ndarray:
        """Half the change of K + R on the perturbed cells (data on the
        mesh's pattern), their power weight lagged at ``y_lag``; with no
        coefficient K is unchanged."""
        mesh, cells, react = self.mesh, self.cells, self.react
        cache = _operators(mesh)
        if self.powers:
            ybar = y_lag[mesh.triangles[cells]].mean(axis=1)
            react = react + sum(comp * np.abs(ybar) ** (power - 2.0)
                                for comp, power in self.powers)
        blocks = _finite(react)[:, None] * cache.mass_blocks[cells]
        if self.coeff is not None:
            blocks += (_elliptic(self.coeff) - 1.0)[:, None] \
                * cache.stiffness_blocks[cells]
        return np.bincount(cache.scatter.reshape(-1, 9)[cells].ravel(),
                           0.5 * blocks.ravel(), minlength=cache.indices.size)


def _factorize(matrix, layout: _BandLayout | None = None):
    """The factorization of a symmetric step block: every solver here
    factorizes through this function, which counts each factorization in
    ``tally`` as "band" or "superlu".

    Given the ``layout`` of a block of the mesh's pattern (``_layout``),
    LAPACK's band Cholesky (``dpbtrf``) on the block's reverse
    Cuthill-McKee ordering (George & Liu, "Computer Solution of Large
    Sparse Positive Definite Systems", 1981), filled into one band array
    that it factors in place: at 7002 triangles (3605 unknowns, half
    bandwidth 74) it factors in 3.8 ms against SuperLU's 9.3, and solves
    in 0.20 ms against 0.24 (one BLAS thread).

    Without a layout, or when ``dpbtrf`` finds the block not positive
    definite (a negative potential), SuperLU in its symmetric mode (Li
    2005, "An overview of SuperLU"): minimum degree on A^T + A with
    diagonal pivots fills 30% less than the default column ordering at
    13870 triangles and factors in two thirds the time.  A window's blocks
    take SuperLU: there the ring block's 16-column S_OO solves took 8.9
    ms against 14.5 ms on a band factor (13870 triangles).
    """
    if layout is not None:
        band = layout.fill(matrix.data)
        factor, info = lapack.dpbtrf(band, overwrite_ab=1)
        if info == 0:
            tally["band"] += 1
            return _BandCholesky(factor, layout.perm)
    try:
        lu = splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A",
                  diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise FemError(f"sparse factorization failed: {exc}") from exc
    tally["superlu"] += 1
    return lu


class _BandLayout:
    """Where the entries of a block of the mesh's pattern (``_labels``) go
    in LAPACK's upper band storage on the block's reverse Cuthill-McKee
    ordering: ``perm`` lists the unknowns in that order, ``width`` is the
    band's half width, and entry ``entries[i]`` of the block's data, one
    on or above the diagonal of the ordered block, goes to ``slots[i]`` of
    the Fortran-ordered (width + 1) x n band array.  Upper storage: at
    7002 triangles ``dpbtrs`` solves on it in 0.15 ms against 0.26 ms on
    lower storage, which repays a factorization about 1 ms slower within a
    march's steps."""

    def __init__(self, labels):
        tally["layout"] += 1
        n = labels.shape[0]
        self.perm = csgraph.reverse_cuthill_mckee(labels.tocsr(),
                                                  symmetric_mode=True)
        order = np.argsort(self.perm)       # each unknown's place in it
        row = order[np.repeat(np.arange(n), np.diff(labels.indptr))]
        col = order[labels.indices]
        self.width = int(np.max(col - row))
        # int32 halves them; a band of 2**31 slots would take 16 GiB
        self.entries = np.flatnonzero(row <= col).astype(np.int32)
        self.slots = (col * (self.width + 1) + self.width + row
                      - col)[self.entries].astype(np.int32)

    def fill(self, data: np.ndarray) -> np.ndarray:
        """The band array of the block whose data is ``data``."""
        band = np.zeros(self.perm.size * (self.width + 1))
        band[self.slots] = data[self.entries]
        return band.reshape((self.width + 1, self.perm.size), order="F")


class _BandCholesky:
    """A band Cholesky factor (``dpbtrf``'s upper U, U^T U = A) of a block
    ordered by ``perm``."""

    def __init__(self, factor: np.ndarray, perm: np.ndarray):
        self.factor, self.perm = factor, perm

    def solve(self, b: np.ndarray) -> np.ndarray:
        y, _ = lapack.dpbtrs(self.factor, b[self.perm], overwrite_b=1)
        x = np.empty_like(y)
        x[self.perm] = y
        return x


def _labels(mesh: Mesh, pinned: bool):
    """``(labels, coupling)``: the block of the mesh's pattern that a step
    solves and its coupling to the pinned rows, each entry holding its
    position in the pattern plus one (so that none is an explicit zero):
    slices of them label the entries of theirs.  A march that pins the
    boundary rows solves the interior block; their rows and columns are
    eliminated symmetrically, so the block of a symmetric matrix stays
    symmetric.  Any other march solves the whole matrix, with no coupling
    (None).  Built once per mesh and pinned flag: neither depends on
    ``dt``."""
    cache = _operators(mesh)
    if pinned not in cache.labels:
        labels = cache.matrix(np.arange(1, cache.indices.size + 1,
                                        dtype=np.int32))
        coupling = None
        if pinned:
            rows = labels[cache.interior]
            labels = rows[:, cache.interior]
            coupling = rows[:, mesh.boundary_vertices]
        cache.labels[pinned] = labels, coupling
    return cache.labels[pinned]


def _layout(mesh: Mesh, pinned: bool) -> _BandLayout:
    """The band layout of the block that ``_labels`` gives, built on the
    block's first band factorization and kept with the mesh: a mesh whose
    marches all condense never pays for it."""
    layouts = _operators(mesh).layouts
    if pinned not in layouts:
        layouts[pinned] = _BandLayout(_labels(mesh, pinned)[0])
    return layouts[pinned]


def _positions(labels) -> np.ndarray:
    return labels.data - 1


def _take(labels, data: np.ndarray):
    """The matrix of ``labels``' pattern whose entries are those of ``data``
    (on the mesh's pattern) that they label."""
    return type(labels)((data[_positions(labels)], labels.indices,
                         labels.indptr), shape=labels.shape)


def _unperturbed(mesh: Mesh, dt: float):
    """``(plus, minus, held)``: the data of S+ = M/dt + K(1)/2 and S- =
    M/dt - K(1)/2 of a Crank-Nicolson step on the mesh's pattern
    (read-only), and ``held``, the systems of that step by pinned flag,
    which ``_step_systems`` fills for steps with no perturbed cell; each
    holds a band Cholesky factor on the block's layout (``_layout``).

    The mesh's cache holds them for the last ``dt`` asked for, until the
    mesh dies.  Asking for another ``dt`` drops all of them before the new
    state is built, so the old factorizations are freed first; the band
    layouts do not depend on ``dt`` and stay.  Every segment of a run lies
    on one time lattice, so a run factorizes each held system once; a held
    factorization is the one a fresh build would give.
    """
    cache = _operators(mesh)
    if cache.unperturbed is None or cache.unperturbed[0] != dt:
        cache.unperturbed = None
        scaled = _mass(mesh).data / dt
        half = 0.5 * assemble_stiffness(mesh, np.ones(mesh.num_cells)).data
        plus, minus = scaled + half, scaled - half
        plus.flags.writeable = minus.flags.writeable = False
        cache.unperturbed = dt, plus, minus, {}
    return cache.unperturbed[1:]


PCG_MAX_ITERATIONS = 40
PCG_RTOL = 1e-14


class _Pcg:
    """Conjugate gradients on the matrix ``a`` of a step with no
    conductivity, preconditioned by the factorization ``precond`` of the
    same matrix with no perturbation (Saad, "Iterative Methods for Sparse
    Linear Systems", alg. 9.1).  ``a`` is a whole step matrix (or its
    interior block) and ``precond`` the held band Cholesky factor of M/dt +
    K(1)/2, or ``a`` is a window's Schur complement of the step
    (``_Window.schur``) and ``precond`` SuperLU's factorization of the
    window's unperturbed one.

    With the diffusion coefficient 1, a reaction weight w changes only the
    mass-like part of S+, so the preconditioned spectrum lies in
    [1, 1 + dt*max(w)/2] and a few steps reach the relative residual
    ``PCG_RTOL``.  A window's step changes only its unknowns R, and the
    inverse of a Schur complement is the R block of the whole inverse, so
    on the Schur complement the preconditioned spectrum is the whole
    matrix's less eigenvalues 1.  Each solve starts from ``precond``'s
    solution.  Past ``PCG_MAX_ITERATIONS`` steps, or on a breakdown
    (p.Ap <= 0: a negative potential made ``a`` indefinite), SuperLU
    factorizes ``a``, which then solves directly.  ``tally`` counts each CG
    solve as "cg" and each fallback as "cg_fallback".
    """

    def __init__(self, a, precond):
        self.a, self.precond, self.direct = a, precond, None

    def solve(self, b: np.ndarray) -> np.ndarray:
        if self.direct is None:
            x = self._cg(b)
            if x is not None:
                return x
            tally["cg_fallback"] += 1
            self.direct = _factorize(self.a)
        return self.direct.solve(b)

    def _cg(self, b: np.ndarray) -> np.ndarray | None:
        """The CG solution, or None when CG breaks down or hits the cap."""
        tally["cg"] += 1
        a, precond = self.a, self.precond
        tol = PCG_RTOL * _norm(b)
        x = precond.solve(b)
        r = b - a @ x
        p = rz_prev = None
        for _ in range(PCG_MAX_ITERATIONS):
            if _norm(r) <= tol:
                return x
            z = precond.solve(r)
            rz = _dot(r, z)
            p = z if p is None else z + (rz / rz_prev) * p
            ap = a @ p
            pap = _dot(p, ap)
            if not pap > 0.0:
                return None
            alpha = rz / pap
            x = x + alpha * p
            r = r - alpha * ap
            rz_prev = rz
        return x if _norm(r) <= tol else None


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b, summed in numpy's fixed pairwise order.  A BLAS dot product
    (``@``, ``np.linalg.norm``) splits a long vector over the BLAS threads,
    so its last bits would depend on their number."""
    return np.sum(a * b)


def _norm(a: np.ndarray) -> float:
    return np.sqrt(_dot(a, a))


CONDENSE_STEPS = 25
_RING_COLUMNS = 16


class _Window:
    """What the step matrices of ``CONDENSE_STEPS`` steps share, condensed
    onto the unknowns whose rows change (static condensation; Saad,
    "Iterative Methods for Sparse Linear Systems", ch. 14).

    ``changed`` marks the unknowns R of a block (``labels``, see
    ``_labels``) that lie on a cell perturbed at some step of the window.
    Every other unknown, O, lies on unperturbed cells only, so its row, and
    with it S_OO and S_RO = S_OR^T, is that of the unperturbed S+ (data
    ``plus`` on the mesh's pattern) at every step.  S_OO is factorized
    once, and X = S_RO S_OO^-1 S_OR once (``_ring_block``), so the window
    holds S_RR - X of the unperturbed S+; a step adds to it what its
    perturbed cells change (``schur``).  A step with no conductivity solves
    it by ``_Pcg``, preconditioned by the factorization of the unperturbed
    one (``precond``, made on first use).
    """

    def __init__(self, labels, plus: np.ndarray, changed: np.ndarray):
        tally["window"] += 1
        self.inner = np.flatnonzero(changed)
        self.outer = np.flatnonzero(~changed)
        rows = labels[self.inner]
        self.s_ro = _take(rows[:, self.outer].tocsr(), plus)
        self.s_or = self.s_ro.T.tocsr()
        self.lu = _factorize(_take(labels[self.outer][:, self.outer].tocsc(),
                                   plus))
        ring = np.flatnonzero(np.diff(self.s_ro.indptr))
        x = self._ring_block(self.s_ro[ring])
        # S_RR - X lies on the union of their patterns, held by columns:
        # the key of entry (i, j) is j * n + i
        n = self.inner.size
        s_rr = rows[:, self.inner].tocoo()
        rr_keys = s_rr.col.astype(np.int64) * n + s_rr.row
        x_keys = (ring[None, :] * n + ring[:, None]).ravel()
        keys = np.union1d(rr_keys, x_keys)
        self.rr_slots = np.searchsorted(keys, rr_keys)
        self.rr_positions = _positions(s_rr)
        self.schur_data = np.zeros(keys.size)
        self.schur_data[self.rr_slots] = plus[self.rr_positions]
        self.schur_data[np.searchsorted(keys, x_keys)] -= x.ravel()
        cols, self.schur_rows = np.divmod(keys, n)
        self.schur_starts = np.searchsorted(cols, np.arange(n + 1))

    def _ring_block(self, s_jo) -> np.ndarray:
        """X = S_JO S_OO^-1 S_OJ on the ring J of R unknowns next to O,
        formed ``_RING_COLUMNS`` columns at a time."""
        s_oj = s_jo.T.tocsc()
        x = np.empty((s_jo.shape[0],) * 2)
        for lo in range(0, x.shape[0], _RING_COLUMNS):
            cols = slice(lo, lo + _RING_COLUMNS)
            x[:, cols] = s_jo @ self.lu.solve(s_oj[:, cols].toarray())
        return 0.5 * (x + x.T)      # X is symmetric; the solves round apart

    def schur(self, change: np.ndarray | None = None):
        """S_RR - X of a step whose S+ is the unperturbed one plus
        ``change`` (data on the mesh's pattern; None for no change)."""
        data = self.schur_data.copy()
        if change is not None:
            data[self.rr_slots] += change[self.rr_positions]
        return sparse.csc_array((data, self.schur_rows, self.schur_starts),
                                shape=(self.inner.size,) * 2)

    @cached_property
    def precond(self):
        """The factorization of the unperturbed S_RR - X."""
        return _factorize(self.schur())


class _Condensed:
    """A step's solver by static condensation on its ``window``, from the
    solver ``lu`` of its Schur complement S_RR - X (a factorization or
    ``_Pcg``): each solve is two S_OO solves and one Schur solve."""

    def __init__(self, lu, window: _Window):
        self.window, self.lu = window, lu

    def solve(self, b: np.ndarray) -> np.ndarray:
        w = self.window
        b_o = b[w.outer]
        x = np.empty_like(b)
        x[w.inner] = x_r = self.lu.solve(
            b[w.inner] - w.s_ro @ w.lu.solve(b_o))
        x[w.outer] = w.lu.solve(b_o - w.s_or @ x_r)
        return x


def _check_solution(y: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(y)):
        raise FemError("linear solve produced non-finite values")
    return y


def _check_init(init: np.ndarray, mesh: Mesh) -> np.ndarray:
    init = np.asarray(init, dtype=float)
    if init.shape != (mesh.num_vertices,):
        raise FemError("initial field does not match the mesh")
    return init


def _half_node(values: np.ndarray, j: int) -> np.ndarray:
    """Value at the half-step node j (time t_start + j*dt/2) of an array
    with one row per time node."""
    k = j // 2
    return values[k] if j % 2 == 0 else 0.5 * (values[k] + values[k + 1])


def source_load(mesh: Mesh, grid: SegmentGrid, f, g):
    """The load ``j -> vector`` at the half-step node j of ``grid`` (time
    t_start + j*dt/2) of the interior source sampler ``f`` (a cell field)
    and the boundary flux sampler ``g`` (boundary-vertex values); either
    may be None.  Each call assembles its vector; nothing is kept."""
    times = grid.times()

    def load(j: int) -> np.ndarray:
        t = times[j // 2] + 0.5 * grid.dt * (j % 2)
        out = np.zeros(mesh.num_vertices)
        if f is not None:
            out += assemble_cell_load(mesh, f(t))
        if g is not None:
            out += assemble_neumann_load(mesh, g(t))
        return out
    return load


def _step_systems(mesh: Mesh, grid: SegmentGrid, u, ops, pinned: bool):
    """``(systems, lagged)`` of a march: ``systems`` yields each step's
    function ``y_lag -> (solver, coupling, S-)`` in turn, sampling the
    step's coefficients once, and ``lagged`` tells whether the operator
    has a power weight, which that function lags at ``y_lag``.  A step's
    S+ and S- are the unperturbed ones (``_unperturbed``) plus and minus
    its ``_Perturbation.change``; ``solver`` solves the block of S+ that
    the march solves and ``coupling`` is that block's coupling to the
    pinned rows (see ``_labels``).  No function keeps a factorization that
    it built.

    These are the march's solver kinds.  A step with no perturbed cell
    takes the held unperturbed system.  Any other step is solved by the
    march's kind:

    - static (a constant ``u`` and no nonzero power weight): one
      factorization;
    - a sampler: condensed on windows of ``CONDENSE_STEPS`` steps
      (``_Window``); a window is built once the march has let go of the
      previous one.  A window's perturbed cells are those of all its
      steps, also of steps past the grid's end, so a shorter march is
      bitwise the prefix of a longer one, as resuming a run to a longer
      horizon requires.  A step's change, its lagged power weight
      included, lies on its perturbed cells, so it changes only the
      window's Schur complement.  With a conductivity each step and sweep
      factorizes it; without, ``_Pcg`` solves it on the window's
      unperturbed one;
    - a constant ``u`` with a nonzero power weight, and a window whose
      cells reach every unknown: with a conductivity a factorization at
      every call, else ``_Pcg`` on the whole step matrix and the held
      unperturbed factorization.

    Every factorization of a block on the mesh's pattern (the held ones,
    a static step's, a step whose window reaches every unknown) is band
    Cholesky on the block's layout (``_layout``, built on the first of
    them), or SuperLU's when the block is not positive definite; a
    window's blocks are SuperLU's (see ``_factorize``).  ``tally`` counts
    the factorizations, CG solves and windows that each kind makes.
    """
    dt = grid.dt
    labels, coupling = _labels(mesh, pinned)
    plus, minus, held = _unperturbed(mesh, dt)
    fixed = None if callable(u) else _Perturbation(u, ops, mesh)
    static = fixed is not None and not fixed.lagged
    conductivity = any(op.kind == CONDUCTIVITY for op in ops)

    def build(change, make):
        # make(s_plus, change) solves the block of S+
        s_plus = plus + change
        return (make(s_plus, change),
                None if coupling is None else _take(coupling, s_plus),
                _operators(mesh).matrix(minus - change))

    def factorize(s_plus):
        # the block on the mesh's pattern, on its band layout
        return _factorize(_take(labels, s_plus), _layout(mesh, pinned))

    def unperturbed():
        if pinned not in held:
            held[pinned] = build(0.0, lambda s_plus, _: factorize(s_plus))
        return held[pinned]

    def solver(window, s_plus, change):
        if window is not None:
            schur = window.schur(change)
            return _Condensed(_factorize(schur) if conductivity
                              else _Pcg(schur, window.precond), window)
        if static or conductivity:
            return factorize(s_plus)
        return _Pcg(_take(labels, s_plus), unperturbed()[0])

    def system(step, window, y_lag):
        if not step.cells.size:
            return unperturbed()
        return build(step.change(y_lag), partial(solver, window))

    def windows():
        for k in itertools.count(0, CONDENSE_STEPS):
            # the midpoint of each step, also of a step past the grid's end
            steps = [_Perturbation(u((grid.first + i) * dt + 0.5 * dt),
                                   ops, mesh)
                     for i in range(k, k + CONDENSE_STEPS)]
            touched = np.zeros(mesh.num_vertices, dtype=bool)
            for step in steps:
                touched[mesh.triangles[step.cells]] = True
            # an unknown's vertex is the column of its diagonal entry
            changed = touched[_operators(mesh).indices[labels.diagonal() - 1]]
            window = _Window(labels, plus, changed) \
                if changed.any() and not changed.all() else None
            for step in steps:
                yield partial(system, step, window)
            del window          # let go of it before building the next

    if fixed is None:
        return windows(), any(op.kind == POWER_POTENTIAL for op in ops)
    if static:
        held_step = system(fixed, None, None)
        return itertools.repeat(lambda y_lag: held_step), False
    return itertools.repeat(partial(system, fixed, None)), True


def _march(mesh: Mesh, grid: SegmentGrid, u, ops, init: np.ndarray, load,
           picard_sweeps: int = 0, rows: np.ndarray | None = None,
           trace: np.ndarray | None = None) -> Trajectory:
    """The Crank-Nicolson march behind every solve of this module.

    ``u`` is None, a cell field of ``mesh`` constant in time, or a sampler
    ``t -> field`` of such fields.  ``load(j)`` is the load at the half-step
    node j (time t_start + j*dt/2); the march only reads the vectors it
    returns.  ``rows`` selects the vertices whose values the trajectory
    keeps (all of them by default).  Given a ``trace`` (one row per grid
    time node over the boundary vertices), the march pins the boundary rows
    to it: at each half-step node they take the trace's value there, and
    each step solves the interior block of S+ with the pinned values moved
    to the right-hand side (see ``_labels``).

    The march is one loop over the steps.  Step k runs the Crank-Nicolson
    update on the system that ``_step_systems`` gives it: once, or, when
    the operator has a lagged power weight, which each sweep after the
    first lags at the step midpoint, up to 1 + ``picard_sweeps`` times;
    the sweeps stop early once one moves the state by at most 1e-8
    relative.  The first step is two backward-Euler half steps (Rannacher
    startup), which damp the weakly decaying high-frequency transients
    that plain Crank-Nicolson would carry through the march; their
    operator 2M/dt + K is twice S+, so the step's system serves them as
    well.
    """
    mass = _mass(mesh)
    dt = grid.dt
    y = _check_init(init, mesh)
    systems, lagged = _step_systems(mesh, grid, u, ops, trace is not None)
    bnd, interior = mesh.boundary_vertices, _operators(mesh).interior
    keep = slice(None) if rows is None else np.asarray(rows)
    values = np.empty((grid.num_times, y[keep].size))
    values[0] = y[keep]

    def solve(solver, coupling, rhs, j):
        # the solution at half-step node j
        if trace is None:
            return _check_solution(solver.solve(rhs))
        pin = _half_node(trace, j)
        out = np.empty(mesh.num_vertices)
        out[bnd] = pin
        out[interior] = _check_solution(solver.solve(rhs[interior]
                                                     - coupling @ pin))
        return out

    for k in range(grid.steps):
        system = next(systems)
        # the step's loads, read once for all its sweeps
        loads = {j: load(j) for j in ((2 * k + 1,) if k else (1, 2))}
        y_new = None
        for _ in range(1 + picard_sweeps if lagged else 1):
            y_lag = y if y_new is None else 0.5 * (y + y_new)
            solver, coupling, s_minus = system(y_lag)
            if k > 0:
                y_next = solve(solver, coupling,
                               s_minus @ y + loads[2 * k + 1], 2 * k + 2)
            else:
                y_next = y
                for j in (1, 2):
                    y_next = solve(solver, coupling, 0.5 * (
                        (2.0 / dt) * (mass @ y_next) + loads[j]), j)
            # free this system before the next one is built
            del solver, coupling, s_minus
            done = y_new is not None and _norm(
                y_next - y_new) <= 1e-8 * max(_norm(y_new), 1e-30)
            y_new = y_next
            if done:
                break
        y = y_new
        values[k + 1] = y[keep]
        # free this step's system, and with it its window, before the next
        # one is built
        del system
    return Trajectory(grid, values)


def forward_solve(mesh: Mesh, grid: SegmentGrid, u, ops, load,
                  init: np.ndarray, picard_sweeps: int = 0,
                  rows: np.ndarray | None = None) -> Trajectory:
    """Crank-Nicolson march of the Neumann problem over one segment.

    ``u`` may be None, a cell field of ``mesh`` constant in time, or a
    sampler ``t -> field`` of such fields evaluated at step midpoints (up
    to ``CONDENSE_STEPS`` - 1 steps past ``grid.t_end``).
    ``load(j)`` is the source and flux load at the half-step node j (see
    ``source_load``).  The first step is always two backward-Euler half
    steps, which keep second-order accuracy for rough starting data.
    ``picard_sweeps`` refines a lagged power weight within each step.
    ``rows`` selects the vertices whose values the returned trajectory keeps
    (all of them by default).  ``_step_systems`` sets out how each step is
    solved.
    """
    return _march(mesh, grid, u, ops, init, load,
                  picard_sweeps=picard_sweeps, rows=rows)


def dirichlet_solve(mesh: Mesh, grid: SegmentGrid, u, ops, load,
                    trace_values: np.ndarray, init: np.ndarray) -> Trajectory:
    """Crank-Nicolson march with the boundary rows pinned to measured values.

    ``u`` and ``load(j)`` are as for ``forward_solve``.  The pinned rows
    drop the load's flux part, whose interior entries are exact zeros.
    ``trace_values`` holds one row per grid time node over the boundary
    vertices (callers interpolate measurements onto the grid); ``_march``
    pins the boundary rows to them.
    """
    trace_values = np.asarray(trace_values, dtype=float)
    if trace_values.shape != (grid.num_times, mesh.num_boundary_vertices):
        raise FemError("trace does not cover the segment's time nodes")
    return _march(mesh, grid, u, ops, init, load, trace=trace_values)


def backward_adjoint_solve(mesh: Mesh, grid: SegmentGrid,
                           flux_values: np.ndarray) -> Trajectory:
    """Backward heat equation with Neumann flux data and zero terminal value.

    Solved as a forward Crank-Nicolson march in the reversed time
    tau = t_end - t, then flipped back, so the returned trajectory is indexed
    by the original time nodes and vanishes at ``t_end``.
    """
    flux_values = np.asarray(flux_values, dtype=float)
    if flux_values.shape != (grid.num_times, mesh.num_boundary_vertices):
        raise FemError("flux does not cover the segment's time nodes")
    rev = flux_values[::-1]
    z = _march(mesh, grid, None, (), np.zeros(mesh.num_vertices),
               lambda j: assemble_neumann_load(mesh, _half_node(rev, j)))
    return Trajectory(grid, z.values[::-1].copy())


def boundary_trace(traj: Trajectory, mesh: Mesh) -> BoundaryTrace:
    """Restrict a trajectory to the boundary vertices."""
    return BoundaryTrace(traj.grid.times(),
                         traj.values[:, mesh.boundary_vertices].copy())


def trapezoid_weights(grid: SegmentGrid) -> np.ndarray:
    w = np.full(grid.num_times, grid.dt)
    w[0] = w[-1] = 0.5 * grid.dt
    return w


def domain_spacetime_inner(mass: sparse.csr_array, grid: SegmentGrid,
                           a: np.ndarray, b: np.ndarray) -> float:
    """L2 inner product over domain x segment for nodal trajectories."""
    w = trapezoid_weights(grid)
    return float(np.sum(w * np.einsum("kv,kv->k", a, (mass @ b.T).T)))


def boundary_spacetime_inner(mesh: Mesh, grid: SegmentGrid,
                             a: np.ndarray, b: np.ndarray) -> float:
    """L2 inner product over boundary x segment for boundary-value arrays."""
    w = trapezoid_weights(grid)
    bw = boundary_vertex_weights(mesh)
    return float(np.sum(w[:, None] * bw[None, :] * a * b))


def boundary_rel_error(mesh: Mesh, grid: SegmentGrid,
                       a: np.ndarray, b: np.ndarray) -> float:
    """Relative L2(boundary x segment) distance of ``a`` from reference ``b``."""
    diff = a - b
    num = boundary_spacetime_inner(mesh, grid, diff, diff)
    den = boundary_spacetime_inner(mesh, grid, b, b)
    if den <= 0:
        raise FemError("reference trace has zero norm")
    return float(np.sqrt(num / den))
