"""Ground-truth moving inclusions, the shared sources, and scenario configs.

A scenario bundles the true inhomogeneity (disk-shaped inclusions moving
along closed-form trajectories), the operator types of its components and
the projection bounds used by the reconstruction.  Every scenario is driven
by one source triple (interior source, boundary flux, initial value), which
``samplers`` binds to a mesh.  Scenarios are immutable; evaluation is pure.
"""

from __future__ import annotations

import ast
import configparser
import math
import operator
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fem import CONDUCTIVITY, POTENTIAL, POWER_POTENTIAL, InhomogeneityOp
from .mesh import Mesh

class ScenarioError(ValueError):
    """Invalid scenario definition or evaluation request."""


@dataclass(frozen=True)
class Inclusion:
    """A disk of time-dependent radius, center and contrast.

    ``component`` selects which row of the vector-valued inhomogeneity the
    inclusion feeds.
    """

    center: Callable[[float], tuple[float, float]]
    radius: Callable[[float], float]
    contrast: Callable[[float], float]
    component: int = 0


@dataclass(frozen=True)
class Scenario:
    name: str
    inclusions: tuple[Inclusion, ...]
    ops: tuple[InhomogeneityOp, ...]
    bounds: np.ndarray          # (L, 2) box per component
    horizon: float

    @property
    def num_components(self) -> int:
        return len(self.ops)


def _standard_f(points: np.ndarray) -> Callable[[float], np.ndarray]:
    sin_x, cos_y = np.sin(3 * points[:, 0]), np.cos(4 * points[:, 1])
    return lambda t: 25.0 * math.sin(t * math.pi / 4.0) * sin_x * cos_y


def _standard_g(points: np.ndarray, normals: np.ndarray, t: float) -> np.ndarray:
    x, y = points[:, 0], points[:, 1]
    gx = 3.0 * np.cos(3 * x) * np.cos(4 * y)
    gy = -4.0 * np.sin(3 * x) * np.sin(4 * y)
    return math.cos(t * math.pi / 6.0) * (gx * normals[:, 0] + gy * normals[:, 1])


def _standard_h(points: np.ndarray) -> np.ndarray:
    return 3.0 + np.sin(3 * points[:, 0]) * np.cos(4 * points[:, 1])


def _check_clearance(scn: Scenario, samples: int = 1001) -> None:
    for j, inc in enumerate(scn.inclusions):
        for t in np.linspace(0.0, scn.horizon, samples):
            cx, cy = inc.center(t)
            if math.hypot(cx, cy) + inc.radius(t) >= 1.0:
                raise ScenarioError(
                    f"inclusion {j} touches the boundary at t={t:.4f}")
        if inc.component >= scn.num_components or inc.component < 0:
            raise ScenarioError(f"inclusion {j} has no matching component")
    for lo, hi in scn.bounds:
        if not lo < hi:
            raise ScenarioError("projection bounds need lo < hi")
    for op, (lo, hi) in zip(scn.ops, scn.bounds):
        if op.kind == CONDUCTIVITY and lo <= -1.0:
            raise ScenarioError("conductivity lower bound must exceed -1")


def _make(name, inclusions, ops, bounds, horizon=10.0) -> Scenario:
    scn = Scenario(name=name, inclusions=tuple(inclusions), ops=tuple(ops),
                   bounds=np.asarray(bounds, dtype=float), horizon=horizon)
    _check_clearance(scn)
    return scn


def _const(v: float) -> Callable[[float], float]:
    return lambda t: v


def _ex1() -> Scenario:
    def gamma1(t):
        s = math.pi * t / 6.0
        sign = 1.0 if t < 3.0 else -1.0
        return (sign * 0.6 * math.cos(s), -0.7 * math.sin(s))

    def gamma2(t):
        if t < 6.0:
            s = math.pi * t / 6.0
        else:
            s = math.pi * (12.0 - t) / 6.0
        return (-0.6 * math.cos(s), -0.7 * math.sin(s))

    incs = [Inclusion(gamma1, _const(0.2), _const(-0.9)),
            Inclusion(gamma2, _const(0.2), _const(-0.9))]
    return _make("ex1", incs, [InhomogeneityOp(CONDUCTIVITY, 0)],
                 [(-0.99, 0.0)])


def _ex2() -> Scenario:
    def gc1(t):
        s = math.pi * t / 8.0 - 7.0 * math.pi / 6.0
        return (0.65 * math.cos(s), 0.65 * math.sin(s))

    def gc2(t):
        s = math.pi * t / 8.0 - math.pi / 3.0
        return (0.6 * math.cos(s), 0.7 * math.sin(s))

    def gp(t):
        s = math.pi * t / 8.0 - math.pi / 3.0
        return (0.7 * math.cos(s), 0.5 * math.sin(s))

    incs = [Inclusion(gc1, _const(0.2), _const(-0.9), component=0),
            Inclusion(gc2, _const(0.2), _const(-0.9), component=0),
            Inclusion(gp, _const(0.2), _const(15.0), component=1)]
    return _make("ex2", incs,
                 [InhomogeneityOp(CONDUCTIVITY, 0), InhomogeneityOp(POTENTIAL, 1)],
                 [(-0.99, 0.0), (0.0, 30.0)])


def _ex3() -> Scenario:
    def gamma(t):
        s = math.pi * t / 6.0 + math.pi / 4.0
        return (0.5 * math.cos(s), 0.7 * math.sin(s))

    incs = [Inclusion(gamma, _const(0.2), _const(20.0))]
    return _make("ex3", incs, [InhomogeneityOp(POWER_POTENTIAL, 0, power=3.0)],
                 [(0.0, 40.0)])


def _ex4() -> Scenario:
    def g1(t):
        s = math.pi * t / 8.0
        return (0.7 * math.cos(s), 0.6 * math.sin(s))

    def g2(t):
        s = math.pi * t / 8.0 + 4.0 * math.pi / 5.0
        return (0.5 * math.cos(s), 0.6 * math.cos(s))

    incs = [Inclusion(g1, _const(0.2), lambda t: max(15.0 - 2.5 * t, 0.0)),
            Inclusion(g2, _const(0.2), lambda t: min(2.5 * t, 15.0))]
    return _make("ex4", incs, [InhomogeneityOp(POTENTIAL, 0)], [(0.0, 30.0)])


def _ex5() -> Scenario:
    def g1(t):
        s = math.pi * t / 6.0 + math.pi / 3.0
        return (0.7 * math.cos(s), 0.6 * math.sin(s))

    def g2(t):
        s = math.pi * t / 6.0 - 2.0 * math.pi / 3.0
        return (0.6 * math.cos(s), 0.5 * math.sin(s))

    incs = [Inclusion(g1, _const(0.2), _const(-0.9)),
            Inclusion(g2, lambda t: max(0.3 - 0.03 * t, 0.0), _const(-0.9))]
    return _make("ex5", incs, [InhomogeneityOp(CONDUCTIVITY, 0)],
                 [(-0.99, 0.0)])


_BUILTINS = {"ex1": _ex1, "ex2": _ex2, "ex3": _ex3, "ex4": _ex4, "ex5": _ex5}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str) -> Scenario:
    """One of the five benchmark scenarios, with exact parameters."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ScenarioError(f"unknown scenario {name!r}; choose from "
                            f"{', '.join(BUILTIN_NAMES)}") from None


def null_scenario() -> Scenario:
    """No inclusions at all; used for background/noise-floor baselines."""
    return _make("null", [], [InhomogeneityOp(CONDUCTIVITY, 0)],
                 [(-0.99, 0.0)])


_NAMED = {**_BUILTINS, "null": null_scenario}


def resolve_scenario(name: str) -> Scenario:
    """The scenario ``name`` stands for: a builtin, ``null``, or the path of
    a scenario config file."""
    if name in _NAMED:
        return _NAMED[name]()
    if os.path.exists(name):
        return load_scenario_config(name)
    raise ScenarioError(f"scenario {name!r} is neither one of "
                        f"{', '.join(_NAMED)} nor a config file")


def eval_truth(scn: Scenario, t: float, mesh: Mesh) -> np.ndarray:
    """Exact inhomogeneity at time ``t`` as a vector cell field (L, T).

    Cell membership is a centroid-in-disk test.  Overlapping inclusions of
    one component are only accepted when their contrasts agree (the union is
    then well defined); otherwise the disjointness assumption is violated and
    the evaluation is rejected.  So is a radius, center or contrast that is
    not finite or whose arithmetic fails (a division by zero, an overflow).
    """
    if not 0.0 <= t <= scn.horizon:
        raise ScenarioError(f"t={t} outside the horizon [0, {scn.horizon}]")
    out = np.zeros((scn.num_components, mesh.num_cells))
    claimed = np.zeros((scn.num_components, mesh.num_cells), dtype=bool)
    x, y = mesh.centroids[:, 0], mesh.centroids[:, 1]
    for inc in scn.inclusions:
        r = _inclusion_value(inc.radius, t, "radius")
        if r <= 0.0:
            continue
        center = np.asarray(_inclusion_value(inc.center, t, "center"))
        # the cells of the disk's bounding box, widened past any rounding
        # of the disk test, then that test on them alone
        box = r + 1e-9
        near = np.flatnonzero((np.abs(x - center[0]) <= box)
                              & (np.abs(y - center[1]) <= box))
        cells = near[np.linalg.norm(mesh.centroids[near] - center, axis=1)
                     <= r]
        value = _inclusion_value(inc.contrast, t, "contrast")
        clash = cells[claimed[inc.component][cells]]
        if np.any(np.abs(out[inc.component][clash] - value) > 1e-12):
            raise ScenarioError(
                f"overlapping component-{inc.component} inclusions with "
                f"different contrasts at t={t}")
        out[inc.component][cells] = value
        claimed[inc.component][cells] = True
    return out


def _inclusion_value(fn, t: float, what: str):
    """``fn(t)``, an inclusion's ``what`` at time ``t``, checked to be
    finite."""
    try:
        value = fn(t)
    except ArithmeticError as exc:
        raise ScenarioError(f"inclusion {what} cannot be evaluated at "
                            f"t={t}: {exc}") from None
    if not np.all(np.isfinite(value)):
        raise ScenarioError(f"inclusion {what} is not finite at t={t}")
    return value


def samplers(mesh: Mesh):
    """Mesh-bound samplers of the source triple that every scenario shares:
    ``f(t)`` over cells, ``g(t)`` over the boundary vertices, and the nodal
    initial field ``h``."""
    bpts = mesh.vertices[mesh.boundary_vertices]
    normals = bpts / np.linalg.norm(bpts, axis=1, keepdims=True)

    def g_fn(t: float) -> np.ndarray:
        return _standard_g(bpts, normals, t)

    return _standard_f(mesh.centroids), g_fn, _standard_h(mesh.vertices)


# ---------------------------------------------------------------------------
# Scenario config files: expressions over numeric literals, t, pi, + - * /,
# unary minus, sin, cos, min, max, compiled from Python's own parse tree.

_FUNCS = {"sin": (math.sin, 1), "cos": (math.cos, 1),
          "min": (min, 2), "max": (max, 2)}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}
# deepest nesting of an expression, CPython's own cap on parentheses: the
# recursive compiler, its closures and ``ast.unparse`` take a Python frame
# or more a level
MAX_DEPTH = 200


def _parse(text: str) -> ast.expr:
    text = text.replace("·", "*").replace("−", "-").replace("π", "pi")
    try:
        body = ast.parse(text.strip(), mode="eval").body
    except (SyntaxError, ValueError) as exc:
        raise ScenarioError(f"malformed expression {text!r}: {exc}") from None
    level = [body]
    for _ in range(MAX_DEPTH):
        level = [c for node in level for c in ast.iter_child_nodes(node)]
    if level:
        raise ScenarioError(f"expression nested deeper than {MAX_DEPTH} "
                            f"levels")
    return body


def _compile(node: ast.expr) -> Callable[[float], float]:
    """A ``t -> float`` closure for a whitelisted node; every literal is a
    float, so no arithmetic runs on integers."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        try:
            value = float(node.value)
        except OverflowError:       # an integer literal beyond the float range
            value = math.inf
        return lambda t: value
    if isinstance(node, ast.Name):
        if node.id == "t":
            return lambda t: t
        if node.id == "pi":
            return lambda t: math.pi
        raise ScenarioError(f"unknown name {node.id!r} in expression")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        op = _BINOPS[type(node.op)]
        a, b = _compile(node.left), _compile(node.right)
        return lambda t: op(a(t), b(t))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        a = _compile(node.operand)
        return lambda t: -a(t)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in _FUNCS and not node.keywords:
        func, arity = _FUNCS[node.func.id]
        if len(node.args) != arity:
            raise ScenarioError(f"{node.func.id} takes {arity} argument(s)")
        args = [_compile(a) for a in node.args]
        return lambda t: func(*(a(t) for a in args))
    raise ScenarioError(f"{ast.unparse(node)!r} is not allowed in an expression")


def parse_expression(text: str) -> Callable[[float], float]:
    """Parse a scalar time expression (numeric literals, t, pi, + - * /,
    unary minus, sin, cos, min, max)."""
    return _compile(_parse(text))


def parse_point_expression(text: str) -> Callable[[float], tuple[float, float]]:
    """Parse a 2-vector expression ``(expr, expr)``."""
    node = _parse(text)
    if not (isinstance(node, ast.Tuple) and len(node.elts) == 2):
        raise ScenarioError("trajectory must look like (expr, expr)")
    fx, fy = (_compile(e) for e in node.elts)
    return lambda t: (fx(t), fy(t))


def _parse_ops(text: str) -> list[InhomogeneityOp]:
    ops = []
    for idx, item in enumerate(s.strip() for s in text.split(",")):
        if ":" in item:
            kind, arg = item.split(":", 1)
            ops.append(InhomogeneityOp(kind.strip(), idx, power=float(arg)))
        else:
            ops.append(InhomogeneityOp(item, idx))
    return ops


def load_scenario_config(path) -> Scenario:
    """Read a scenario definition file (UTF-8).

    Sections: ``[scenario]`` (``name`` of a builtin or ``null``, or
    ``custom`` plus ``horizon`` and ``ops``), one ``[inclusion.N]`` per
    inclusion (``component``, ``radius``, ``trajectory``, ``contrast``
    expressions), ``[bounds]`` with one ``lo, hi`` line per component, and
    ``[sources]`` whose ``set`` must be ``standard``.  Any malformed file
    raises ``ScenarioError``.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        if not cp.read(path, encoding="utf-8"):
            raise ScenarioError(f"cannot read scenario config {path}")
        return _scenario_from(cp)
    except configparser.Error as exc:
        raise ScenarioError(f"scenario config {path}: {exc}") from None


def _scenario_from(cp: configparser.ConfigParser) -> Scenario:
    if not cp.has_section("scenario"):
        raise ScenarioError("missing [scenario] section")
    name = cp.get("scenario", "name", fallback="custom").strip()
    if name in _NAMED:
        return resolve_scenario(name)
    horizon = cp.getfloat("scenario", "horizon", fallback=10.0)
    ops = _parse_ops(cp.get("scenario", "ops", fallback="conductivity"))
    src_name = cp.get("sources", "set", fallback="standard").strip()
    if src_name != "standard":
        raise ScenarioError(f"unknown source set {src_name!r}")
    inclusions = []
    for section in sorted(s for s in cp.sections() if s.startswith("inclusion.")):
        # a missing trajectory or contrast raises configparser.NoOptionError,
        # which names the section and the key
        center = parse_point_expression(cp.get(section, "trajectory"))
        radius = parse_expression(cp.get(section, "radius", fallback="0.2"))
        contrast = parse_expression(cp.get(section, "contrast"))
        inclusions.append(Inclusion(
            center, radius, contrast,
            component=int(cp.get(section, "component", fallback="0"))))
    bounds = []
    for idx in range(len(ops)):
        raw = cp.get("bounds", str(idx), fallback=None)
        if raw is None:
            raise ScenarioError(f"missing bounds for component {idx}")
        lo, hi = (float(p) for p in raw.split(","))
        bounds.append((lo, hi))
    return _make(name, inclusions, ops, bounds, horizon)
