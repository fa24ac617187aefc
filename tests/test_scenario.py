"""Benchmark scenarios, truth evaluation, sources, and config parsing."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatprobe import fem
from heatprobe import mesh as hm
from heatprobe import scenario as sc


@pytest.fixture(scope="module")
def coarse():
    return hm.build_disk_mesh(1120)


# Grammar expressions whose literals are floats written by ``repr``, so that
# Python's own ``eval`` of the text also computes in floats.
_EXPRESSIONS = st.recursive(
    st.floats(allow_nan=False, allow_infinity=False).map(repr)
    | st.sampled_from(["t", "pi"]),
    lambda inner: (
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(" ".join)
        | st.tuples(inner, st.sampled_from("+-*/"), inner)
        .map(lambda p: "(" + " ".join(p) + ")")
        | inner.map(lambda a: "-" + a)
        | st.tuples(st.sampled_from(["sin", "cos"]), inner)
        .map(lambda p: f"{p[0]}({p[1]})")
        | st.tuples(st.sampled_from(["min", "max"]), inner, inner)
        .map(lambda p: f"{p[0]}({p[1]}, {p[2]})")),
    max_leaves=12)


def _outcome(fn, t):
    """Bits of ``fn(t)`` (any NaN as one value), or the arithmetic error."""
    try:
        value = fn(t)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return "nan" if math.isnan(value) else struct.pack("<d", value)


# ex4 restated as a config file; its values must be bitwise the builtin's.
EX4_CONFIG = """\
[scenario]
name = custom
horizon = 10
ops = potential
[inclusion.1]
trajectory = (0.7*cos(pi*t/8), 0.6*sin(pi*t/8))
contrast = max(15 - 2.5*t, 0)
[inclusion.2]
trajectory = (0.5*cos(pi*t/8 + 4*pi/5), 0.6*cos(pi*t/8 + 4*pi/5))
contrast = min(2.5*t, 15)
[bounds]
0 = 0, 30
"""


class TestBuiltins:
    def test_unknown_name_rejected(self):
        with pytest.raises(sc.ScenarioError):
            sc.builtin("ex9")

    def test_ex1_layout(self, coarse):
        scn = sc.builtin("ex1")
        assert len(scn.inclusions) == 2
        assert scn.ops[0].kind == fem.CONDUCTIVITY
        assert np.allclose(scn.bounds, [[-0.99, 0.0]])
        u0 = sc.eval_truth(scn, 0.0, coarse)
        near1 = np.linalg.norm(coarse.centroids - [0.6, 0], axis=1) <= 0.2
        near2 = np.linalg.norm(coarse.centroids - [-0.6, 0], axis=1) <= 0.2
        assert np.all(u0[0][near1] == -0.9)
        assert np.all(u0[0][near2] == -0.9)
        assert np.all(u0[0][~(near1 | near2)] == 0.0)

    def test_ex2_layout(self):
        scn = sc.builtin("ex2")
        assert len(scn.inclusions) == 3
        kinds = [op.kind for op in scn.ops]
        assert kinds == [fem.CONDUCTIVITY, fem.POTENTIAL]
        comps = sorted(i.component for i in scn.inclusions)
        assert comps == [0, 0, 1]
        assert np.allclose(scn.bounds, [[-0.99, 0.0], [0.0, 30.0]])

    def test_ex3_power_law(self):
        scn = sc.builtin("ex3")
        assert scn.ops[0].kind == fem.POWER_POTENTIAL
        assert scn.ops[0].power == 3.0
        assert np.allclose(scn.bounds, [[0.0, 40.0]])
        assert scn.inclusions[0].contrast(4.2) == 20.0

    def test_ex4_fading_contrasts(self):
        scn = sc.builtin("ex4")
        assert scn.inclusions[0].contrast(0.0) == 15.0
        assert scn.inclusions[0].contrast(6.0) == 0.0
        assert scn.inclusions[1].contrast(0.0) == 0.0
        assert scn.inclusions[1].contrast(6.0) == 15.0

    def test_ex5_diminishing_radius(self, coarse):
        scn = sc.builtin("ex5")
        assert scn.inclusions[1].radius(0.0) == 0.3
        assert scn.inclusions[1].radius(10.0) == 0.0
        u = sc.eval_truth(scn, 10.0, coarse)
        support = coarse.centroids[u[0] != 0]
        g1 = np.array(scn.inclusions[0].center(10.0))
        assert np.all(np.linalg.norm(support - g1, axis=1) <= 0.2 + 1e-12)

    def test_boundary_clearance_on_time_grid(self):
        for name in sc.BUILTIN_NAMES:
            scn = sc.builtin(name)
            for t in np.linspace(0, scn.horizon, 1001):
                for inc in scn.inclusions:
                    cx, cy = inc.center(t)
                    assert math.hypot(cx, cy) + inc.radius(t) < 1.0

    def test_clearance_violation_rejected(self):
        bad = sc.Inclusion(lambda t: (0.9, 0.0), lambda t: 0.2,
                           lambda t: -0.9)
        with pytest.raises(sc.ScenarioError):
            sc._make("bad", [bad], [fem.InhomogeneityOp(fem.CONDUCTIVITY, 0)],
                     [(-0.99, 0.0)])


class TestEvalTruth:
    def test_background_zero(self, coarse):
        scn = sc.builtin("ex3")
        u = sc.eval_truth(scn, 2.0, coarse)
        center = np.array(scn.inclusions[0].center(2.0))
        outside = np.linalg.norm(coarse.centroids - center, axis=1) > 0.25
        assert np.all(u[0][outside] == 0.0)

    def test_values_equal_declared_contrast(self, coarse):
        for name in sc.BUILTIN_NAMES:
            scn = sc.builtin(name)
            u = sc.eval_truth(scn, 1.7, coarse)
            nz = u[u != 0]
            declared = {round(i.contrast(1.7), 12) for i in scn.inclusions}
            assert set(np.round(nz, 12)).issubset(declared | {0.0})

    def test_merged_inclusions_share_contrast(self, coarse):
        # the merge window of ex1 has both disks on one trajectory
        u = sc.eval_truth(sc.builtin("ex1"), 4.0, coarse)
        assert set(np.unique(u)) == {-0.9, 0.0}

    def test_conflicting_overlap_rejected(self, coarse):
        scn = sc.Scenario(
            name="clash",
            inclusions=(sc.Inclusion(lambda t: (0.2, 0.0), lambda t: 0.2,
                                     lambda t: 5.0),
                        sc.Inclusion(lambda t: (0.25, 0.0), lambda t: 0.2,
                                     lambda t: 7.0)),
            ops=(fem.InhomogeneityOp(fem.POTENTIAL, 0),),
            bounds=np.array([[0.0, 30.0]]), horizon=10.0)
        with pytest.raises(sc.ScenarioError):
            sc.eval_truth(scn, 1.0, coarse)

    @pytest.mark.parametrize("what, center, radius, contrast", [
        ("contrast", lambda t: (0.2, 0.0), lambda t: 0.2,
         lambda t: 0.0 / (t - 1.0)),
        ("contrast", lambda t: (0.2, 0.0), lambda t: 0.2,
         lambda t: math.exp(1000.0)),
        ("contrast", lambda t: (0.2, 0.0), lambda t: 0.2,
         lambda t: math.inf - math.inf),
        ("radius", lambda t: (0.2, 0.0), lambda t: math.inf,
         lambda t: 5.0),
        ("radius", lambda t: (0.2, 0.0), lambda t: math.nan,
         lambda t: 5.0),
        ("center", lambda t: (math.nan, 0.0), lambda t: 0.2,
         lambda t: 5.0),
    ], ids=["division-by-zero", "overflow", "nan-contrast", "inf-radius",
            "nan-radius", "nan-center"])
    def test_unevaluable_inclusion_rejected(self, what, center, radius,
                                            contrast, coarse):
        scn = sc.Scenario(
            name="bad", inclusions=(sc.Inclusion(center, radius, contrast),),
            ops=(fem.InhomogeneityOp(fem.POTENTIAL, 0),),
            bounds=np.array([[0.0, 30.0]]), horizon=10.0)
        with pytest.raises(sc.ScenarioError, match=what):
            sc.eval_truth(scn, 1.0, coarse)

    def test_time_outside_horizon_rejected(self, coarse):
        with pytest.raises(sc.ScenarioError):
            sc.eval_truth(sc.builtin("ex1"), 11.0, coarse)

    def test_small_time_shift_moves_few_cells(self, coarse):
        scn = sc.builtin("ex1")
        for t in (1.0, 5.0, 8.0):
            a = sc.eval_truth(scn, t, coarse)
            b = sc.eval_truth(scn, t + 1e-3, coarse)
            assert (a != b).sum() <= 40


class TestSources:
    def test_initial_value_at_origin(self, coarse):
        _, _, h = sc.samplers(coarse)
        origin = np.argmin(np.linalg.norm(coarse.vertices, axis=1))
        assert h[origin] == pytest.approx(3.0)

    def test_interior_source_vanishes_at_origin(self, coarse):
        f_fn, _, _ = sc.samplers(coarse)
        origin = np.argmin(np.linalg.norm(coarse.centroids, axis=1))
        assert abs(f_fn(1.37)[origin]) < 1e-10 + 25 * 3 * np.linalg.norm(
            coarse.centroids[origin])

    def test_flux_formula_at_east_point(self):
        pts = np.array([[1.0, 0.0]])
        normals = np.array([[1.0, 0.0]])
        value = sc._standard_g(pts, normals, 0.0)[0]
        assert value == pytest.approx(3 * math.cos(3.0), abs=1e-12)
        assert value == pytest.approx(-2.96997, abs=1e-4)

    def test_flux_is_compatible_with_initial_value_at_t0(self, coarse):
        # g(x, 0) equals the normal derivative of h on the circle
        f_fn, g_fn, h = sc.samplers(coarse)
        bpts = coarse.vertices[coarse.boundary_vertices]
        gx = 3 * np.cos(3 * bpts[:, 0]) * np.cos(4 * bpts[:, 1])
        gy = -4 * np.sin(3 * bpts[:, 0]) * np.sin(4 * bpts[:, 1])
        expected = gx * bpts[:, 0] + gy * bpts[:, 1]
        assert np.allclose(g_fn(0.0), expected)


class TestExpressionGrammar:
    def test_arithmetic_and_constants(self):
        e = sc.parse_expression("2 + 3*t - 1/2")
        assert e(2.0) == pytest.approx(7.5)
        assert sc.parse_expression("pi")(0) == pytest.approx(math.pi)
        # an integer literal beyond the float range reads as float("1e400")
        assert sc.parse_expression("1" + "0" * 400)(0) == math.inf

    def test_trig_and_clamps(self):
        e = sc.parse_expression("max(15 - 2.5*t, 0.0)")
        assert e(0.0) == 15.0 and e(6.0) == 0.0 and e(10.0) == 0.0
        e2 = sc.parse_expression("min(2.5*t, 15)")
        assert e2(2.0) == 5.0 and e2(8.0) == 15.0
        e3 = sc.parse_expression("sin(t*pi/6)")
        assert e3(3.0) == pytest.approx(1.0)

    def test_unary_minus_and_nesting(self):
        e = sc.parse_expression("-0.7*sin(t*pi/6)")
        assert e(3.0) == pytest.approx(-0.7)
        e2 = sc.parse_expression("max(min(t, 2), -2)")
        assert e2(5) == 2 and e2(-5) == -2 and e2(0.5) == 0.5

    def test_point_expression(self):
        p = sc.parse_point_expression("(0.6*cos(t*pi/6), -0.7*sin(t*pi/6))")
        assert p(0.0) == (pytest.approx(0.6), pytest.approx(-0.0))

    def test_malformed_rejected(self):
        for text in ("2 +", "sin(1, 2)", "foo(3)", "(1, 2", "1 @ 2",
                     "t**2", "t.real", "t < 1", "True", "1j", "x[0]"):
            with pytest.raises(sc.ScenarioError):
                sc.parse_expression(text)
        with pytest.raises(sc.ScenarioError):
            sc.parse_point_expression("0.6*cos(t)")

    @settings(max_examples=200, deadline=None)
    @given(_EXPRESSIONS)
    def test_agrees_with_python_eval(self, text):
        fn = sc.parse_expression(text)
        for t in (0.0, 0.37, 7.5):
            names = {"t": t, "pi": math.pi, "sin": math.sin, "cos": math.cos,
                     "min": min, "max": max}
            expected = _outcome(
                lambda _: eval(text, {"__builtins__": {}}, names), t)
            assert _outcome(fn, t) == expected, text


class TestConfigFiles:
    def test_builtin_reference(self, tmp_path):
        path = tmp_path / "scn.cfg"
        path.write_text("[scenario]\nname = ex3\n")
        scn = sc.load_scenario_config(path)
        assert scn.name == "ex3"
        assert scn.ops[0].power == 3.0

    def test_custom_scenario_round_trip(self, tmp_path, coarse):
        path = tmp_path / "scn.cfg"
        path.write_text(
            "[scenario]\n"
            "name = custom\n"
            "horizon = 4\n"
            "ops = conductivity, potential\n"
            "[inclusion.1]\n"
            "component = 0\n"
            "radius = 0.2\n"
            "trajectory = (0.5*cos(t*pi/4), 0.5*sin(t*pi/4))\n"
            "contrast = -0.9\n"
            "[inclusion.2]\n"
            "component = 1\n"
            "radius = max(0.3 - 0.1*t, 0.0)\n"
            "trajectory = (-0.3, 0.2)\n"
            "contrast = min(5*t, 10)\n"
            "[bounds]\n"
            "0 = -0.99, 0\n"
            "1 = 0, 30\n"
            "[sources]\n"
            "set = standard\n")
        scn = sc.load_scenario_config(path)
        assert scn.horizon == 4.0
        assert len(scn.inclusions) == 2
        u = sc.eval_truth(scn, 1.0, coarse)
        inc2 = np.linalg.norm(coarse.centroids - [-0.3, 0.2], axis=1) <= 0.2
        assert np.all(u[1][inc2] == pytest.approx(5.0))

    def test_power_ops_spec(self, tmp_path):
        path = tmp_path / "scn.cfg"
        path.write_text(
            "[scenario]\nname = custom\nhorizon = 2\n"
            "ops = power_potential:3\n"
            "[inclusion.1]\ntrajectory = (0.3, 0.0)\ncontrast = 20\n"
            "[bounds]\n0 = 0, 40\n")
        scn = sc.load_scenario_config(path)
        assert scn.ops[0].kind == fem.POWER_POTENTIAL
        assert scn.ops[0].power == 3.0

    def test_missing_bounds_rejected(self, tmp_path):
        path = tmp_path / "scn.cfg"
        path.write_text(
            "[scenario]\nname = custom\nops = conductivity\n"
            "[inclusion.1]\ntrajectory = (0.3, 0.0)\ncontrast = -0.9\n")
        with pytest.raises(sc.ScenarioError):
            sc.load_scenario_config(path)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(sc.ScenarioError):
            sc.load_scenario_config(tmp_path / "absent.cfg")

    def test_utf8_symbols_equal_ascii_spelling(self, tmp_path):
        text = ("[scenario]\nname = custom\nhorizon = 4\nops = potential\n"
                "[inclusion.1]\ntrajectory = (0.5·cos(π·t/4), −0.3·sin(π·t))\n"
                "contrast = 5 − t·π\n[bounds]\n0 = 0, 30\n")
        utf8, ascii_ = tmp_path / "utf8.cfg", tmp_path / "ascii.cfg"
        utf8.write_text(text, encoding="utf-8")
        ascii_.write_text(text.replace("·", "*").replace("−", "-")
                          .replace("π", "pi"), encoding="ascii")
        a, b = sc.load_scenario_config(utf8), sc.load_scenario_config(ascii_)
        for t in np.linspace(0.0, 4.0, 41):
            assert a.inclusions[0].center(t) == b.inclusions[0].center(t)
            assert a.inclusions[0].contrast(t) == b.inclusions[0].contrast(t)

    def test_ex4_restated_is_bitwise_the_builtin(self, tmp_path, coarse):
        path = tmp_path / "ex4.cfg"
        path.write_text(EX4_CONFIG)
        restated, ex4 = sc.load_scenario_config(path), sc.builtin("ex4")
        assert restated.ops == ex4.ops and restated.horizon == ex4.horizon
        assert np.array_equal(restated.bounds, ex4.bounds)
        times = np.linspace(0.0, ex4.horizon, 1001)

        def table(scn):
            return [np.array([[*inc.center(t), inc.contrast(t)] for t in times])
                    for inc in scn.inclusions] + \
                [sc.eval_truth(scn, t, coarse) for t in times]

        got, want = table(restated), table(ex4)
        assert len(got) == len(want)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
