import math
from dataclasses import replace

import numpy as np
import pytest

import lognls.hypotheses as hypotheses_mod
import lognls.potential as potential_mod
from lognls.energy import potential_samples
from lognls.expression import expression_potential
from lognls.grid import Grid, node_axes
from lognls.hypotheses import check_V1, check_V2, check_V4, v3_diagnostic
from lognls.potential import PotentialSpec, constant_potential, model_saddle

from conftest import node_table

SADDLE = model_saddle(1.0, 1.25, 2, (0,), 0.5)


def test_model_saddle_values():
    assert SADDLE.evaluate([0.0, 0.0]) == pytest.approx(1.25)
    # constant on Y
    ys = np.column_stack([np.zeros(5), np.linspace(-8, 8, 5)])
    assert np.allclose(SADDLE.evaluate(ys.T), 1.25)
    # strictly decreasing toward c0 along X
    xs = np.column_stack([np.linspace(0, 30, 50), np.zeros(50)])
    vals = SADDLE.evaluate(xs.T)
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] == pytest.approx(1.0, abs=3e-4)


# a potential of each kind in each dimension, and expressions that read
# every axis, one axis, and the transcendental functions
CONTRACT_SPECS = [
    model_saddle(1.0, 1.25, 1, (0,), 0.5),
    SADDLE,
    constant_potential(0.7, 1),
    constant_potential(0.7, 2),
    expression_potential("1 + 0.25*z0**2/(1+z0**2) + 0.1*np.sin(3*z0)", 1, (0,)),
    expression_potential("1 + 0.25*(1+z1**2)/(1+z0**2+z1**2) + 0.1*z0/(1+z0**2)", 2, (0,)),
    expression_potential("1 + 0.2*np.tanh(5*z0)", 2, (0,)),
    expression_potential("2 + np.exp(-abs(z1))*np.cos(z0*z1) + np.sqrt(np.log(1 + z0*z0))", 2, (1,)),
]


@pytest.mark.parametrize("spec", CONTRACT_SPECS, ids=lambda s: f"{s.kind}-{s.dim}d")
def test_evaluate_takes_coordinate_arrays_and_returns_their_broadcast_shape(spec):
    # the open mesh of the node axes gives, raveled, the bits of the table's
    # columns, and so does the eps-scaled sampling
    g = Grid(spec.dim, 7.0, 33, center=(0.5, -0.25)[: spec.dim])
    table = node_table(g)
    on_mesh = spec.evaluate(node_axes(g))
    assert on_mesh.shape == g.shape
    assert on_mesh.ravel().tobytes() == spec.evaluate(table.T).tobytes()
    assert potential_samples(spec, g, 0.3).tobytes() == spec.evaluate((0.3 * table).T).tobytes()
    # scalars are coordinates too: V(0) from [0.0] * N is a 0-d value
    v0 = spec.evaluate([0.0] * spec.dim)
    assert np.shape(v0) == () and float(v0) == spec.evaluate(np.zeros((spec.dim, 1)))[0]


def test_model_saddle_cone_lower_bound():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-30, 30, size=(2000, 2))
    mask = SADDLE.in_cone(pts.T)
    vals = SADDLE.evaluate(pts[mask].T)
    assert np.all(vals > 1.0 + 0.25 * 0.25 - 1e-12)  # c0 + (c1-c0) lambda^2


def test_model_saddle_rejects_bad_constants():
    with pytest.raises(ValueError):
        model_saddle(1.0, 1.0, 2, (0,), 0.5)
    with pytest.raises(ValueError):
        model_saddle(-1.5, 1.0, 2, (0,), 0.5)


def test_potential_spec_validation():
    assert SADDLE.c2 == 1.0
    low = model_saddle(0.5, 0.6, 2, (0,), 0.5)
    assert low.c2 == 0.5
    with pytest.raises(ValueError):
        PotentialSpec(2, (0,), (0, 1), 0.5, lambda p: np.zeros(len(p)))
    with pytest.raises(ValueError):
        PotentialSpec(2, (0,), (1,), 1.5, lambda p: np.zeros(len(p)))
    # a NaN c0 or c1 fails every comparison, so the checks are negated
    for c0, c1 in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            PotentialSpec(2, (0,), (1,), 0.5, lambda p: np.zeros(len(p)), c0=c0, c1=c1)


def test_cone_membership_equivalence(rng):
    # |P_Y z| > lambda |z| must match the definitional form with y = P_Y z
    pts = rng.uniform(-10, 10, size=(1000, 2))
    direct = SADDLE.in_cone(pts.T)
    py = pts.copy()
    py[:, list(SADDLE.x_axes)] = 0.0
    inner = np.abs(np.sum(pts * py, axis=1))
    norms = np.linalg.norm(pts, axis=1) * np.linalg.norm(py, axis=1)
    witness = inner > SADDLE.lam * norms
    assert np.array_equal(direct, witness)


def test_check_v1_model_passes():
    report = check_V1(SADDLE)
    assert report["passed"] and not report["inconclusive"]
    assert report["radii"] == [1, 2, 4, 8, 16]
    expected_sups = [1 + 0.25 / (1 + r * r) for r in (1, 2, 4, 8, 16)]
    assert np.allclose(report["sup_on_x_spheres"], expected_sups, rtol=1e-12)
    assert report["cone_inf"] >= 1.0 + 0.25 * 0.25 - 1e-12
    assert all(a > b for a, b in zip(report["sup_on_x_spheres"], report["sup_on_x_spheres"][1:]))


def test_check_v1_constant_fails():
    report = check_V1(constant_potential(1.0, 2, (0,), 0.5))
    assert not report["passed"] and not report["inconclusive"]


def test_check_v1_cone_inf_monotone_in_lambda():
    infs = []
    for lam in (0.3, 0.5, 0.7, 0.9):
        spec = model_saddle(1.0, 1.25, 2, (0,), lam)
        infs.append(check_V1(spec)["cone_inf"])
    assert all(a <= b + 1e-15 for a, b in zip(infs, infs[1:]))


def test_check_v1_no_y_axes_inconclusive():
    spec = constant_potential(1.0, 1, (0,), 0.5)  # Y is empty in 1D with X = {0}
    report = check_V1(spec)
    assert report["inconclusive"]


def test_check_v2_model_bounded():
    report = check_V2(SADDLE)
    cap = max(abs(SADDLE.c0), abs(SADDLE.c1)) + abs(SADDLE.c1 - SADDLE.c0)
    assert report["max_value"] <= cap
    assert report["max_gradient"] <= 2 * abs(SADDLE.c1 - SADDLE.c0) + 1e-6
    assert report["value_bounded"] and report["gradient_bounded"] and report["second_bounded"]


def test_check_v2_kink_blows_up():
    kinked = check_V2(expression_potential("1 + abs(z0)", 2, (0,), 0.5))
    # the kink's second difference is 2 step / step^2 = 2 / step (2e4 here),
    # against about 0.5 for the smooth saddle
    assert kinked["max_second"] == pytest.approx(2.0 / hypotheses_mod._FD_STEP, rel=1e-6)
    assert kinked["max_second"] > 1e4 * check_V2(SADDLE)["max_second"]
    # which is below the cap: the second difference at a tenth of the step
    # (2e5), which no C^2 potential shows, flags it
    assert kinked["max_second"] <= hypotheses_mod._V2_CAP
    assert kinked["value_bounded"] and kinked["gradient_bounded"] and not kinked["second_bounded"]


@pytest.mark.parametrize(
    "expr",
    [
        "1 + 0.2*np.tanh(5*z0)",
        "1 + 0.25*(1+z1**2)/(1+z0**2+z1**2) + 0.1*z0/(1+z0**2)",
        # a kink that no sample lies within a step of is not seen: its second
        # differences are rounding, 1.8e-7 and 1.8e-5 at the two steps
        "1 + abs(z0-0.3)",
    ],
)
def test_check_v2_two_steps_pass_smooth_potentials(expr):
    assert check_V2(expression_potential(expr, 2, (0,), 0.5))["second_bounded"]


def test_check_v4_model_configuration():
    report = check_V4(SADDLE)
    assert report["ineq2"]  # 1.25 <= 1 + 0.3 * 1
    assert not report["ineq1_m_based"]  # 1.25 < 1 + log 2
    assert not report["ineq1_log2_based"]
    assert not report["joint_feasible"]
    assert report["conflict_under_gausson_level"]


def test_check_v4_second_inequality_boundary():
    passing = model_saddle(1.0, 1.3, 2, (0,), 0.5)
    assert check_V4(passing)["ineq2"]
    failing = model_saddle(1.0, 1.31, 2, (0,), 0.5)
    assert not check_V4(failing)["ineq2"]


def test_check_v4_first_inequality_at_v0():
    # V(0) = c0 forces m(V(0)) = m(c0) < 2 m(c0)
    report = check_V4(replace(SADDLE, evaluate=lambda z: SADDLE.c0))
    assert not report["ineq1_m_based"]
    # and V(0) above c0 + log 2 passes
    report = check_V4(replace(SADDLE, evaluate=lambda z: SADDLE.c0 + math.log(2.0) + 0.01))
    assert report["ineq1_m_based"] and report["ineq1_log2_based"]


def test_check_v4_paths_agree_on_random_pairs(rng):
    for _ in range(100):
        c0 = rng.uniform(-0.9, 3.0)
        v0 = rng.uniform(-0.9, 4.0)
        spec = constant_potential(c0, 2, (0,), 0.5)
        report = check_V4(replace(spec, evaluate=lambda z: v0))
        assert report["ineq1_m_based"] == report["ineq1_log2_based"]


def test_v3_diagnostic_model_flags_x():
    report = v3_diagnostic(SADDLE)
    dirs = np.array([s["direction"] for s in report["suspects"]])
    assert len(dirs) > 0
    # the +x escape ray must be flagged: V -> c0 with vanishing gradient
    along_x = dirs[np.abs(dirs[:, 0]) > 0.99]
    assert len(along_x) > 0


def test_v3_diagnostic_coercive_direction_clean():
    coercive = expression_potential("1 + (z0*z0 + z1*z1)/(1+np.sqrt(z0*z0+z1*z1))", 2, (0,), 0.5)
    report = v3_diagnostic(coercive)
    assert report["suspects"] == []


def test_v3_diagnostic_constant_flags_everything():
    report = v3_diagnostic(constant_potential(2.0, 2, (0,), 0.5))
    assert len(report["suspects"]) == 16


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_v3_diagnostic_lists_the_rays_it_cannot_judge():
    # the log is NaN beyond |z0| = 30, which the rays out to radius 64 reach
    # within 62 degrees of +-z0 (|cos| > 30/64): those 10 of the 16 rays are
    # listed as non-finite, not judged flat or dropped, with no NumPy
    # warning; the rays along +-z1 stay suspects
    expr = "1 + 0.25*(1+z1**2)/(1+z0**2+z1**2) + 0*np.log(30 - abs(z0))"
    report = v3_diagnostic(expression_potential(expr, 2, (0,), 0.5))
    rays = np.array(report["non_finite_rays"])
    assert len(rays) == 10
    assert np.all(np.abs(rays[:, 0]) > 30 / 64)
    suspects = np.array([s["direction"] for s in report["suspects"]])
    assert np.allclose(np.abs(suspects), [[0.0, 1.0], [0.0, 1.0]])
    assert v3_diagnostic(SADDLE)["non_finite_rays"] == []


def test_expression_potential_estimates_constants():
    spec = expression_potential("2 + 1/(1+z0*z0+z1*z1)", 2, (0,), 0.5)
    assert spec.c0 == pytest.approx(2.0, abs=1e-2)
    assert spec.c1 == pytest.approx(3.0, abs=1e-2)


@pytest.mark.parametrize(
    "expr, y_star",
    [
        # V on Y is 1.25 + 0.1 z1/(1+z1^2), least at z1 = -1 (a sample of the line)
        ("1 + 0.25*(1+z1**2)/(1+z0**2+z1**2) + 0.1*z1/(1+z1**2)", (0.0, -1.0)),
        # exactly 1.25 on Y: no sample undercuts V(0), so y* is the origin
        ("1 + 0.25*(1+z1**2)/(1+z0**2+z1**2) + 0.1*z0/(1+z0**2)", (0.0, 0.0)),
        ("1 + 0.25*(1+z1**2)/(1+z0**2+z1**2)", (0.0, 0.0)),
        # the least sample of 20001 on [-20, 20], spacing 0.002, near z1 = 0.7
        ("1.25 + 0.1*(z1 - 0.7)**2 + 0.1*z0**2", (0.0, 0.7)),
    ],
)
def test_y_star_is_the_least_sample_of_v_on_y(expr, y_star):
    spec = expression_potential(expr, 2, (0,), 0.5)
    assert spec.y_star == pytest.approx(y_star, abs=1e-3)
    assert "y_star" not in spec.describe()


def test_y_star_is_the_origin_without_a_sampled_y_line():
    assert SADDLE.y_star == (0.0, 0.0)
    assert constant_potential(1.0, 1).y_star == (0.0,)
    # a one-dimensional X leaves Y empty; a two-axis X likewise
    assert expression_potential("1 + 0.1*np.sin(z0)", 1, (0,), 0.5).y_star == (0.0,)
    assert expression_potential("1 + 0.1*np.sin(z1)", 2, (0, 1), 0.5).y_star == (0.0, 0.0)


def test_sample_on_grid():
    from lognls.energy import potential_samples
    from lognls.grid import Grid

    g = Grid(2, 7.0, 33)
    values = potential_samples(SADDLE, g, 0.5)
    assert values.shape == (33 * 33,)
    center = (g.num_nodes - 1) // 2
    assert values[center] == pytest.approx(1.25)


def test_c2_recomputed_on_replace():
    import dataclasses

    spec = model_saddle(2.0, 2.5, 2, (0,), 0.5)
    assert spec.c2 == 1.0
    lowered = dataclasses.replace(spec, c0=0.25)
    assert lowered.c2 == 0.25


# the expressions used in this module, each also written as Python code
PYTHON_FORMS = [
    ("1 + abs(z0)", lambda z0, z1: 1 + np.abs(z0)),
    (
        "1 + (z0*z0 + z1*z1)/(1+np.sqrt(z0*z0+z1*z1))",
        lambda z0, z1: 1 + (z0 * z0 + z1 * z1) / (1 + np.sqrt(z0 * z0 + z1 * z1)),
    ),
    ("2 + 1/(1+z0*z0+z1*z1)", lambda z0, z1: 2 + 1 / (1 + z0 * z0 + z1 * z1)),
]


@pytest.mark.parametrize("expr, python_form", PYTHON_FORMS)
def test_expression_potential_bit_identical_to_python_arithmetic(rng, expr, python_form):
    spec = expression_potential(expr, 2, (0,), 0.5)
    pts = np.vstack([rng.uniform(-20.0, 20.0, (400, 2)), np.zeros((1, 2)), [[0.0, 3.5], [-7.25, 0.0]]])
    got = spec.evaluate(pts.T)
    assert got.tobytes() == python_form(pts[:, 0], pts[:, 1]).tobytes()


def test_expression_potential_ufuncs_and_unary_minus():
    expr = (
        "2 + np.sin(z0)*np.cos(z0) - np.exp(-abs(z0))*np.tanh(np.arctan(z0))**2"
        " + -np.log(1 + 1/(1 + z0*z0)) + np.sqrt(np.abs(z0))"
    )
    spec = expression_potential(expr, 1, (0,))
    z0 = np.linspace(-3.0, 3.0, 13)
    want = (
        2 + np.sin(z0) * np.cos(z0) - np.exp(-np.abs(z0)) * np.tanh(np.arctan(z0)) ** 2
        + -np.log(1 + 1 / (1 + z0 * z0)) + np.sqrt(np.abs(z0))
    )
    assert spec.evaluate([z0]).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "expr",
    [
        "__import__('os')",
        "().__class__",
        "z0.__class__",
        "np.load",
        "np.load('v.npy')",
        "z2",
        "abs(z0, z1)",
        "np.sqrt(x=z0)",
        "z0 if z0 else z1",
        "[z0][0]",
        "True + z0",
        "z0 // 2",
        "1 +",
    ],
)
def test_expression_potential_rejects_everything_else(expr):
    with pytest.raises(ValueError):
        expression_potential(expr, 2, (0,), 0.5)


def test_expression_potential_coordinates_follow_dimension():
    with pytest.raises(ValueError):
        expression_potential("1 + z1*z1", 1, (0,))


def _linspace_box(dim, radius, side):
    """A sample box as the checkers built it before the tensor-mesh helper."""
    ax = np.linspace(-radius, radius, side)
    if dim == 1:
        return ax[:, None]
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


@pytest.mark.parametrize(
    "dim, expr",
    [
        (1, "1 + 0.25*z0**2/(1+z0**2) + 0.1*np.sin(3*z0)"),
        (2, "1 + 0.25*(1+z1**2)/(1+z0**2+z1**2) + 0.01*np.cos(z0*z1)"),
    ],
)
def test_sample_boxes_are_the_linspace_boxes(dim, expr):
    spec = expression_potential(expr, dim, (0,), 0.5)
    # c0 and c1 from the box of the integer dim-th root of 20001 points per axis
    pts = _linspace_box(dim, 20.0, 20001 if dim == 1 else 141)
    on_x = pts.copy()
    on_x[:, 1:] = 0.0
    assert spec.c0 == float(np.min(spec.evaluate(pts.T)))
    assert spec.c1 == max(float(np.max(spec.evaluate(on_x.T))), spec.c0)
    # check_V2 evaluates its box first, then the shifted copies
    seen = []
    spy = replace(spec, evaluate=lambda z: seen.append(np.broadcast_arrays(*z)) or spec.evaluate(z))
    report = check_V2(spy)
    pts = _linspace_box(dim, 10.0, 41)
    assert np.array_equal(np.column_stack([x.ravel() for x in seen[0]]), pts)
    assert report["max_value"] == float(np.max(np.abs(spec.evaluate(pts.T))))
    step = 1e-4
    grads = [np.max(np.abs(spec.evaluate((pts + step * e).T) - spec.evaluate((pts - step * e).T))) / (2 * step) for e in np.eye(dim)]
    assert report["max_gradient"] == float(max(grads))


def test_subspace_sphere_refuses_three_axes():
    # the circle sampler would silently drop the third axis
    with pytest.raises(ValueError, match=r"\(0, 1, 2\)"):
        potential_mod._subspace_sphere(3, (0, 1, 2), 1.0, 16)
    circle = potential_mod._subspace_sphere(3, (0, 2), 2.0, 16)
    assert np.allclose(np.linalg.norm(circle, axis=1), 2.0)
    assert not np.any(circle[:, 1])
