import numpy as np
import pytest

from dpvi import visolve
from dpvi.expr import parse_expression
from dpvi.mesh import FeFunction, build_mesh, fe_interpolate
from dpvi.multifun import (
    IntervalMultifunction,
    TruncatedMultifunction,
    TruncationData,
    TwoArgIntervalMultifunction,
    assemble_source,
    compensator,
    cutoff,
    penalty,
    penalty_slope,
    pick_endpoint,
    truncate_multifunction,
)
from dpvi.spaces import ExponentData


@pytest.fixture
def mesh1d():
    return build_mesh(1, 4)


def test_eval_interval(mesh1d):
    f = IntervalMultifunction(mesh1d, "s - 1", "s + 1")
    lo, hi = f.eval_interval(np.array([[0.5]]), np.array([2.0]))
    assert (lo[0], hi[0]) == (1.0, 3.0)


def test_eval_interval_degenerate(mesh1d):
    f = IntervalMultifunction(mesh1d, "s", "s")
    lo, hi = f.eval_interval(np.array([[0.5]]), np.array([2.0]))
    assert lo[0] == hi[0] == 2.0


def test_eval_interval_order_violation(mesh1d):
    f = IntervalMultifunction(mesh1d, "s", "-s")
    with pytest.raises(ValueError, match="out of order"):
        f.eval_interval(np.array([[0.5]]), np.array([1.0]))


def test_two_arg_endpoints_checked_like_one_arg(mesh1d):
    # an AST with an unknown variable is rejected when the reaction is built
    with pytest.raises(ValueError, match=r"j1 uses unknown variables \['z'\]"):
        TwoArgIntervalMultifunction(mesh1d, parse_expression("z", ("z",)), "1")
    with pytest.raises(ValueError, match=r"f2 uses unknown variables \['r'\]"):
        IntervalMultifunction(mesh1d, "0", parse_expression("r", ("r",)))
    # endpoints out of order name the worst point, here the largest x
    j = TwoArgIntervalMultifunction(mesh1d, "x - 0.5", "0")
    pts = mesh1d.quad_points
    zero = np.zeros(pts.shape[:-1])
    with pytest.raises(ValueError, match=r"\(j1 > j2\) at point") as err:
        j.eval_interval(pts, zero, zero)
    assert f"at point ({float(pts.max())},)" in str(err.value)


def test_selection_rules(mesh1d):
    f = IntervalMultifunction(mesh1d, "s - 1", "s + 1")
    u = FeFunction.zero(mesh1d)
    np.testing.assert_allclose(f.select(u, "upper"), 1.0)
    np.testing.assert_allclose(f.select(u, "lower"), -1.0)
    np.testing.assert_allclose(f.select(u, "midpoint"), 0.0)
    g = IntervalMultifunction(mesh1d, "1 + s", "1 + s")  # single valued: rules agree
    for rule in ("lower", "upper", "midpoint"):
        np.testing.assert_allclose(g.select(u, rule), 1.0)
    # midpoint of [1, 3]
    h = IntervalMultifunction(mesh1d, "1", "3")
    np.testing.assert_allclose(h.select(u, "midpoint"), 2.0)


def test_state_free_selection_computed_once(mesh1d):
    f = IntervalMultifunction(mesh1d, "x - 1", "2 * x")
    u, v = fe_interpolate("x", mesh1d), fe_interpolate("1 - x", mesh1d)
    lo, hi = f.eval_interval(mesh1d.quad_points, np.zeros(mesh1d.quad_weights.shape))
    for rule, expected in (("lower", lo), ("upper", hi), ("midpoint", 0.5 * (lo + hi))):
        eta = f.select(u, rule)
        assert f.select(v, rule) is eta and not eta.flags.writeable
        np.testing.assert_array_equal(eta, expected)
    g = IntervalMultifunction(mesh1d, "s - 1", "s + 1")
    assert g.reads_s and not f.reads_s
    np.testing.assert_array_equal(g.select(v, "lower"), g.layout.values(v.coeffs) - 1)


def test_cutoff_values():
    assert cutoff(-1.0) == 1.0
    assert cutoff(0.25) == 0.75
    assert cutoff(2.0) == 0.0
    np.testing.assert_allclose(cutoff(np.array([0.0, 0.5, 1.0])), [1.0, 0.5, 0.0])


def make_td(mesh, lo=-1.0, hi=1.0):
    return TruncationData(FeFunction.constant(mesh, lo), FeFunction.constant(mesh, hi))


def test_penalty_branches(mesh1d):
    ed = ExponentData.from_expressions(mesh1d, "2", "3", "0")
    td = make_td(mesh1d)
    shape = mesh1d.quad_weights.shape
    s = np.full(shape, 2.0)
    np.testing.assert_allclose(penalty(td, ed.q, s), 1.0)  # (2-1)^2
    np.testing.assert_allclose(penalty(td, ed.q, np.zeros(shape)), 0.0)
    np.testing.assert_allclose(penalty(td, ed.q, np.full(shape, -3.0)), -4.0)  # -(1-(-3)-1)^2? no: -((-1)-(-3))^2 = -4


def test_penalty_sign_pushes_inward(mesh1d):
    ed = ExponentData.from_expressions(mesh1d, "2", "2.5", "0")
    td = make_td(mesh1d)
    rng = np.random.default_rng(0)
    s = rng.uniform(-4, 4, size=mesh1d.quad_weights.shape)
    b = penalty(td, ed.q, s)
    lo = td.lower.values_at_quad()
    hi = td.upper.values_at_quad()
    assert np.all(b * (s - np.clip(s, lo, hi)) >= 0.0)


def test_penalty_growth_bound(mesh1d):
    # |b(x,s)| <= a1 + C |s|^(q-1) with constants from the bounds
    ed = ExponentData.from_expressions(mesh1d, "2", "3", "0")
    td = make_td(mesh1d, -0.5, 2.0)
    qm = 3.0
    a1 = (np.abs(td.lower.coeffs).max() + np.abs(td.upper.coeffs).max()) ** (qm - 1.0)
    C = 2.0 ** (qm - 1.0)
    rng = np.random.default_rng(1)
    s = rng.uniform(-50, 50, size=mesh1d.quad_weights.shape)
    b = penalty(td, ed.q, s)
    assert np.all(np.abs(b) <= a1 + C * np.abs(s) ** (qm - 1.0) + 1e-12)


def test_penalty_coercivity_ratio(mesh1d):
    # integral b(x, t u) t u over integral |t u|^q stays bounded below as t grows
    ed = ExponentData.from_expressions(mesh1d, "2", "3", "0")
    td = make_td(mesh1d)
    rng = np.random.default_rng(2)
    u = rng.normal(size=mesh1d.quad_weights.shape)
    w = mesh1d.quad_weights
    ratios = []
    for t in (10.0, 100.0, 1000.0):
        s = t * u
        ratios.append(float(np.sum(w * penalty(td, ed.q, s) * s) / np.sum(w * np.abs(s) ** 3)))
    assert all(r > 0.1 for r in ratios)
    assert ratios[-1] > 0.5  # the bound contribution washes out as t grows


def test_penalty_slope_nonnegative(mesh1d):
    ed = ExponentData.from_expressions(mesh1d, "2", "1.5", "0")
    td = make_td(mesh1d)
    s = np.linspace(-3, 3, mesh1d.quad_weights.size).reshape(mesh1d.quad_weights.shape)
    assert np.all(penalty_slope(td, ed.q, s) >= 0.0)


def test_truncation_branches(mesh1d):
    f = IntervalMultifunction(mesh1d, "s - 1", "s + 1")
    td = make_td(mesh1d, -1.0, 1.0)
    f0 = truncate_multifunction(f, td)
    pts = mesh1d.quad_points
    shape = mesh1d.quad_weights.shape

    inside = np.zeros(shape)
    lo, hi = f0.eval_interval(pts, inside)
    np.testing.assert_allclose(lo, -1.0)
    np.testing.assert_allclose(hi, 1.0)

    eta_lower, eta_upper = f0.frozen
    np.testing.assert_array_equal(eta_lower, f.select(td.lower, "lower"))
    np.testing.assert_array_equal(eta_upper, f.select(td.upper, "upper"))
    below = np.full(shape, -5.0)
    lo, hi = f0.eval_interval(pts, below)
    np.testing.assert_allclose(lo, eta_lower)
    np.testing.assert_allclose(hi, eta_lower)

    above = np.full(shape, 9.0)
    lo, hi = f0.eval_interval(pts, above)
    np.testing.assert_allclose(lo, eta_upper)
    np.testing.assert_allclose(hi, eta_upper)


def test_truncation_growth_bound(mesh1d):
    # |f0| <= k + |eta_lower| + |eta_upper| for k bounding |f| on the interval
    f = IntervalMultifunction(mesh1d, "s - 1", "s + 1")
    td = make_td(mesh1d, -1.0, 1.0)
    f0 = truncate_multifunction(f, td)
    k = 2.0  # sup |f| over s in [-1, 1]
    bound = k + np.abs(f0.frozen[0]) + np.abs(f0.frozen[1])
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = rng.uniform(-10, 10, size=mesh1d.quad_weights.shape)
        lo, hi = f0.eval_interval(mesh1d.quad_points, s)
        assert np.all(np.maximum(np.abs(lo), np.abs(hi)) <= bound + 1e-12)


def test_truncation_idempotence_inside(mesh1d):
    f = IntervalMultifunction(mesh1d, "s - 1", "s + 1")
    td = make_td(mesh1d, -1.0, 1.0)
    f0 = truncate_multifunction(f, td)
    ed = ExponentData.from_expressions(mesh1d, "2", "3", "0")
    rng = np.random.default_rng(4)
    for _ in range(20):
        u = FeFunction(mesh1d, rng.uniform(-1.0, 1.0, size=mesh1d.n_nodes))
        s = u.values_at_quad()
        lo0, hi0 = f0.eval_interval(mesh1d.quad_points, s)
        lo, hi = f.eval_interval(mesh1d.quad_points, s)
        assert np.array_equal(lo0, lo) and np.array_equal(hi0, hi)
        assert np.all(penalty(td, ed.q, s) == 0.0)


def _bits(a):
    return a.dtype, a.shape, a.tobytes()


def _truncated_on_gamma_mesh(f1, f2, on_boundary):
    # bounds -0.3 <= 0.4 + x; states below, between and above them, then one across them
    mesh = build_mesh(2, 4, "x - 0.5")
    f = IntervalMultifunction(mesh, f1, f2, on_boundary=on_boundary)
    td = TruncationData(FeFunction.constant(mesh, -0.3), fe_interpolate("0.4 + x", mesh))
    rng = np.random.default_rng(61)
    states = [FeFunction.constant(mesh, c) for c in (-2.0, 0.0, 2.0)]
    states.append(FeFunction(mesh, rng.uniform(-2.0, 2.0, size=mesh.n_nodes)))
    return f, td, states


@pytest.mark.parametrize("on_boundary", [False, True])
@pytest.mark.parametrize("rule", ["lower", "upper", "midpoint"])
def test_fixed_truncated_selection(rule, on_boundary, monkeypatch):
    # a state-free single-valued reaction equals its truncation below, between
    # and above the bounds, bitwise, so it truncates to itself
    f, td, states = _truncated_on_gamma_mesh("2 - x*y", "2 - x*y", on_boundary)
    assert truncate_multifunction(f, td) is f and not f.reads_s
    built = TruncatedMultifunction(f, td)
    assert built.reads_s
    for u in states:
        assert _bits(f.select(u, rule)) == _bits(built.select(u, rule))

    # its zero slope is bitwise the central difference through the truncation
    central = []
    for u in states:
        s = built.layout.values(u.coeffs)
        ds = 1e-6 * (1.0 + np.abs(s))
        plus, minus = (pick_endpoint(rule, *built.eval_interval(built.layout.points, s + sign * ds))
                       for sign in (1.0, -1.0))
        central.append(np.clip((plus - minus) / (2.0 * ds), -1e10, 1e10))

    def no_eval(*args):
        raise AssertionError("a state-free reaction was evaluated for its slope")

    monkeypatch.setattr(IntervalMultifunction, "eval_interval", no_eval)
    for u, want in zip(states, central):
        slope = visolve._selection_slope(f, u, rule)
        assert not slope.any() and _bits(slope) == _bits(want)


@pytest.mark.parametrize("rule", ["lower", "upper", "midpoint"])
@pytest.mark.parametrize("f1, f2", [("-1", "1"), ("s - 1", "s - 1")])
def test_truncation_that_jumps_or_reads_s_is_not_fixed(f1, f2, rule):
    # f = [-1, 1] truncates to -1 below and +1 above, and f = s - 1 reads s: each
    # gets a truncation, whose selection varies with the state
    f, td, states = _truncated_on_gamma_mesh(f1, f2, on_boundary=False)
    f0 = truncate_multifunction(f, td)
    assert isinstance(f0, TruncatedMultifunction) and f0.reads_s
    below, between, above, across = (f0.select(u, rule) for u in states)
    assert _bits(below) == _bits(f.select(td.lower, "lower"))
    assert _bits(above) == _bits(f.select(td.upper, "upper"))
    np.testing.assert_array_equal(between, f.select(states[1], rule))
    assert _bits(below) != _bits(above)
    assert _bits(across) not in {_bits(below), _bits(between), _bits(above)}


def test_compensator_identical_selections_vanish(mesh1d):
    shape = mesh1d.quad_weights.shape
    eta = np.full(shape, 2.0)
    t = compensator("lower", eta, eta, np.full(shape, -1.0), np.full(shape, -0.5), np.zeros(shape))
    assert np.all(t == 0.0)


def test_compensator_lower_branches():
    # member bound -1, combined bound 0: below the member bound the full
    # amplitude is active, above the combined bound nothing is
    amp_here, amp_comb = 3.0, 1.0
    for s, expected in ((-2.0, 2.0), (0.5, 0.0), (-0.5, 1.0)):
        t = compensator(
            "lower",
            np.array(amp_here),
            np.array(amp_comb),
            np.array(-1.0),
            np.array(0.0),
            np.array(s),
        )
        assert t == pytest.approx(expected)


def test_compensator_upper_branches():
    # combined bound 0, member bound 1: above the member bound the full
    # amplitude is active, below the combined bound nothing is
    for s, expected in ((2.0, 2.0), (-0.5, 0.0), (0.5, 1.0)):
        t = compensator(
            "upper",
            np.array(3.0),
            np.array(1.0),
            np.array(1.0),
            np.array(0.0),
            np.array(s),
        )
        assert t == pytest.approx(expected)


def test_compensator_bounds():
    rng = np.random.default_rng(5)
    for _ in range(50):
        sel_here, sel_comb = rng.normal(size=2)
        b_here = rng.normal()
        b_comb = b_here + rng.uniform(0.1, 2.0)
        s = rng.normal() * 3
        t = compensator(
            "lower",
            np.array(sel_here),
            np.array(sel_comb),
            np.array(b_here),
            np.array(b_comb),
            np.array(s),
        )
        assert 0.0 <= t <= abs(sel_here - sel_comb) + 1e-15


def test_compensator_degenerate_denominator():
    same = np.array(1.0)
    t = compensator("lower", np.array(5.0), np.array(2.0), same, same, np.array(0.0))
    assert t == 0.0


def test_assemble_source_zero_and_hat(mesh1d):
    shape = mesh1d.quad_weights.shape
    np.testing.assert_array_equal(assemble_source(np.zeros(shape), mesh1d), 0.0)
    m2 = build_mesh(1, 2)
    vec = assemble_source(np.ones(m2.quad_weights.shape), m2)
    assert vec[1] == pytest.approx(0.5, abs=1e-14)  # integral of the middle hat


def test_assemble_source_empty_gamma(mesh1d):
    # all-essential boundary: gamma assembly yields the zero vector
    vec = assemble_source(np.zeros((0, 1)), mesh1d, where="boundary_gamma")
    np.testing.assert_array_equal(vec, 0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_assemble_source_without_facets_is_float(dim):
    # np.bincount of an empty index list counts in int64, weights or not
    mesh = build_mesh(dim, 4)
    nq = mesh.layout("boundary_gamma").weights.shape[1]
    vec = assemble_source(np.zeros((0, nq)), mesh, "boundary_gamma")
    assert vec.dtype == np.float64 and vec.shape == (mesh.n_nodes,)
    np.testing.assert_array_equal(vec, 0.0)


def test_assemble_source_boundary_point_mass():
    m = build_mesh(1, 2, "x - 0.5")  # right endpoint gamma
    vec = assemble_source(np.ones(m.layout("boundary_gamma").weights.shape), m,
                          where="boundary_gamma")
    expected = np.zeros(m.n_nodes)
    expected[-1] = 1.0
    np.testing.assert_allclose(vec, expected)


def test_assemble_source_layout_mismatch(mesh1d):
    with pytest.raises(ValueError):
        assemble_source(np.zeros((3, 3)), mesh1d)


def test_two_arg_monotonicity_check(mesh1d):
    good = TwoArgIntervalMultifunction(mesh1d, "-1 - r", "1 - r")
    rep = good.check_monotone(r_values=(-1.0, 0.0, 1.0), s_values=(0.0, 1.0))
    assert rep["lower_nonincreasing"] and rep["upper_nonincreasing"]
    bad = TwoArgIntervalMultifunction(mesh1d, "r - 1", "r + 1")
    rep = bad.check_monotone(r_values=(-1.0, 0.0, 1.0), s_values=(0.0,))
    assert not rep["lower_nonincreasing"]


def test_two_arg_freeze(mesh1d):
    j = TwoArgIntervalMultifunction(mesh1d, "s - r - 1", "s - r + 1")
    r = fe_interpolate("x", mesh1d)
    frozen = j.freeze(r)
    u = FeFunction.zero(mesh1d)
    lo, hi = frozen.eval_interval(mesh1d.quad_points, u.values_at_quad())
    xq = mesh1d.quad_points[:, :, 0]
    np.testing.assert_allclose(lo, -xq - 1.0, atol=1e-13)
    np.testing.assert_allclose(hi, -xq + 1.0, atol=1e-13)
