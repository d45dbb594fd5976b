import numpy as np
import pytest

from dpvi.mesh import FeFunction, build_mesh, fe_interpolate
from dpvi.spaces import ExponentData, ModularKind, luxemburg_norm, modular, validate_exponents


def exponents(mesh, p, q, mu):
    return ExponentData.from_expressions(mesh, p, q, mu)


# -- hypothesis validation ---------------------------------------------------


def test_validate_flags_p_equal_dimension():
    m = build_mesh(2, 2)
    ed = exponents(m, "2", "3", "1")
    report = validate_exponents(ed)
    conds = [v["condition"] for v in report.violations]
    assert "p(x) < N" in conds
    # q < p* passes by the p* = +inf convention at p = N
    assert "q(x) < p*(x)" not in conds


def test_validate_clean_pair():
    m = build_mesh(2, 2)
    report = validate_exponents(exponents(m, "1.5", "2", "0"))
    assert report.ok
    # p* = 2*1.5/0.5 = 6 pointwise: q = 7 misses it by 1, q = 5.99 clears it
    (v,) = validate_exponents(exponents(m, "1.5", "7", "0")).violations
    assert v["condition"] == "q(x) < p*(x)"
    assert v["worst_margin"] == pytest.approx(1.0, abs=1e-12)
    assert validate_exponents(exponents(m, "1.5", "5.99", "0")).ok


def test_validate_flags_supercritical_q():
    m = build_mesh(2, 2)
    report = validate_exponents(exponents(m, "1.5", "7", "0"))
    assert any(v["condition"] == "q(x) < p*(x)" for v in report.violations)


def test_validate_1d_convention():
    m = build_mesh(1, 4)
    report = validate_exponents(exponents(m, "2", "3", "1"))
    assert report.ok
    assert any("N = 1" in note for note in report.notes)
    # p* = +inf: no q is supercritical
    assert validate_exponents(exponents(m, "2", "1000", "1")).ok


def test_validate_flags_negative_mu_and_order():
    m = build_mesh(1, 4)
    report = validate_exponents(exponents(m, "3", "2", "0 - 1"))
    conds = {v["condition"] for v in report.violations}
    assert "p(x) < q(x)" in conds and "mu(x) >= 0" in conds


def test_scalar_bounds():
    m = build_mesh(1, 8)
    ed = exponents(m, "1.5 + x", "3 + x", "x")
    assert ed.p_minus == pytest.approx(np.min(ed.p))
    assert ed.p_plus == pytest.approx(np.max(ed.p))
    assert ed.q_minus == pytest.approx(np.min(ed.q))
    assert ed.q_plus == pytest.approx(np.max(ed.q))


# -- modulars ----------------------------------------------------------------


def test_modular_zero_function():
    m = build_mesh(1, 4)
    ed = exponents(m, "2", "3", "x")
    z = FeFunction.zero(m)
    for kind in (ModularKind.lebesgue(), ModularKind.sobolev()):
        assert modular(kind, ed, z) == 0.0


def test_modular_constant_with_linear_weight():
    # p=2, q=3, mu(x)=x, u=2: integral of 4 + 8x over (0,1) equals 8
    m = build_mesh(1, 5)
    ed = exponents(m, "2", "3", "x")
    u = FeFunction.constant(m, 2.0)
    assert modular(ModularKind.lebesgue(), ed, u) == pytest.approx(8.0, abs=1e-12)


def test_sobolev_modular_linear_function():
    # |u'|^2 + |u|^2 with u = x: 1 + 1/3
    m = build_mesh(1, 4)
    ed = exponents(m, "2", "3", "0")
    u = fe_interpolate("x", m)
    assert modular(ModularKind.sobolev(), ed, u) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_mu_zero_reduction():
    m = build_mesh(1, 16)
    ed = exponents(m, "1.7 + 0.2*x", "2.5", "0")
    rng = np.random.default_rng(3)
    for _ in range(5):
        u = FeFunction(m, rng.normal(size=m.n_nodes))
        a = modular(ModularKind.lebesgue(), ed, u)
        b = float(np.sum(m.quad_weights * np.abs(u.values_at_quad()) ** ed.p))
        assert abs(a - b) <= 1e-14 * max(1.0, abs(a))


# -- Luxemburg norms ----------------------------------------------------------


def test_norm_of_zero():
    m = build_mesh(1, 4)
    ed = exponents(m, "2", "3", "1")
    assert luxemburg_norm(ModularKind.lebesgue(), ed, FeFunction.zero(m)) == 0.0


def test_norm_constant_one_l2():
    m = build_mesh(1, 4)
    ed = exponents(m, "2", "3", "0")
    u = FeFunction.constant(m, 1.0)
    assert luxemburg_norm(ModularKind.lebesgue(), ed, u) == pytest.approx(1.0, abs=1e-10)


def _plastic_number(tol=1e-14):
    # positive root of t^3 + t^2 = 1 gives lambda = 1/t; equivalently
    # lambda solves lambda^3 = lambda + 1
    lo, hi = 1.0, 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid**3 - mid - 1.0 < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_norm_plastic_number():
    m = build_mesh(1, 4)
    ed = exponents(m, "2", "3", "1")
    u = FeFunction.constant(m, 1.0)
    lam = luxemburg_norm(ModularKind.lebesgue(), ed, u)
    assert lam == pytest.approx(_plastic_number(), abs=1e-9)
    assert lam == pytest.approx(1.3247180, abs=1e-6)


def test_unit_ball_identity_random():
    rng = np.random.default_rng(11)
    for dim, n in ((1, 8), (2, 4)):
        m = build_mesh(dim, n)
        ed = exponents(m, "1.5", "2.5", "0.5 + 0.5*x")
        for _ in range(10):
            u = FeFunction(m, rng.normal(size=m.n_nodes))
            lam = luxemburg_norm(ModularKind.sobolev(), ed, u)
            assert modular(ModularKind.sobolev(), ed, u * (1.0 / lam)) == pytest.approx(
                1.0, abs=1e-9
            )


def test_small_and_large_ball_bounds():
    rng = np.random.default_rng(5)
    m = build_mesh(1, 16)
    ed = exponents(m, "1.5", "2.5", "x")
    kind = ModularKind.sobolev()
    for _ in range(10):
        u = FeFunction(m, rng.normal(size=m.n_nodes))
        lam = luxemburg_norm(kind, ed, u)
        small = u * (0.5 / lam)
        ns = luxemburg_norm(kind, ed, small)
        rho = modular(kind, ed, small)
        assert ns**ed.q_plus <= rho * (1 + 1e-8) + 1e-10
        assert rho <= ns**ed.p_minus * (1 + 1e-8) + 1e-10
        big = u * (2.0 / lam)
        nb = luxemburg_norm(kind, ed, big)
        rho = modular(kind, ed, big)
        assert nb**ed.p_minus <= rho * (1 + 1e-8) + 1e-10
        assert rho <= nb**ed.q_plus * (1 + 1e-8) + 1e-10


def test_norm_homogeneity():
    rng = np.random.default_rng(9)
    m = build_mesh(1, 8)
    ed = exponents(m, "2", "3", "1")
    u = FeFunction(m, rng.normal(size=m.n_nodes))
    kind = ModularKind.sobolev()
    base = luxemburg_norm(kind, ed, u)
    for t in (0.25, 0.5, 2.0, 7.5):
        assert luxemburg_norm(kind, ed, u * t) == pytest.approx(t * base, abs=1e-10)


def test_modular_monotone_in_scale():
    rng = np.random.default_rng(13)
    m = build_mesh(1, 8)
    ed = exponents(m, "1.5", "2.2", "x")
    u = FeFunction(m, rng.normal(size=m.n_nodes))
    kind = ModularKind.lebesgue()
    values = [modular(kind, ed, u * t) for t in (0.1, 0.5, 1.0, 2.0, 4.0)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("kind", ["variable_lp", "weighted_lq", "H"])
def test_modular_kind_is_one_of_the_two_H_modulars(kind):
    with pytest.raises(ValueError, match="unknown modular kind"):
        ModularKind(kind)


def _bisection_norm(kind, ed, u, guess):
    # independent oracle: bisect modular(u/lam) = 1 down to adjacent floats
    def rho(lam):
        return modular(kind, ed, u * (1.0 / lam))

    lo = hi = guess
    while rho(hi) > 1.0:
        hi *= 2.0
    while rho(lo) < 1.0:
        lo *= 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if rho(mid) >= 1.0:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("p, q", [("1.05", "6"), ("1.2", "2")])
@pytest.mark.parametrize("scale", [1e-100, 1e-6, 1.0, 1e6, 1e100])
@pytest.mark.parametrize("kind", [ModularKind.sobolev(), ModularKind.lebesgue()],
                         ids=["sobolev_H", "lebesgue_H"])
def test_norm_matches_bisection_oracle(p, q, scale, kind):
    # 1e-100 and 1e100 lie far from the start lambda = 1 (the modular of u
    # itself overflows at 1e100); the norm works on log-scaled terms
    rng = np.random.default_rng(17)
    m = build_mesh(1, 16)
    ed = exponents(m, p, q, "0.5 + x")
    u = FeFunction(m, scale * rng.normal(size=m.n_nodes))
    lam = luxemburg_norm(kind, ed, u)
    assert lam == pytest.approx(_bisection_norm(kind, ed, u, scale), rel=1e-12)


def test_norm_needs_few_modular_evaluations(monkeypatch):
    from dpvi import spaces

    calls = []
    for name in ("_log_modular", "_modular_from_samples"):

        def counted(*args, _original=getattr(spaces, name), **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(spaces, name, counted)
    rng = np.random.default_rng(23)
    for dim, n in ((1, 32), (2, 6)):
        m = build_mesh(dim, n)
        ed = exponents(m, "1.05", "6", "x")
        for scale in (1e-6, 1.0, 1e6):
            for kind in (ModularKind.sobolev(), ModularKind.lebesgue()):
                u = FeFunction(m, scale * rng.normal(size=m.n_nodes))
                calls.clear()
                luxemburg_norm(kind, ed, u)
                assert 1 <= len(calls) <= 12


@pytest.mark.parametrize("dim,n", [(1, 16), (2, 6)])
@pytest.mark.parametrize("kind", [ModularKind.sobolev(), ModularKind.lebesgue()],
                         ids=["sobolev_H", "lebesgue_H"])
def test_norm_is_homogeneous_at_extreme_scales(dim, n, kind):
    # |grad u| is taken without squaring, which would underflow at 1e-300 (the
    # gradient term vanishing) and overflow at 1e300
    m = build_mesh(dim, n)
    ed = exponents(m, "1.05", "6", "1")
    g = FeFunction(m, np.random.default_rng(29).normal(size=m.n_nodes))
    base = luxemburg_norm(kind, ed, g)
    for s in (1e-300, 1e300):
        assert luxemburg_norm(kind, ed, g * s) == pytest.approx(s * base, rel=1e-12)


# -- the norm against the per-term evaluation it replaced ---------------------


def _per_term(kind, ed, u):
    # (weight, exponent, magnitude) per term, one loop iteration each:
    # (p, |u|), (q, |u|), then for sobolev_H (p, |grad u|), (q, |grad u|)
    w = ed.mesh.quad_weights
    a = np.abs(u.values_at_quad())
    mags = [a]
    if kind.kind == "sobolev_H":
        mags.append(np.broadcast_to(u.gradient_magnitude()[:, None], a.shape))
    return [(weight, exponent, mag) for mag in mags
            for weight, exponent in ((w, ed.p), (w * ed.mu, ed.q))]


def _per_term_modular(terms, scale=1.0):
    # a term of weight 0 adds 0, also where its power overflows
    return float(sum(np.sum(np.where(weight == 0, 0.0, weight * (mag * scale) ** exponent))
                     for weight, exponent, mag in terms))


def _per_term_norm(kind, ed, u):
    # the reference: checks, logarithms, Newton on log modular and the final
    # modular check, each taken one term at a time
    terms = _per_term(kind, ed, u)
    logc, r = [], []
    for weight, exponent, mag in terms:
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(mag))):
            raise ValueError("modular is not finite; cannot compute the norm")
        if np.any((weight < 0) & (mag > 0)):
            raise ValueError("the modular has a negative weight mu(x) < 0; no norm exists")
        keep = (weight > 0) & (mag > 0)
        logc.append(np.log(weight[keep]) + exponent[keep] * np.log(mag[keep]))
        r.append(exponent[keep])
    logc, r = np.concatenate(logc), np.concatenate(r)
    if logc.size == 0:
        return 0.0
    tau = 0.0
    for _ in range(50):
        e = logc + r * tau
        top = np.max(e)
        t = np.exp(e - top)
        total = np.sum(t)
        step = (top + np.log(total)) / (float(r @ t) / total)
        tau -= step
        if abs(step) <= 1e-12 * (1.0 + abs(tau)):
            break
    lam = float(np.exp(-tau))
    assert abs(_per_term_modular(terms, 1.0 / lam) - 1.0) <= 1e-10
    return lam


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 8), (2, 48)])
@pytest.mark.parametrize("kind", [ModularKind.sobolev(), ModularKind.lebesgue()],
                         ids=["sobolev_H", "lebesgue_H"])
def test_norm_and_modular_equal_the_per_term_evaluation_bitwise(dim, n, kind):
    # mu vanishes on half the domain, and the last function of each scale
    # vanishes on half the nodes, so terms drop out where a weight or a
    # magnitude is zero; 2D n = 48 has more than 8192 points per term
    m = build_mesh(dim, n)
    ed = exponents(m, "1.05", "6", "max(0, x - 0.5)")
    rng = np.random.default_rng(31)
    for scale in (1e-300, 1e-6, 1.0, 1e6, 1e300):
        for half in (False, False, True):
            c = scale * rng.normal(size=m.n_nodes)
            if half:
                c[m.nodes[:, -1] < 0.5] = 0.0
            u = FeFunction(m, c)
            lam = luxemburg_norm(kind, ed, u)
            assert lam == _per_term_norm(kind, ed, u)
            # the modular of u itself overflows at 1e300 to inf, with no warning, and
            # not to nan where mu = 0
            rho = modular(kind, ed, u)
            with np.errstate(over="ignore", invalid="ignore"):
                expected = _per_term_modular(_per_term(kind, ed, u))
            assert rho == expected and not np.isnan(rho)
            v = u * (1.0 / lam)
            assert modular(kind, ed, v) == _per_term_modular(_per_term(kind, ed, v))


def _outcome(norm, kind, ed, u):
    try:
        return norm(kind, ed, u)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("kind", [ModularKind.sobolev(), ModularKind.lebesgue()],
                         ids=["sobolev_H", "lebesgue_H"])
def test_norm_errors_keep_their_per_term_precedence(kind):
    # the terms are checked in their order, (p, |u|), (q, |u|), (p, |grad u|),
    # (q, |grad u|), each for a non-finite magnitude first, then for a negative
    # weight where its magnitude is positive
    m = build_mesh(1, 16)
    random = np.random.default_rng(37).normal(size=m.n_nodes)
    with_nan = random.copy()
    with_nan[3] = np.nan  # |u| and |grad u| non-finite
    # finite |u| but |grad u| = inf: the differences of +-1e308 overflow
    steep = np.where(np.arange(m.n_nodes) % 2, 1e308, -1e308)
    negative = "the modular has a negative weight mu(x) < 0; no norm exists"
    not_finite = "modular is not finite; cannot compute the norm"
    sobolev = kind.kind == "sobolev_H"
    for c, mu, expected in [
        (random, "x - 0.5", negative),  # (q, |u|)
        (with_nan, "x - 0.5", not_finite),  # (p, |u|), before the negative weight
        (steep, "x - 0.5", negative),  # (q, |u|), before (p, |grad u|)
        (steep, "x", not_finite if sobolev else None),  # (p, |grad u|)
    ]:
        ed = exponents(m, "1.5", "2.5", mu)
        u = FeFunction(m, c)
        with np.errstate(over="ignore"):  # cached on u, which both norms read
            u.gradient_magnitude()
        got = _outcome(luxemburg_norm, kind, ed, u)
        assert got == _outcome(_per_term_norm, kind, ed, u)
        assert got == expected or (expected is None and isinstance(got, float))
