import math
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpvi.expr import (
    ExprEvalError,
    ExprSyntaxError,
    eval_expression,
    parse_expression,
    variables_of,
)


def ev(text, allowed=("x", "y", "s", "r"), **bindings):
    return eval_expression(parse_expression(text, allowed), bindings)


def test_polynomial_identity():
    assert ev("x^2 + 1", x=2.0) == 5.0


def test_min_call():
    assert ev("min(s, 3) * x", x=2.0, s=5.0) == 6.0


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("2 + p(", ("x",))
    assert err.value.offset == 5  # 1-based position of the unknown call name


def test_unclosed_paren_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("2 + (3", ("x",))
    assert err.value.offset == 7


def test_abs():
    assert ev("abs(s - 1)", s=-2.0) == 3.0


def test_fractional_power():
    assert ev("x^(1/2)", x=4.0) == 2.0


def test_division_by_zero():
    with pytest.raises(ExprEvalError):
        ev("1/x", x=0.0)


def test_precedence():
    assert ev("2+3*4") == 14.0
    assert ev("2^3^2") == 512.0


def test_unary_minus_below_power():
    assert ev("-x^2", x=3.0) == -9.0
    assert ev("(-x)^2", x=3.0) == 9.0


def test_unknown_identifier():
    with pytest.raises(ExprSyntaxError):
        parse_expression("x + z", ("x",))


def test_arity_mismatch():
    with pytest.raises(ExprSyntaxError):
        parse_expression("min(x)", ("x",))
    with pytest.raises(ExprSyntaxError):
        parse_expression("sqrt(x, 1)", ("x",))


def test_unbound_variable():
    with pytest.raises(ExprEvalError):
        ev("x + s", x=1.0)


def test_log_domain_error():
    with pytest.raises(ExprEvalError):
        ev("log(x)", x=-1.0)


def test_negative_base_fractional_power():
    with pytest.raises(ExprEvalError):
        ev("x^0.5", x=-1.0)


def test_array_broadcast():
    out = ev("x^2 + s", x=np.array([1.0, 2.0, 3.0]), s=1.0)
    np.testing.assert_allclose(out, [2.0, 5.0, 10.0])


def test_left_associativity():
    assert ev("8 - 3 - 2") == 3.0
    assert ev("8 / 2 / 2") == 2.0


def test_variables_of():
    ast = parse_expression("min(s, 3) * x", ("x", "s"))
    assert variables_of(ast) == {"x", "s"}


def test_nesting_depth_limit():
    # 100 levels of parentheses or unary minus parse; level 101 is a syntax
    # error at its token, not a RecursionError
    assert ev("(" * 100 + "2" + ")" * 100) == 2.0
    assert ev("-" * 100 + "2") == 2.0
    for text in ("(" * 101 + "2" + ")" * 101, "-" * 101 + "2", "(" * 300 + "2" + ")" * 300):
        with pytest.raises(ExprSyntaxError, match="nested deeper than 100 levels") as err:
            parse_expression(text, ("x",))
        assert err.value.offset == 102  # the first token at level 101


def test_nesting_counts_calls_and_exponents():
    assert ev("min(" * 100 + "2" + ", 1)" * 100) == 1.0
    with pytest.raises(ExprSyntaxError, match="nested deeper"):
        parse_expression("1^" * 101 + "1", ())
    with pytest.raises(ExprSyntaxError, match="nested deeper"):
        parse_expression("abs(" * 101 + "2" + ")" * 101, ())


def test_flat_chains_evaluate_without_recursion():
    # a chain of operators is a left-deep tree as deep as it is long; the nesting
    # limit does not count it, so neither evaluation nor variables_of may recurse along it
    terms = [k % 6 - 2.5 for k in range(5000)]
    text = "x" + "".join(f" {'+-'[k % 2]} {t:g}" for k, t in enumerate(terms))
    expected = 0.5
    for k, t in enumerate(terms):
        expected = expected + t if k % 2 == 0 else expected - t
    ast = parse_expression(text, ("x",))
    assert variables_of(ast) == {"x"}
    assert eval_expression(ast, {"x": 0.5}) == expected
    np.testing.assert_array_equal(eval_expression(ast, {"x": np.full(3, 0.5)}),
                                  np.full(3, expected))
    assert ev("x" + " * 2 / 2" * 2500, x=3.0) == 3.0
    # chains inside the deepest nesting the parser accepts
    text = "(" * 100 + "s" + " + 1" * 5000 + ")" * 100 + " * 0.5" * 10 + " - 1" * 5000
    assert ev(text, s=0.0) == 5000 / 1024 - 5000


# -- parse and evaluate against a Python oracle ---------------------------------


class _Undefined(Exception):
    """The oracle has no value: a fractional power of a negative base."""


def _bounded(v):
    # every intermediate stays far inside the float range, so numpy never
    # overflows (and warns) in +, - or *
    assume(abs(v) <= 1e100)
    return v


def _node(text, fn, *subs):
    """(text, oracle) of a node combining the values of ``subs`` with ``fn``."""
    return text, lambda x, s: _bounded(fn(*(sub[1](x, s) for sub in subs)))


def _power(base, k):
    def fn(b):
        if b < 0 and k == "0.5":
            raise _Undefined
        return b ** float(k)

    return _node(f"({base[0]})^{k}", fn, base)


_leaf = st.one_of(
    st.floats(min_value=0.1, max_value=9.0).map(lambda v: f"{v:.3f}").map(
        lambda t: (t, lambda x, s: float(t))
    ),
    st.sampled_from([("x", lambda x, s: x), ("s", lambda x, s: s)]),
)

_exprs = st.recursive(
    _leaf,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from([("+", operator.add), ("-", operator.sub),
                                   ("*", operator.mul)]), sub, sub).map(
            lambda t: _node(f"({t[1][0]} {t[0][0]} {t[2][0]})", t[0][1], t[1], t[2])
        ),
        st.tuples(sub, sub).map(lambda t: _node(f"min({t[0][0]}, {t[1][0]})", min, *t)),
        st.tuples(sub, sub).map(lambda t: _node(f"max({t[0][0]}, {t[1][0]})", max, *t)),
        sub.map(lambda t: _node(f"-({t[0]})", operator.neg, t)),
        sub.map(lambda t: _node(f"abs({t[0]})", abs, t)),
        st.tuples(sub, st.sampled_from(["2", "3", "0.5"])).map(lambda t: _power(*t)),
    ),
    max_leaves=12,
)


@given(expr=_exprs, x=st.floats(0.1, 4.0), s=st.floats(0.1, 4.0))
@settings(max_examples=200, deadline=None)
def test_parse_and_evaluate_match_a_python_oracle(expr, x, s):
    # numpy's power and Python's round in the last bit differently, hence isclose
    text, oracle = expr
    ast = parse_expression(text, ("x", "s"))
    try:
        expected = oracle(x, s)
    except _Undefined:
        with pytest.raises(ExprEvalError):
            eval_expression(ast, {"x": x, "s": s})
        return
    got = eval_expression(ast, {"x": x, "s": s})
    assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=1e-9)
