"""Expression parsing, calculus helpers, and potential descriptors."""
from __future__ import annotations

import math

import numpy as np
import pytest

from qgspectra.errors import ExpressionError, InputError
from qgspectra.potential import (
    Potential,
    MAX_EXPRESSION_DEPTH,
    eval_array,
    orient,
    parse_expression,
)

from .oracles import central_diff


@pytest.mark.parametrize(
    "src,fragment",
    [
        ("cos(", "expected expression at position 4"),
        ("1 +", "expected expression at position 3"),
        ("x y", "unexpected trailing input 'y' at position 2"),
        ("foo(x)", "unknown identifier 'foo' at position 0"),
        ("", "expected expression at position 0"),
    ],
)
def test_parse_errors_carry_positions(src, fragment):
    with pytest.raises(ExpressionError, match=fragment.replace("(", "\\(")):
        parse_expression(src)


@pytest.mark.parametrize(
    "src",
    ["(" * 400 + "x" + ")" * 400, "-" * 2000 + "x", "+".join(["x"] * 1501)],
    ids=["parentheses", "minus-chain", "long-sum"],
)
def test_deep_expressions_are_refused(src):
    with pytest.raises(ExpressionError, match=f"deeper than {MAX_EXPRESSION_DEPTH} levels"):
        parse_expression(src)


@pytest.mark.parametrize(
    "src",
    [
        "(" * MAX_EXPRESSION_DEPTH + "x" + ")" * MAX_EXPRESSION_DEPTH,
        "-" * MAX_EXPRESSION_DEPTH + "x",
        "+".join(["x"] * (MAX_EXPRESSION_DEPTH + 1)),
    ],
    ids=["parentheses", "minus-chain", "long-sum"],
)
def test_expressions_at_the_depth_limit_parse(src):
    tree = parse_expression(src)
    assert tree.diff().diff().pretty()
    assert parse_expression(tree.pretty()) == tree
    with pytest.raises(ExpressionError, match="deeper than"):
        parse_expression(f"({src})")


def test_unary_minus_binds_looser_than_power():
    tree = parse_expression("-x^2")
    assert eval_array(tree, np.array([2.0]))[0] == -4.0


def test_power_is_right_associative():
    tree = parse_expression("2^3^2")
    assert eval_array(tree, np.array([0.0]))[0] == 512.0


def test_pi_constant_and_functions():
    tree = parse_expression("sin(pi/2) + cos(0)")
    assert eval_array(tree, np.array([0.0]))[0] == pytest.approx(2.0, abs=1e-15)


def test_eval_array_vectorized():
    tree = parse_expression("2*cos(3*x)")
    xs = np.linspace(0.0, 1.0, 17)
    np.testing.assert_allclose(eval_array(tree, xs), 2.0 * np.cos(3.0 * xs), rtol=0, atol=1e-15)


def test_derivative_matches_central_difference():
    rng = np.random.default_rng(7)
    exprs = ["2*cos(3*x)", "x^3 - 2*x", "sin(x)*cos(2*x)", "exp(-x)*x^2"]
    for src in exprs:
        tree = parse_expression(src)
        deriv = tree.diff()
        for _ in range(5):
            x = float(rng.uniform(0.1, 1.9))
            sym = eval_array(deriv, np.array([x]))[0]
            num = central_diff(lambda t: eval_array(tree, np.array([t]))[0], x)
            assert sym == pytest.approx(num, abs=1e-7)


def test_derivative_exact_on_cosine():
    tree = parse_expression("2*cos(3*x)")
    xs = np.array([0.3, 1.1])
    np.testing.assert_allclose(
        eval_array(tree.diff(), xs), -6.0 * np.sin(3.0 * xs), rtol=0, atol=1e-14
    )


def test_orientation_reverses_argument():
    p = Potential.smooth("x^2")
    q = orient(p, True, 2.0)
    xs = np.array([0.25, 1.7])
    np.testing.assert_allclose(eval_array(q.tree, xs), (2.0 - xs) ** 2, rtol=0, atol=1e-13)
    back = orient(q, True, 2.0)
    np.testing.assert_allclose(eval_array(back.tree, xs), xs**2, rtol=0, atol=1e-13)


def test_orientation_mirrors_delta_position():
    q = orient(Potential.delta(1.5, 0.3), True, 1.0)
    assert q.kind == "delta"
    assert q.strength == 1.5
    assert q.position == pytest.approx(0.7)


def test_norms_for_uniform_kinds():
    assert Potential.constant(4.0).max_value(1.0) == 4.0
    assert Potential.constant(-4.0).abs_integral(0.5) == pytest.approx(2.0, rel=1e-15)
    # int_0^pi |cos x| = 2, by the mean of the dense samples
    assert Potential.smooth("-3*cos(x)").abs_integral(math.pi) == pytest.approx(6.0, rel=1e-3)


def test_point_interaction_norms_are_undefined():
    d = Potential.delta(-3.0, 0.5)
    with pytest.raises(InputError, match="undefined for a delta potential"):
        d.max_value(1.0)
    with pytest.raises(InputError, match="undefined for a delta potential"):
        d.abs_integral(1.0)


def test_validation_rejects_singular_expressions():
    p = Potential.smooth("1/x")
    with pytest.raises(InputError, match="not finite"):
        p.validate_for_length(1.0)


def test_validation_accepts_endpoint_interactions():
    Potential.delta(2.0, 0.0).validate_for_length(1.0)
    Potential.delta(2.0, 1.0).validate_for_length(1.0)
    with pytest.raises(InputError, match="exceeds edge length"):
        Potential.delta(2.0, 1.5).validate_for_length(1.0)


def test_from_dict_errors():
    with pytest.raises(InputError, match="'type' field"):
        Potential.from_dict({})
    with pytest.raises(InputError, match="unknown potential type"):
        Potential.from_dict({"type": "smooth"})
    with pytest.raises(InputError, match="'value' field"):
        Potential.from_dict({"type": "constant"})
    with pytest.raises(InputError, match="requires"):
        Potential.from_dict({"type": "delta", "strength": 1.0})
    with pytest.raises(InputError, match="'expr' field"):
        Potential.from_dict({"type": "expr"})
