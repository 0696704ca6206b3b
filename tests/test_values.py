import pytest

from vccts.values import (
    ACK, Bin, EvalError, Lit, Pair, PairE, Un, Var,
    eval_bexpr, eval_expr, expr_vars, subst_expr, value_eq, value_str,
)


def test_list_primitives():
    assert eval_expr(Un("head", Lit((1, 2)))) == 1
    assert eval_expr(Un("tail", Lit((1, 2)))) == (2,)
    assert eval_expr(Bin("append", Lit(()), Lit(5))) == (5,)
    assert eval_bexpr(Un("null", Lit(()))) is True
    assert eval_bexpr(Un("null", Lit((1,)))) is False


def test_pair_primitives():
    p = Pair(ACK, 0)
    assert eval_expr(Un("snd", Lit(p))) == 0
    assert eval_expr(Un("fst", Lit(p))) == ACK


def test_pair_equality_is_structural():
    a = PairE(Lit(ACK), Lit(0))
    b = PairE(Lit(ACK), Lit(1))
    assert eval_bexpr(Bin("eq", a, b)) is False
    assert eval_bexpr(Bin("eq", a, PairE(Lit(ACK), Lit(0)))) is True


def test_bit_negation():
    assert eval_expr(Un("bitneg", Lit(0))) == 1
    assert eval_expr(Un("bitneg", Lit(1))) == 0
    with pytest.raises(EvalError):
        eval_expr(Un("bitneg", Lit(2)))


def test_arithmetic():
    e = Bin("mul", Bin("add", Lit(2), Lit(3)), Bin("sub", Lit(7), Lit(4)))
    assert eval_expr(e) == 15


def test_type_errors():
    with pytest.raises(EvalError):
        eval_expr(Un("head", Lit(3)))
    with pytest.raises(EvalError):
        eval_expr(Un("head", Lit(())))
    with pytest.raises(EvalError):
        eval_expr(Bin("add", Lit(True), Lit(1)))
    with pytest.raises(EvalError):
        eval_bexpr(Lit(3))


def test_bool_int_distinct():
    assert not value_eq(True, 1)
    assert not value_eq(0, False)
    assert value_eq(True, True)


def test_literals_are_interned_by_value_key():
    assert Lit(1) is Lit(1) and Lit((1, 2)) is Lit((1, 2))
    assert Lit(1) is not Lit(True) and Lit(0) is not Lit(False)
    assert Lit((1,)) is not Lit((True,)) and Lit(Pair(1, 2)) is not Lit(Pair(True, 2))
    assert Bin("add", Var("x"), Lit(1)) is Bin("add", Var("x"), Lit(1))
    assert Bin("add", Var("x"), Lit(1)) is not Bin("add", Var("x"), Lit(True))
    with pytest.raises(EvalError):
        Lit(1.5)


def test_closedness():
    e = Bin("add", Var("x"), Lit(1))
    assert expr_vars(e) == {"x"}
    with pytest.raises(EvalError):
        eval_expr(e)
    assert eval_expr(subst_expr(e, "x", 4)) == 5


def test_evaluation_is_pure():
    e = Bin("append", Lit((1,)), Lit(2))
    assert eval_expr(e) == eval_expr(e) == (1, 2)


def test_structural_equality_is_equivalence():
    samples = [0, 1, True, ACK, Pair(1, 2), (1, 2), (), Pair(ACK, (1,))]
    for a in samples:
        assert value_eq(a, a)
        for b in samples:
            assert value_eq(a, b) == value_eq(b, a)
            for c in samples:
                if value_eq(a, b) and value_eq(b, c):
                    assert value_eq(a, c)


def test_value_str_roundtrippable_shapes():
    assert value_str((1, 2)) == "[1, 2]"
    assert value_str(Pair(ACK, 0)) == "(Ack, 0)"
    assert value_str(True) == "true"
