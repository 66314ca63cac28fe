from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from planalg.errors import ModeMismatchError, PreconditionError
from planalg import scalars
from planalg.scalars import Laurent, Ring, Scalar

from conftest import specialize


def test_exponent_cancellation(sym):
    assert sym.delta_power(2) * sym.delta_power(-2) == sym.one()


def test_subtraction(sym):
    s = Scalar.symbolic({1: 1, 0: 1})      # delta + 1
    assert s - sym.delta_power(1) == sym.one()


def test_rational_inverse_power():
    ring = Ring.rational(Fraction(5, 2))
    assert ring.delta_power(-1) == ring.fraction(Fraction(2, 5))


def test_specialize_examples():
    s = Scalar.symbolic({2: 1, 0: -1})     # delta^2 - 1
    assert specialize(s, Fraction(2)) == Scalar.rational(3, 2)
    assert specialize(Scalar.symbolic({-1: 1}), Fraction(2)) \
        == Scalar.rational(Fraction(1, 2), 2)
    assert specialize(Scalar.symbolic({}), Fraction(7)).is_zero()
    assert abs(specialize(s, 2.0).value - 3.0) < 1e-12


def test_specialize_at_zero_rejected():
    with pytest.raises(PreconditionError):
        specialize(Scalar.symbolic({1: 1}), 0)


def test_mode_mixing_rejected(sym):
    with pytest.raises(ModeMismatchError):
        sym.one() + Ring.rational(2).one()
    with pytest.raises(ModeMismatchError):
        Ring.rational(2).one() + Ring.rational(3).one()
    with pytest.raises(ModeMismatchError):
        sym.one().to_float()


def test_float_equality_tolerance():
    ring = Ring.float_(2.0)
    assert Scalar.float_(1.0, 2.0) == Scalar.float_(1.0 + 1e-10, 2.0)
    assert Scalar.float_(1.0, 2.0) != Scalar.float_(1.001, 2.0)
    assert ring.fraction(0) == Scalar.float_(1e-12, 2.0)


laurents = st.dictionaries(st.integers(-4, 4),
                           st.fractions(min_value=-10, max_value=10),
                           max_size=4)


@settings(max_examples=60, deadline=None)
@given(laurents, laurents)
def test_specialize_is_ring_homomorphism(t1, t2):
    a, b = Scalar.symbolic(t1), Scalar.symbolic(t2)
    for delta in (Fraction(2), Fraction(5, 2)):
        assert specialize(a * b, delta) == specialize(a, delta) * specialize(b, delta)
        assert specialize(a + b, delta) == specialize(a, delta) + specialize(b, delta)


@settings(max_examples=60, deadline=None)
@given(laurents, laurents, laurents)
def test_ring_laws(t1, t2, t3):
    a, b, c = (Scalar.symbolic(t) for t in (t1, t2, t3))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a - a == Scalar.symbolic({})


def test_symbolic_equality_implies_rational(sym):
    # two computations of the same quantity
    lhs = (sym.delta_power(1) + sym.one()) * (sym.delta_power(1) - sym.one())
    rhs = sym.delta_power(2) - sym.one()
    assert lhs == rhs
    for delta in (Fraction(2), Fraction(5, 2)):
        assert specialize(lhs, delta) == specialize(rhs, delta)


def test_json_roundtrip():
    cases = [Scalar.symbolic({-2: Fraction(3, 4), 1: -2}),
             Scalar.rational(Fraction(7, 3), Fraction(5, 2)),
             Scalar.float_(1.25, 2.0)]
    for s in cases:
        back = Scalar.from_json(s.to_json())
        assert back == s and back.mode == s.mode


def test_no_zero_coefficients_stored():
    s = Scalar.symbolic({1: 1}) - Scalar.symbolic({1: 1})
    assert s.terms == {}


def test_integral_coefficients_are_stored_as_int(sym):
    s = Scalar.symbolic({0: Fraction(6, 2), -1: "-4/2", 2: Fraction(1, 3)})
    assert s.terms == {0: 3, -1: -2, 2: Fraction(1, 3)}
    assert type(s.terms[0]) is int and type(s.terms[-1]) is int
    assert type(sym.fraction(Fraction(8, 4)).terms[0]) is int
    assert type((sym.delta_power(1) * 3).terms[1]) is int
    # the same scalar built with Fraction coefficients prints identically
    built = Laurent({0: Fraction(3), -1: Fraction(-2), 2: Fraction(1, 3)})
    assert s == built
    assert s.to_json() == built.to_json()
    assert repr(s) == repr(built)


def test_mixed_int_fraction_arithmetic_is_exact(sym):
    half = Scalar.symbolic({0: Fraction(1, 2)})
    assert half + half == sym.one()
    assert half * 2 == sym.one()
    third = sym.fraction(Fraction(1, 3))
    assert third + third + third == sym.one()
    assert (Scalar.symbolic({1: 2}) + half).terms == {1: 2, 0: Fraction(1, 2)}
    assert Scalar.symbolic({0: 1}) - half == half


def test_specialize_returns_fraction():
    s = Scalar.symbolic({1: 2, 0: 1})        # 2 delta + 1, int coefficients
    value = specialize(s, 3).value
    assert type(value) is Fraction and value == 7
    assert specialize(s, Fraction(1, 2)).value == Fraction(2)


def test_delta_pow_zero_keeps_the_value():
    for s in (Scalar.symbolic({-1: Fraction(3, 4), 2: -2}),
              Scalar.rational(Fraction(7, 3), Fraction(5, 2)),
              Scalar.float_(0.1, 2.5)):
        same = s.delta_pow(0)
        assert same.mode == s.mode and same.to_json() == s.to_json()
        assert same.terms == s.terms and same.value == s.value


def test_arithmetic_stays_on_scalar():
    """perfbench/tracer.py counts scalar `+` and `*` by patching these three
    methods on `Scalar`; a subclass overriding one would bypass the count."""
    ops = ("__add__", "__mul__", "__rmul__")
    assert all(op in Scalar.__dict__ for op in ops)
    subclasses = [cls for cls in vars(scalars).values()
                  if isinstance(cls, type) and issubclass(cls, Scalar) and cls is not Scalar]
    assert len(subclasses) >= 3
    assert [(cls.__name__, op) for cls in subclasses for op in ops
            if op in cls.__dict__] == []
