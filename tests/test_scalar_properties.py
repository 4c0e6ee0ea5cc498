"""Property tests: Scalar arithmetic is raw Fraction arithmetic over Q
and int arithmetic mod p over GF(2), GF(3), GF(5) and GF(7)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lrhopf import Field

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=30)
integers = st.integers(min_value=-100, max_value=100)


def _inverse_mod(b, p):
    """Inverse by search, independent of the field's own."""
    return next(x for x in range(1, p) if b * x % p == 1)


@settings(max_examples=300, deadline=None)
@given(rationals, rationals, integers)
def test_rational_scalars_follow_fractions(a, b, n):
    q = Field(0)
    x, y = q.scalar(a), q.scalar(b)
    cases = [(x + y, a + b), (x - y, a - b), (x * y, a * b), (-x, -a),
             (x + n, a + n), (n - x, n - a), (n * x, n * a)]
    if b:
        cases += [(x / y, a / b), (y.inverse(), 1 / b)]
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for got, want in cases:
        assert got.field == q
        assert type(got.value) is Fraction and got.value == want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), integers, integers, integers)
def test_prime_field_scalars_follow_ints_mod_p(p, a, b, n):
    f = Field(p)
    x, y = f.scalar(a), f.scalar(b)
    cases = [(x + y, a + b), (x - y, a - b), (x * y, a * b), (-x, -a),
             (x + n, a + n), (n - x, n - a), (n * x, n * a)]
    if b % p:
        inv = _inverse_mod(b % p, p)
        cases += [(x / y, a * inv), (y.inverse(), inv)]
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for got, want in cases:
        assert got.field == f
        assert type(got.value) is int and got.value == want % p
