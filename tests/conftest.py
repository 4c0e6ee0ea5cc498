import pytest

from lrhopf import (
    Anchor,
    Character,
    Derivation,
    Field,
    build_rewrite_system,
    enumerate_basis,
    lie_algebra_from_brackets,
    make_base_field_algebra,
    make_character_module,
    make_monomial_quotient,
    obstructed_example,
)


@pytest.fixture
def q():
    return Field(0)


@pytest.fixture
def obstructed(q):
    """The built-in obstructed structure over Q, fully assembled:
    (R, L, anchor, chi, data, system)."""
    R, L, anchor, chi = obstructed_example(q)
    data = make_character_module(R, L, anchor, chi)
    return R, L, anchor, chi, data, build_rewrite_system(data)


@pytest.fixture
def obstructed_env(obstructed):
    return enumerate_basis(obstructed[5], 8)


@pytest.fixture
def euler(q):
    """K[x]/(x^2) with the Euler derivation x |-> x, character x |-> 0."""
    R = make_monomial_quotient(("x",), ("x^2",), q)
    L = lie_algebra_from_brackets(q, ("a",), {})
    deriv = Derivation.from_variable_images(R, {"x": R.basis_element(1)})
    chi = Character.from_variable_values(R, {"x": q.zero})
    data = make_character_module(R, L, Anchor((deriv,)), chi)
    return R, L, Anchor((deriv,)), chi, data, build_rewrite_system(data)


@pytest.fixture
def classical(q):
    """Factory for R = K structures with anchor zero: classical
    enveloping algebras of plain Lie algebras, over Q unless another
    field is given."""

    def build(labels, brackets, fld=q):
        K = make_base_field_algebra(fld)
        chi = Character(K, (fld.one,))
        L = lie_algebra_from_brackets(fld, labels, brackets)
        anchor = Anchor(tuple(Derivation.zero(K) for _ in labels))
        return make_character_module(K, L, anchor, chi)

    return build
