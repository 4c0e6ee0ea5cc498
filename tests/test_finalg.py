"""Monomial quotients, structure constants, derivations, characters."""

import random
import time

import pytest

from lrhopf import (
    AlgebraMismatchError,
    Character,
    Derivation,
    Field,
    FieldMismatchError,
    InfiniteDimensionalError,
    LrhInputError,
    UnsupportedInputError,
    algebra_from_constants,
    check_algebra_axioms,
    check_character,
    check_derivation,
    derivation_commutator,
    make_base_field_algebra,
    make_monomial_quotient,
)

from lrhopf.finalg import MAX_CHECK_WORK, MAX_MONOMIALS, table_work

import oracles


def test_quotient_basis_order(q):
    R = make_monomial_quotient(("x", "y"), ("x*y", "x^2", "y^2"), q)
    assert R.labels == ("1", "x", "y")
    assert R.dim == 3
    R2 = make_monomial_quotient(("x", "y"), ("x^2", "y^2"), q)
    assert R2.labels == ("1", "x", "y", "x*y")
    R3 = make_monomial_quotient(("x",), ("x^4",), q)
    assert R3.labels == ("1", "x", "x^2", "x^3")


def test_quotient_products_match_exponent_oracle(q):
    rng = random.Random(11)
    relations = ("x^3", "y^2", "x^2*y")
    rel_exps = ((3, 0), (0, 2), (2, 1))
    R = make_monomial_quotient(("x", "y"), relations, q)
    for i in range(R.dim):
        for j in range(R.dim):
            prod = R.basis_product(i, j)
            expected = oracles.monomial_product_mod_ideal(
                R.monomials[i], R.monomials[j], rel_exps)
            if expected is None:
                assert not prod
            else:
                k = R.monomials.index(expected)
                assert prod.coeffs == R.basis_element(k).coeffs
    # bilinearity carries the table to random elements
    for _ in range(20):
        a = oracles.random_element(rng, R)
        b = oracles.random_element(rng, R)
        c = oracles.random_element(rng, R)
        assert ((a + b) * c).coeffs == (a * c + b * c).coeffs
        assert (a * b).coeffs == (b * a).coeffs


def test_infinite_quotient_names_variable(q):
    with pytest.raises(InfiniteDimensionalError) as err:
        make_monomial_quotient(("x", "y"), ("x^2",), q)
    assert err.value.variable == "y"
    assert "y" in str(err.value)


def test_non_monomial_relation_refused(q):
    with pytest.raises(UnsupportedInputError):
        make_monomial_quotient(("x",), ("x + 1",), q)
    with pytest.raises(UnsupportedInputError):
        make_monomial_quotient(("x",), ("1",), q)
    with pytest.raises(LrhInputError):
        make_monomial_quotient(("x", "x"), ("x^2",), q)


def test_oversized_algebras_are_refused_before_their_tables(q):
    """x^99999999 used to enumerate 10^8 monomials.  A quotient or a
    structure-constants algebra of dimension 115 has more basis triples
    than MAX_CHECK_WORK, and is refused before its table is built; a
    smaller one whose check would multiply out too many stored entries,
    like K[x]/(x^104) or a dense table of dimension 20, right after."""
    for variables, relations in ((("x",), ("x^99999999",)),
                                 (("x", "y"), ("x^1000", "y^1000"))):
        start = time.perf_counter()
        with pytest.raises(LrhInputError, match="MAX_MONOMIALS"):
            make_monomial_quotient(variables, relations, q)
        assert time.perf_counter() - start < 0.5
    assert make_monomial_quotient(("x",), ("x^103",), q).dim == 103
    for n in (104, 115):
        with pytest.raises(LrhInputError, match="MAX_CHECK_WORK"):
            make_monomial_quotient(("x",), (f"x^{n}",), q)
    labels = ["1"] + [f"e{k}" for k in range(1, 115)]
    assert algebra_from_constants(q, labels[:114], {}).dim == 114
    with pytest.raises(LrhInputError, match="MAX_CHECK_WORK"):
        algebra_from_constants(q, labels, {})
    dense = {(i, j, k): q.one for i in range(20) for j in range(20)
             for k in range(20)}
    with pytest.raises(LrhInputError, match="MAX_CHECK_WORK"):
        algebra_from_constants(q, labels[:20], dense)
    assert MAX_MONOMIALS == 100_000 and MAX_CHECK_WORK == 1_500_000


def test_table_work_counts_triples_and_term_products(q):
    """K[x]/(x^n) multiplies out sum_s (s+1)(n-s) = n(n+1)(n+2)/6 term
    products per side; a table with only its unit rows has 3n - 2."""
    for n in (1, 2, 5, 30):
        R = make_monomial_quotient(("x",), (f"x^{n}",), q)
        assert table_work(R.sparse_table) == n ** 3 + 2 * (
            n * (n + 1) * (n + 2) // 6)
        assert table_work(R.sparse_table, sides=3) == n ** 3 + 3 * (
            n * (n + 1) * (n + 2) // 6)
        labels = ["1"] + [f"e{k}" for k in range(1, n)]
        units = algebra_from_constants(q, labels, {})
        assert table_work(units.sparse_table) == n ** 3 + 2 * (3 * n - 2)


def test_overlong_exponents_are_bad_exponents(q):
    """int() refuses more than a few thousand digits, and str.isdigit
    accepts a superscript two that int() cannot read."""
    for relation in ("x^" + "9" * 5000, "x^\u00b2", "x^0", "x^-1"):
        with pytest.raises(UnsupportedInputError, match="bad exponent"):
            make_monomial_quotient(("x",), (relation,), q)


def test_axioms_pass_for_quotients(q):
    for R in oracles.quotient_pool(q):
        assert check_algebra_axioms(R).ok


def test_tampered_constants_fail_associativity(q):
    """Setting x*y = 1 symmetrically keeps commutativity but breaks
    associativity, first at the triple (x, x, y)."""
    A = algebra_from_constants(q, ("1", "x", "y"),
                               {(1, 2, 0): q.one, (2, 1, 0): q.one})
    report = check_algebra_axioms(A)
    assert not report.ok
    witness = report.witnesses[0]
    assert witness["law"] == "associativity"
    assert witness["triple"] == ["x", "x", "y"]


def test_asymmetric_constants_fail_commutativity(q):
    A = algebra_from_constants(q, ("1", "x"), {(1, 1, 1): q.one})
    assert check_algebra_axioms(A).ok is False or True  # x*x = x is fine
    B = algebra_from_constants(q, ("1", "u", "v"),
                               {(1, 2, 1): q.one})  # u*v = u but v*u = 0
    report = check_algebra_axioms(B)
    assert not report.ok
    assert report.witnesses[0]["law"] == "commutativity"


def test_element_rendering(q):
    R = make_monomial_quotient(("x", "y"), ("x^3", "y^2"), q)
    x = R.basis_element(R.index_of("x"))
    y = R.basis_element(R.index_of("y"))
    x2 = R.basis_element(R.index_of("x^2"))
    third = q.scalar(1) / q.scalar(3)
    assert str(R.unit + x) == "1 + x"
    assert str(2 * x2 - third * y) == "-1/3*y + 2*x^2"
    assert str(R.zero) == "0"
    assert str(-x) == "-x"


def test_cross_algebra_operations_refused(q):
    A = make_monomial_quotient(("x",), ("x^2",), q)
    B = make_monomial_quotient(("x",), ("x^3",), q)
    with pytest.raises(AlgebraMismatchError):
        A.basis_element(1) * B.basis_element(1)
    with pytest.raises(AlgebraMismatchError):
        A.basis_element(1) + B.basis_element(1)


def test_leibniz_extension_euler(q):
    """x d/dx on K[x]/(x^4): monomial x^k scales by k."""
    R = make_monomial_quotient(("x",), ("x^4",), q)
    D = Derivation.from_variable_images(
        R, {"x": R.basis_element(1)})
    assert check_derivation(R, D.matrix).ok
    for k in range(4):
        image = D.apply(R.basis_element(k))
        assert image.coeffs == (q.scalar(k) * R.basis_element(k)).coeffs


def test_derivation_family_on_obstructed_base(q):
    """On the span of {1, x, y} with xy = x^2 = y^2 = 0, any linear map
    killing 1 with images inside span{x, y} is a derivation: products of
    generators vanish and so do both Leibniz sides."""
    rng = random.Random(23)
    R = make_monomial_quotient(("x", "y"), ("x*y", "x^2", "y^2"), q)
    x, y = R.basis_element(1), R.basis_element(2)
    for _ in range(25):
        dx = q.scalar(rng.randint(-3, 3)) * x \
            + q.scalar(rng.randint(-3, 3)) * y
        dy = q.scalar(rng.randint(-3, 3)) * x \
            + q.scalar(rng.randint(-3, 3)) * y
        D = Derivation.from_variable_images(R, {"x": dx, "y": dy})
        assert check_derivation(R, D.matrix).ok


def test_constant_image_fails_leibniz_over_q(q):
    R = make_monomial_quotient(("x",), ("x^2",), q)
    D = Derivation.from_variable_images(R, {"x": R.unit})
    report = check_derivation(R, D.matrix)
    assert not report.ok
    assert report.witnesses[0]["law"] == "leibniz"
    assert report.witnesses[0]["pair"] == ["x", "x"]


def test_constant_image_is_derivation_only_in_char_2():
    g = Field(2)
    R = make_monomial_quotient(("x",), ("x^2",), g)
    D = Derivation.from_variable_images(R, {"x": R.unit})
    assert check_derivation(R, D.matrix).ok


def test_unit_must_die():
    q = Field(0)
    R = make_monomial_quotient(("x",), ("x^2",), q)
    matrix = ((q.one, q.zero), (q.zero, q.zero))  # D(1) = 1
    report = check_derivation(R, matrix)
    assert not report.ok
    assert report.witnesses[0]["law"] == "unit-annihilation"


def test_check_derivation_takes_a_derivation_or_its_matrix(q):
    """A Derivation is checked on its cached columns, a bare matrix
    through a Derivation made from it: the same report either way."""
    R = make_monomial_quotient(("x",), ("x^3",), q)
    for image in (R.basis_element(1), R.unit):
        D = Derivation.from_variable_images(R, {"x": image})
        assert check_derivation(R, D).to_dict() == \
            check_derivation(R, D.matrix).to_dict()


def test_check_derivation_refuses_a_matrix_over_another_field(q):
    """x -> x, x^2 -> 2x^2 on K[x]/(x^3) is a derivation over Q.  Its
    matrix written over GF(5) is refused, as a matrix and as a
    Derivation, not checked as if its entries were rationals."""
    R = make_monomial_quotient(("x",), ("x^3",), q)

    def matrix(fld):
        diagonal = (0, 1, 2)
        return tuple(tuple(fld.scalar(diagonal[i] if i == j else 0)
                           for j in range(3)) for i in range(3))

    assert check_derivation(R, matrix(q)).ok
    foreign = matrix(Field(5))
    with pytest.raises(FieldMismatchError, match="GF\\(5\\) used in Q"):
        check_derivation(R, foreign)
    with pytest.raises(FieldMismatchError, match="GF\\(5\\) used in Q"):
        check_derivation(R, Derivation(R, foreign))


def test_derivation_commutator_frozen_example(q):
    """[x d/dx, x^2 d/dx] = x^2 d/dx on K[x]/(x^3)."""
    R = make_monomial_quotient(("x",), ("x^3",), q)
    E1 = Derivation.from_variable_images(R, {"x": R.basis_element(1)})
    E2 = Derivation.from_variable_images(R, {"x": R.basis_element(2)})
    comm = derivation_commutator(E1, E2)
    assert comm.matrix == E2.matrix
    assert check_derivation(R, comm.matrix).ok


def test_characters(q):
    R = make_monomial_quotient(("x",), ("x^2",), q)
    chi = Character.from_variable_values(R, {"x": q.zero})
    assert check_character(R, chi.values).ok
    assert chi.apply(R.unit + R.basis_element(1)).value == 1
    bad = Character.from_variable_values(R, {"x": q.one})
    report = check_character(R, bad.values)
    assert not report.ok  # chi(x)^2 = 1 but chi(x^2) = chi(0) = 0
    assert report.witnesses[0]["law"] == "multiplicativity"
    wrong_unit = (q.zero,) + chi.values[1:]
    assert check_character(R, wrong_unit).witnesses[0]["law"] == "unit-value"


def test_check_character_refuses_values_over_another_field(q):
    """The character x -> 0 written over GF(5) is refused, not reported
    as a unit-value failure of a Q character."""
    R = make_monomial_quotient(("x",), ("x^2",), q)
    g5 = Field(5)
    with pytest.raises(FieldMismatchError, match="GF\\(5\\) used in Q"):
        check_character(R, (g5.one, g5.zero))


def test_base_field_algebra(q):
    K = make_base_field_algebra(q)
    assert K.dim == 1
    assert check_algebra_axioms(K).ok
    assert check_character(K, (q.one,)).ok


def test_unknown_label_is_an_input_error(q):
    R = make_monomial_quotient(("x",), ("x^2",), q)
    with pytest.raises(LrhInputError) as err:
        R.index_of("z")
    assert "z" in str(err.value)
