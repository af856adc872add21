"""Polynomial arithmetic, parser and printer."""

import operator
import random

import pytest

from fliftlab.fp_poly import (AmbientMismatchError, DegreeGuardError,
                              NotPrimeError, ParseError, PolyRing,
                              UnknownVariableError, _FACTOR_TABLE_SIZE,
                              dot, format_monomial, format_poly, is_prime)

from support import format_poly_by_grevlex_key, naive_product, random_poly


def test_parse_term_list():
    f = PolyRing(["x", "y", "z"], 2).parse("z^2+x^2*y+x*y*z")
    assert f.terms == {(0, 0, 2): 1, (2, 1, 0): 1, (1, 1, 1): 1}


def test_parse_negative_coefficient_reduces():
    f = PolyRing(["x", "y"], 3).parse("x - y")
    assert f.terms == {(1, 0): 1, (0, 1): 2}


def test_parse_kills_char_multiple():
    f = PolyRing(["x"], 2).parse("2*x + x^2")
    assert f.terms == {(2,): 1}


def test_parse_parentheses_and_unary_minus():
    f = PolyRing(["x"], 5).parse("-(x - 2)*(x + 1)^2")
    x_ring = PolyRing(["x"], 5)
    x = x_ring.variable(0)
    assert f == -(x - x_ring.from_int(2)) * (x + x_ring.one()) ** 2


def test_parse_errors():
    with pytest.raises(ParseError):
        PolyRing(["x"], 3).parse("x +")
    with pytest.raises(UnknownVariableError):
        PolyRing(["x"], 3).parse("x*t")
    with pytest.raises(ParseError) as err:
        PolyRing(["x"], 3).parse("x^-2")
    assert "negative exponent" in str(err.value)
    with pytest.raises(NotPrimeError):
        PolyRing(["x"], 4).parse("x")
    with pytest.raises(ParseError):
        PolyRing(["x", "y"], 3).parse("x$y")
    for text, message, position in (
            ("x y", "unexpected 'y'", 2),
            ("x^y", "expected exponent", 2),
            ("(x+1", "expected ')'", 4)):
        with pytest.raises(ParseError) as err:
            PolyRing(["x", "y"], 3).parse(text)
        assert message in str(err.value), text
        assert err.value.position == position, text


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        PolyRing(["x"], 3).parse("x + qq")
    assert err.value.position == 4


def test_deep_input_parses_or_is_a_parse_error():
    # a chain of unary minus signs is a loop, not a recursion, so it parses
    # at any length; deep parentheses are a ParseError at an open one
    ring = PolyRing(["x"], 5)
    x = ring.variable(0)
    assert ring.parse("-" * 3000 + "x") == x
    assert ring.parse("-" * 3001 + "x") == -x
    assert ring.parse("--(-x)") == -x
    assert ring.parse("(" * 50 + "x" + ")" * 50) == x
    text = "(" * 3000 + "x" + ")" * 3000
    with pytest.raises(ParseError) as err:
        ring.parse(text)
    assert "nested too deeply" in str(err.value)
    assert text[err.value.position] == "("


def test_multiplication_must_be_explicit():
    with pytest.raises(UnknownVariableError):
        PolyRing(["x", "y"], 3).parse("xy")


def test_ring_validation():
    with pytest.raises(ValueError):
        PolyRing([], 3)
    with pytest.raises(ValueError):
        PolyRing(["x", "x"], 3)
    with pytest.raises(ValueError):
        PolyRing(["2x"], 3)
    with pytest.raises(NotPrimeError):
        PolyRing(["x"], 1)
    with pytest.raises(NotPrimeError):
        PolyRing(["x"], 2**31 + 11)


def test_is_prime():
    assert [q for q in range(25) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 3)
    # the least strong pseudoprime to the twelve prime bases up to 37
    # (psi_12), composite and free of factors below 41; bases up to 41 are
    # exact below psi_13 ~ 3.317e24
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    assert is_prime(2**61 - 1) and is_prime(2**79 - 67)


def test_freshman_dream():
    ring = PolyRing(["x", "y"], 2)
    x, y = ring.gens()
    assert (x + y) ** 2 == x ** 2 + y ** 2
    ring = PolyRing(["x", "y"], 3)
    x, y = ring.gens()
    assert (x + y) ** 3 == x ** 3 + y ** 3


def test_product_example():
    ring = PolyRing(["x", "y", "z"], 2)
    got = ring.parse("(z^2+x^2*y)*(x*y*z)")
    assert got == ring.parse("x*y*z^3 + x^3*y^2*z")


def test_ambient_mismatch():
    a = PolyRing(["x", "y"], 3).parse("x")
    b = PolyRing(["x", "z"], 3).parse("x")
    c = PolyRing(["x", "y"], 5).parse("x")
    for other in (b, c):
        with pytest.raises(AmbientMismatchError):
            a + other


def test_sum_with_a_non_poly_operand_raises_type_error():
    ring = PolyRing(["x", "y"], 5)
    x = ring.parse("x")
    for other in (1, 0, 1.5, "x", None):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(x, other)
            with pytest.raises(TypeError):
                op(other, x)
    # an int scales, so only the other operands are refused by `*`
    for other in (1.5, "x", None):
        with pytest.raises(TypeError):
            operator.mul(x, other)
        with pytest.raises(TypeError):
            operator.mul(other, x)
    assert x + ring.one() - ring.one() == x
    assert x * 2 == 2 * x == x + x and x * x == ring.parse("x^2")


def test_degree_guard():
    ring = PolyRing(["x"], 3, max_degree=50)
    x = ring.variable(0)
    with pytest.raises(DegreeGuardError):
        (x ** 25) * (x ** 30)
    with pytest.raises(DegreeGuardError):
        x ** 51
    with pytest.raises(DegreeGuardError):
        ring.parse("x^99")
    with pytest.raises(DegreeGuardError):
        ring.monomial([51])
    with pytest.raises(DegreeGuardError):
        ring.from_terms({(51,): 1})
    assert (x ** 25) * (x ** 25)  # exactly at the guard is fine


def test_pow_edge_cases():
    ring = PolyRing(["x"], 5)
    x = ring.variable(0)
    assert x ** 0 == ring.one()
    assert ring.zero() ** 0 == ring.one()
    assert ring.zero() ** 3 == ring.zero()
    with pytest.raises(ValueError):
        x ** (-1)


def test_one_term_power_is_the_repeated_product():
    # a one-term polynomial to the e is the one term c^e x^(e*m): it equals
    # the schoolbook product of e copies, for unit and other coefficients
    # and the constant, and raises DegreeGuardError at the same e
    for p in (2, 3, 5):
        ring = PolyRing(["x", "y", "z"], p, 24)
        for mono in ((0, 0, 0), (1, 0, 0), (2, 1, 0), (1, 2, 3)):
            for c in range(1, p):
                f = ring.monomial(mono, c)
                want = ring.one()
                for e in range(30):
                    if want is not None and e:
                        try:
                            want = naive_product(want, f)
                        except DegreeGuardError:
                            want = None
                    if want is None:
                        with pytest.raises(DegreeGuardError):
                            f ** e
                    else:
                        assert (f ** e).terms == want.terms


def test_derivative_examples():
    ring = PolyRing(["x", "y", "z"], 2)
    f = ring.parse("z^2+x^2*y+x*y^3+x*y*z")
    assert f.derivative(2) == ring.parse("x*y")
    ring5 = PolyRing(["x"], 5)
    assert ring5.parse("x^5").derivative(0).is_zero()
    g = ring.parse("z^2+x^2*y+x*y^2+x*y*z")
    assert g.derivative(1) == ring.parse("x^2 + x*z")


def test_permute_variables_takes_only_permutations():
    ring = PolyRing(["x", "y", "z"], 3)
    f = ring.parse("x + 2*y^2 + x*z^3")
    assert f.permute_variables((2, 0, 1)) == ring.parse("y + 2*z^2 + x^3*y")
    assert f.permute_variables(range(3)) == f
    # a repeated index would merge variables, a short one drop a
    # coordinate of every monomial
    for perm in ((0, 0, 1), (0, 1), (0, 1, 2, 3), (1, 2, 3), ()):
        with pytest.raises(ValueError):
            f.permute_variables(perm)


def test_substitute_scaled_checks_the_variable_index():
    ring = PolyRing(["x", "y"], 5)
    f = ring.parse("x^2 + y^3")
    assert f.substitute_scaled(1, 2) == ring.parse("x^2 + 3*y^3")
    for v in (-1, 2):
        with pytest.raises(IndexError):
            f.substitute_scaled(v, 2)
        with pytest.raises(IndexError):
            f.derivative(v)


def test_format_examples():
    assert format_poly(PolyRing(["x", "y"], 5).parse("y+x")) == "x + y"
    ring = PolyRing(["x", "y"], 3)
    assert format_poly(ring.zero()) == "0"
    assert format_poly(ring.parse("x^2+2*y")) == "x^2 + 2*y"


def test_format_constant_term():
    ring = PolyRing(["x", "y"], 7)
    assert format_poly(ring.from_int(12)) == "5"


def _summed_products(left, right):
    """sum(a * b) by `Poly` products and sums, which raise as they go."""
    acc = left[0].ring.zero()
    for a, b in zip(left, right):
        acc = acc + a * b
    return acc


def test_dot_matches_summed_naive_products():
    # dot against the sum of schoolbook products, zero and one-term
    # operands included, and on pairs whose products cancel
    rng = random.Random(2425)
    seen = set()
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            ring = PolyRing(["x", "y", "z", "w"][:n], p)
            for _ in range(25):
                k = rng.randint(1, 4)
                sizes = [rng.choice((0, 1, 1, 5)) for _ in range(2 * k)]
                operands = [random_poly(rng, ring, t) for t in sizes]
                left, right = operands[:k], operands[k:]
                want = ring.zero()
                for a, b in zip(left, right):
                    want = want + naive_product(a, b)
                    seen.update(len(x) for x in (a, b))
                assert dot(left, right) == want
                if not left[0].is_zero():
                    assert dot(left[:1] * 2, [right[0], -right[0]]).is_zero()
    assert {0, 1} <= seen and max(seen) > 1, seen
    with pytest.raises(ValueError):
        dot([], [])
    with pytest.raises(ValueError):
        dot([ring.one()], [ring.one(), ring.one()])


def test_dot_guard_matches_the_products():
    # dot raises DegreeGuardError exactly where some a * b of the sum
    # does, the guard being that of a's ring, as in `a * b`
    rng = random.Random(2426)
    outcomes = set()
    for guard in (6, 8, 10):
        ring = PolyRing(["x", "y", "z"], 3, max_degree=guard)
        for _ in range(40):
            k = rng.randint(1, 3)
            left, right = ([random_poly(rng, ring, 3, 6) for _ in range(k)]
                           for _ in range(2))
            try:
                want = _summed_products(left, right)
            except DegreeGuardError:
                want = None
                with pytest.raises(DegreeGuardError):
                    dot(left, right)
            else:
                assert dot(left, right) == want
            outcomes.add(want is None)
    assert outcomes == {False, True}
    small, big = PolyRing(["x"], 3, 6), PolyRing(["x"], 3, 100)
    a, b = small.parse("x^4 + 1"), big.parse("x^3 + x")
    with pytest.raises(DegreeGuardError):
        dot([a], [b])
    assert dot([b], [a]) == b * a
    assert dot([small.zero(), b], [big.parse("x^99"), a]) == b * a


def test_dot_refuses_mixed_ambients():
    xy3 = PolyRing(["x", "y"], 3)
    a, b = xy3.parse("x + y"), xy3.parse("x*y")
    for other in (PolyRing(["x", "z"], 3), PolyRing(["x", "y"], 5)):
        c = other.parse("x + 1")
        for left, right in (([a], [c]), ([c], [a]), ([a, c], [b, c]),
                            ([a, a], [b, c]), ([a, b], [b, other.zero()])):
            with pytest.raises(AmbientMismatchError):
                dot(left, right)


RING_LAW_PRIMES = (2, 3, 5, 7)


def test_ring_laws_random():
    rng = random.Random(20240811)
    for p in RING_LAW_PRIMES + (2**31 - 1,):
        for names in (["x", "y", "z"], ["u", "v", "w", "x", "y", "z"]):
            ring = PolyRing(names, p)
            zero = ring.zero()
            for _ in range(40):
                a = random_poly(rng, ring, 4, 6)
                b = random_poly(rng, ring, 4, 6)
                c = random_poly(rng, ring, 4, 6)
                assert (a + b) + c == a + (b + c)
                assert a + b == b + a
                assert (a * b) * c == a * (b * c)
                assert a * b == b * a
                assert a * (b + c) == a * b + a * c
                assert a + (-a) == zero
                assert a - b == a + (-b)
                assert a * b == naive_product(a, b)
                single = random_poly(rng, ring, 1, 6)
                assert single * a == naive_product(single, a)
                assert a * single == naive_product(a, single)


def test_frobenius_law_random():
    rng = random.Random(7)
    for p in RING_LAW_PRIMES:
        ring = PolyRing(["x", "y", "z"], p)
        for _ in range(25):
            f = random_poly(rng, ring, 5, 6)
            by_pow = f ** p
            by_map = ring.from_terms(
                {tuple(e * p for e in m): pow(c, p, p) for m, c in f.terms.items()})
            assert by_pow == by_map
            assert f.frobenius() == by_pow


def test_leibniz_rule_random():
    rng = random.Random(99)
    for p in (2, 3, 5):
        ring = PolyRing(["x", "y", "z"], p)
        for _ in range(30):
            f = random_poly(rng, ring, 4, 5)
            g = random_poly(rng, ring, 4, 5)
            for v in range(3):
                left = (f * g).derivative(v)
                right = f * g.derivative(v) + g * f.derivative(v)
                assert left == right


def test_parse_format_roundtrip_500():
    rng = random.Random(12345)
    count = 0
    while count < 500:
        p = rng.choice(RING_LAW_PRIMES)
        nvars = rng.randint(1, 3)
        ring = PolyRing(["x", "y", "z"][:nvars], p)
        f = random_poly(rng, ring, 6, 7)
        assert ring.parse(format_poly(f)) == f
        count += 1


def test_format_poly_matches_the_grevlex_key_printer():
    """Up to 41 terms, many of one degree, exponents up to 12, a constant
    term, and coefficients 1 and > 1: the printed order is descending
    grevlex_key and the text reparses to the same polynomial."""
    rng = random.Random(2026)
    names = ["x", "y", "z", "u", "v"]
    for _ in range(300):
        p = rng.choice((2, 3, 7))
        n = rng.randint(1, 5)
        ring = PolyRing(names[:n], p)
        terms = {(0,) * n: rng.randrange(1, p) if p > 2 else 1}
        for i in range(rng.randint(1, 40)):
            mono = tuple(rng.randint(0, 12) for _ in range(n))
            terms[mono] = 1 if i == 0 else rng.randrange(1, p) if p > 2 else 1
        f = ring.from_terms(terms)
        text = format_poly(f)
        assert text == format_poly_by_grevlex_key(f)
        assert ring.parse(text) == f
    # exponents on both sides of the bound of the factor-text table, in
    # rings of one to three variables, one variable in a third of them
    bound = _FACTOR_TABLE_SIZE
    near = (0, 1, 2, bound - 2, bound - 1, bound, bound + 1, 3 * bound)
    for i in range(150):
        n = 1 if i % 3 == 0 else rng.randint(2, 3)
        ring = PolyRing(names[:n], rng.choice((2, 3, 7)))
        terms = {tuple(rng.choice(near) for _ in range(n)):
                 rng.randrange(1, ring.p) for _ in range(rng.randint(1, 8))}
        f = ring.from_terms(terms)
        text = format_poly(f)
        assert text == format_poly_by_grevlex_key(f)
        assert ring.parse(text) == f
        for mono in f.terms:
            assert ring.parse(format_monomial(mono, ring.variables)) == \
                ring.from_terms({mono: 1})
    assert format_monomial((0, 0), ("x", "y")) == "1"
    assert format_monomial((bound - 1, bound), ("x", "y")) == \
        f"x^{bound - 1}*y^{bound}"


def test_equality_is_syntactic():
    ring = PolyRing(["x", "y"], 5)
    a = ring.parse("x + y + 4*y")
    b = ring.parse("x")
    assert a == b
    assert hash(a) == hash(b)
    assert len(a.terms) == 1


def test_immutability_of_results():
    ring = PolyRing(["x", "y"], 5)
    a = ring.parse("x + y")
    b = ring.parse("x")
    _ = a + b
    _ = a * b
    assert a == ring.parse("x + y")
    assert b == ring.parse("x")


def test_field_inverse_law_exhaustive():
    for p in (2, 3, 5, 7, 11, 13):
        ring = PolyRing(["x"], p)
        for a in range(1, p):
            assert a * ring.inv(a) % p == 1
        with pytest.raises(ZeroDivisionError):
            ring.inv(0)
