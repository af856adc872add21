"""Frobenius operators: digit decomposition, trace, delta1, Fedder,
splitting sections."""

import itertools
import math
import random

import pytest

from fliftlab.fp_poly import (AmbientMismatchError, DegreeGuardError,
                              PolyRing)
from fliftlab.frobsplit import (apply_sigma, build_splitting, delta1,
                                find_fedder_survivor, frobenius_decompose,
                                trace_u)
from fliftlab.groebner import buchberger, normal_form

from support import delta1_walk, random_poly, random_nonzero_poly


def test_decompose_examples():
    ring = PolyRing(["x", "y", "z"], 2)
    fd = frobenius_decompose(ring.parse("x^3*y + z"))
    assert fd.component((1, 1, 0)) == ring.parse("x")
    assert fd.component((0, 0, 1)) == ring.one()
    assert fd.component((1, 0, 0)).is_zero()

    ring1 = PolyRing(["x", "y"], 2)
    fd = frobenius_decompose(ring1.parse("x^2"))
    assert fd.component((0, 0)) == ring1.parse("x")


def test_decompose_roundtrip_random():
    rng = random.Random(314)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        ring = PolyRing(["x", "y", "z"], p)
        f = random_poly(rng, ring, 6, 8)
        assert frobenius_decompose(f).reassemble() == f


def test_trace_examples():
    ring = PolyRing(["x", "y", "z"], 2)
    assert trace_u(ring.parse("x*y*z")) == ring.one()
    assert trace_u(ring.parse("x^3*y*z")) == ring.parse("x")
    assert trace_u(ring.parse("x^2*y*z")).is_zero()


def test_trace_semilinearity_random():
    rng = random.Random(2020)
    for p in (2, 3, 5):
        ring = PolyRing(["x", "y", "z"], p)
        for _ in range(20):
            f = random_poly(rng, ring, 5, 6)
            g = random_poly(rng, ring, 3, 3)
            assert trace_u(g.frobenius() * f) == g * trace_u(f)


def test_delta1_examples():
    r2 = PolyRing(["x", "y"], 2)
    assert delta1(r2.parse("x+y")) == r2.parse("x*y")
    r3 = PolyRing(["x", "y"], 3)
    assert delta1(r3.parse("x+y")) == r3.parse("x^2*y + x*y^2")
    assert delta1(r3.parse("2*x")).is_zero()
    r7 = PolyRing(["x"], 7)
    assert delta1(r7.parse("x^3")).is_zero()
    assert delta1(r7.zero()).is_zero()


def test_delta1_cusp_expansion():
    ring = PolyRing(["x", "y", "z"], 2)
    for (a, b, c) in ((3, 4, 5), (2, 3, 7), (3, 3, 4)):
        f = ring.parse(f"x^{a}+y^{b}+z^{c}+x*y*z")
        target = ring.parse(
            f"x^{a}*y^{b} + x^{a}*z^{c} + y^{b}*z^{c} + "
            f"x*y*z*(x^{a}+y^{b}+z^{c})")
        assert delta1(f) == target


def test_delta1_cusp_congruence_mod_f():
    # delta1(f) is congruent to x^a*y^b + x^a*z^c + y^b*z^c + (x*y*z)^2
    # modulo f for the cusp equation at p = 2
    ring = PolyRing(["x", "y", "z"], 2)
    for (a, b, c) in ((3, 4, 5), (2, 3, 7), (3, 3, 4), (4, 4, 4)):
        f = ring.parse(f"x^{a}+y^{b}+z^{c}+x*y*z")
        reduced = ring.parse(
            f"x^{a}*y^{b} + x^{a}*z^{c} + y^{b}*z^{c} + x^2*y^2*z^2")
        gb = buchberger([f])
        assert normal_form(delta1(f) - reduced, gb).is_zero()


def test_delta1_ci_cusp_congruences():
    # delta1(x*y + z^a + w^b) is congruent to z^a*w^b + x^2*y^2 mod (f),
    # and symmetrically for the second equation, at p = 2
    ring = PolyRing(["x", "y", "z", "w"], 2)
    for (a, b, c, d) in ((3, 2, 2, 2), (3, 4, 5, 6), (2, 2, 3, 2)):
        f = ring.parse(f"x*y + z^{a} + w^{b}")
        g = ring.parse(f"z*w + x^{c} + y^{d}")
        gb_f = buchberger([f])
        gb_g = buchberger([g])
        assert normal_form(
            delta1(f) - ring.parse(f"z^{a}*w^{b} + x^2*y^2"), gb_f).is_zero()
        assert normal_form(
            delta1(g) - ring.parse(f"x^{c}*y^{d} + z^2*w^2"), gb_g).is_zero()


def test_delta1_degree_guard():
    # the guard bounds deg f^p = p * deg f and raises before any product
    ring = PolyRing(["x", "y"], 5, max_degree=15)
    assert delta1(ring.parse("x^3 + y")) == delta1_walk(ring.parse("x^3 + y"))
    with pytest.raises(DegreeGuardError):
        delta1(ring.parse("x^3*y + y"))
    # a single term is 0 whatever its degree
    assert delta1(ring.parse("x^4")).is_zero()


def test_delta1_many_terms_char_2():
    # at p = 2 the defect is the sum of pairwise term products; a large
    # term count must not exhaust the interpreter stack
    ring = PolyRing(["x", "y"], 2)
    n_terms = 1200
    f = ring.from_terms({(i, n_terms - i): 1 for i in range(n_terms)})
    d = delta1(f)
    # all pairwise products share total degree 2*n_terms; count survivors
    # against a direct pairwise accumulation
    expect: dict = {}
    monos = list(f.terms)
    for i in range(len(monos)):
        for j in range(i + 1, len(monos)):
            m = tuple(a + b for a, b in zip(monos[i], monos[j]))
            expect[m] = expect.get(m, 0) ^ 1
    expect = {m: c for m, c in expect.items() if c}
    assert d.terms == expect


def test_delta1_agrees_with_walk_oracle_200():
    rng = random.Random(1618)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        ring = PolyRing(["x", "y", "z"], p)
        f = random_poly(rng, ring, 5, 6)
        assert delta1(f) == delta1_walk(f)


def test_delta1_walk_oracle_examples():
    r5 = PolyRing(["x", "y"], 5)
    d = delta1_walk(r5.parse("x+y"))
    assert d.coefficient((4, 1)) == 1  # C(5;4,1)/5 = 1, Wilson route agrees
    r2 = PolyRing(["x", "y", "z"], 2)
    assert delta1_walk(r2.parse("x+y+z")) == r2.parse("x*y+x*z+y*z")
    r3 = PolyRing(["x"], 3)
    assert delta1_walk(r3.parse("2*x")).is_zero()


def test_wilson_coefficient_law_exhaustive():
    # the coefficient law of the walk oracle: -(prod a_i!)^(-1) mod p
    # equals (p-1)!/prod(a_i!) for every composition of p with parts in
    # [1, p-1], p <= 7, up to 4 parts
    for p in (2, 3, 5, 7):
        for m in range(2, 5):
            for parts in itertools.product(range(1, p), repeat=m):
                if sum(parts) != p:
                    continue
                denom = math.prod(math.factorial(a) for a in parts)
                assert math.factorial(p - 1) % denom == 0
                exact = math.factorial(p - 1) // denom
                wilson = (-pow(denom % p, p - 2, p)) % p
                assert wilson == exact % p


def test_fedder_examples():
    ring = PolyRing(["x", "y", "z"], 2)
    assert build_splitting([ring.parse("z^2+x^2*y+x*y^3+x*y*z")]).fpure_at_origin
    assert not build_splitting([ring.parse("z^2+x^2*y+x*y^3")]).fpure_at_origin
    r5 = PolyRing(["x", "y", "z"], 5)
    assert build_splitting([r5.parse("z^2+x^3+y^5+x*y^4")]).fpure_at_origin
    with pytest.raises(ValueError):
        build_splitting([ring.zero()])
    with pytest.raises(ValueError):
        build_splitting([])


def test_build_splitting_examples():
    ring = PolyRing(["x", "y", "z"], 2)
    for n in range(2, 6):
        split = build_splitting([ring.parse(f"z^2+x^2*y+x*y^{n}+x*y*z")])
        assert split.s == ring.one()
        assert split.fpure_at_origin
    r3 = PolyRing(["x", "y", "z"], 3)
    split = build_splitting([r3.parse("z^2+x^3+y^4+x^2*y^2")])
    assert split.trace_constant != 0
    # any non-F-pure input has zero trace constant
    split = build_splitting([ring.parse("z^2+x^2*y+x*y^3")])
    assert not split.fpure_at_origin
    assert split.trace_constant == 0


def test_fedder_sigma_consistency_random():
    rng = random.Random(515)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        ring = PolyRing(["x", "y", "z"], p)
        gens = [random_nonzero_poly(rng, ring, 4, 4)
                for _ in range(rng.randint(1, 2))]
        split = build_splitting(gens)
        h = gens[0]
        for g in gens[1:]:
            h = h * g
        survives = find_fedder_survivor(h ** (p - 1)) is not None
        assert survives == (split.trace_constant != 0)
        assert split.fpure_at_origin == (split.trace_constant != 0)


def test_sigma_compatible_with_ideal_100():
    rng = random.Random(616)
    checked = 0
    while checked < 100:
        p = rng.choice((2, 3, 5))
        ring = PolyRing(["x", "y", "z"], p)
        f = random_nonzero_poly(rng, ring, 3, 4)
        split = build_splitting([f])
        r = random_poly(rng, ring, 4, 4)
        image = apply_sigma(split, f * r)
        # image must be divisible by f
        gb = buchberger([f])
        assert normal_form(image, gb).is_zero()
        checked += 1


def test_apply_sigma_zero():
    ring = PolyRing(["x", "y", "z"], 2)
    split = build_splitting([ring.parse("z^2+x^2*y+x*y^2+x*y*z")])
    assert apply_sigma(split, ring.zero()).is_zero()


def test_apply_sigma_matches_trace_of_the_full_product():
    # oracle: the trace of the whole product h * r
    rng = random.Random(2357)
    for p in (2, 3, 5, 7):
        ring = PolyRing(["x", "y", "z"], p)
        for _ in range(3):
            split = build_splitting([random_nonzero_poly(rng, ring, 3, 3)])
            # a term in every residue class mod p, then a few more
            terms = {}
            for alpha in itertools.product(range(p), repeat=3):
                mono = tuple(a + p * rng.randrange(3) for a in alpha)
                terms[mono] = rng.randrange(1, p)
            r = ring.from_terms(terms) + random_poly(rng, ring, 6, 12)
            assert apply_sigma(split, r) == trace_u(split.h * r)


def test_apply_sigma_keeps_the_product_guard_and_ambient_check():
    ring = PolyRing(["x", "y"], 3, max_degree=20)
    split = build_splitting([ring.parse("x^2+y^3")])
    at = ring.monomial((20 - split.h.total_degree(), 0))
    assert apply_sigma(split, at) == trace_u(split.h * at)
    over = at * ring.variable(1)
    with pytest.raises(DegreeGuardError):
        trace_u(split.h * over)
    with pytest.raises(DegreeGuardError):
        apply_sigma(split, over)
    with pytest.raises(AmbientMismatchError):
        apply_sigma(split, PolyRing(["x", "z"], 3).parse("x"))
