"""Frobenius operators: digit decomposition, trace, delta1, Fedder,
splitting sections."""

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from fliftlab.fp_poly import (AmbientMismatchError, DegreeGuardError,
                              PolyRing)
from fliftlab.frobsplit import (_delta1_terms, apply_sigma, build_splitting,
                                delta1, frobenius_decompose,
                                lift_and_residual)
from fliftlab.groebner import (GREVLEX, MonomialOrder, _Layout,
                               buchberger, normal_form)

from support import (delta1_walk, diagonal, diagonal_is_fpure,
                     find_fedder_survivor, random_poly, random_nonzero_poly,
                     splitting_h, trace_u, weighted_order)


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
            assert apply_sigma(split, r) == trace_u(splitting_h(split) * r)


def test_apply_sigma_keeps_the_product_guard_and_ambient_check():
    ring = PolyRing(["x", "y"], 3, max_degree=20)
    split = build_splitting([ring.parse("x^2+y^3")])
    at = ring.monomial((20 - splitting_h(split).total_degree(), 0))
    assert apply_sigma(split, at) == trace_u(splitting_h(split) * at)
    over = at * ring.variable(1)
    with pytest.raises(DegreeGuardError):
        trace_u(splitting_h(split) * over)
    with pytest.raises(DegreeGuardError):
        apply_sigma(split, over)
    with pytest.raises(AmbientMismatchError):
        apply_sigma(split, PolyRing(["x", "z"], 3).parse("x"))


def _poly_fedder(gens):
    """Fedder through Poly arithmetic: (prod gens)^(p-1), its survivor and
    h = power * x^((p-1) - survivor)."""
    ring, p = gens[0].ring, gens[0].ring.p
    power = functools.reduce(operator.mul, gens) ** (p - 1)
    survivor = find_fedder_survivor(power)
    h = power
    if survivor is not None and any(e < p - 1 for e in survivor):
        h = h * ring.monomial([p - 1 - e for e in survivor])
    return power, survivor, h


def _lifted_power(f):
    """(lift f)^(p-1) mod p^2 by schoolbook products of exponent tuples,
    each coefficient of f lifted to [0, p)."""
    p = f.ring.p
    power = {(0,) * f.ring.nvars: 1}
    for _ in range(p - 1):
        out: dict = {}
        for a, ca in power.items():
            for b, cb in f.terms.items():
                k = tuple(map(operator.add, a, b))
                out[k] = (out.get(k, 0) + ca * cb) % (p * p)
        power = {k: c for k, c in out.items() if c}
    return power


def _packings(ring):
    """The default packing and the exponent fields of the layouts the
    screen may hand over: degrevlex, and two weighted degrevlex orders,
    one with position slots."""
    n, guard = ring.nvars, ring.max_degree
    weighted = MonomialOrder(tuple(range(1, n + 1)))
    return [None, _Layout(n, 0, GREVLEX, guard).fields,
            _Layout(n, 2, weighted, guard).fields,
            _Layout(n, 0, weighted_order(n), guard).fields]


def test_packed_fedder_matches_the_poly_route():
    # seeded generators, one-term ones among them: the packed power,
    # survivor, h, s and digit groups equal the Poly route's in every
    # packing; each generator's packed power is its f^(p-1) lifted mod
    # p^2, and delta1 from it equals delta1 and the walk oracle (0 for
    # one term)
    rng = random.Random(2501)
    compared = one_term = 0
    for p in (2, 3, 5, 7):
        for n in (2, 3, 4):
            ring = PolyRing("xyzw"[:n], p, max_degree=400)
            for m in (1, 2):
                for trial in range(4):
                    gens = [random_nonzero_poly(rng, ring, 1 + 3 * (trial > 0),
                                                3) for _ in range(m)]
                    power, survivor, h = _poly_fedder(gens)
                    groups: dict = {}
                    for a, c in power.terms.items():
                        groups.setdefault(tuple(e % p for e in a), {})[a] = c
                    for packing in _packings(ring):
                        split = build_splitting(gens, packing)
                        assert (split.unpack(split.power_terms),
                                split.survivor, splitting_h(split)) == \
                            (power, survivor, h)
                        assert split.fpure_at_origin == (survivor is not None)
                        assert split.s == trace_u(h)
                        assert split.degree == h.total_degree()
                        assert {alpha: split.unpack(terms).terms for
                                alpha, terms in split.groups.items()} == groups
                        assert (split.powers[0] is split.power_terms) == \
                            (m == 1)
                        shifts, _, mask = split.packing
                        for f, f_power in zip(gens, split.powers):
                            assert split.unpack(f_power) == f ** (p - 1)
                            assert {tuple([(k >> s) & mask for s in shifts]):
                                    c for k, c in f_power.items()} == \
                                _lifted_power(f)
                            shared = split.unpack(_delta1_terms(
                                f, split.packing[1], f_power))
                            assert shared == delta1(f) == delta1_walk(f)
                            one_term += len(f) == 1 and shared.is_zero()
                        compared += 1
    assert compared == 4 * 3 * 2 * 4 * 4 and one_term >= 8, one_term


def _outcome(route, gens):
    try:
        return route(gens)
    except (AmbientMismatchError, DegreeGuardError) as exc:
        return type(exc), str(exc)


def _packed_route(gens):
    split = build_splitting(gens)
    return [split.survivor] + ([
        (g, split.unpack(r)) for g, r in
        (lift_and_residual(split, j) for j in range(len(gens)))]
        if split.fpure_at_origin else [])


def _poly_route(gens):
    """Fedder and the residuals through Poly products and powers, which
    raise at their own checks: sigma as the trace of h * delta1."""
    _, survivor, h = _poly_fedder(gens)
    if survivor is None:
        return [survivor]
    s_p = trace_u(h).frobenius()
    out = [survivor]
    for f in gens:
        d1 = delta1_walk(f)
        g = -trace_u(h * d1)
        out.append((g, s_p * d1 + g.frobenius()))
    return out


def test_packed_fedder_and_residual_raise_where_the_poly_route_does():
    # every degree guard from the generators' degree up past f^p and h:
    # the same DegreeGuardError (message included, so the same check) or
    # the same result, among them at deg(prod f) * (p-1) and deg(f) * p
    # and one below each, and where the survivor's shift passes the guard
    # (x + y^3, and x alone, whose shift y^2*z^2 outgrows x^2); generators
    # of another ambient raise AmbientMismatchError at the same product
    cases = [(5, "xyz", ["x^2+y^3+z^7+x*y*z"]),
             (5, "xyz", ["z^2+x^3+y^5+x*y^4"]),
             (3, "xy", ["x^2+y^3+x*y"]), (3, "xy", ["x+y^3"]),
             (3, "xyz", ["x"]),
             (3, "xyzw", ["x*y+z^2+w^2", "z*w+x^2+y^2+2*x*y*w"]),
             (2, "xyzw", ["x*y+z^2+w^3", "z*w+x^3+y^4"])]
    raised = set()
    for p, names, texts in cases:
        top = PolyRing(names, p).parse("*".join(f"({t})" for t in texts))
        degrees = [PolyRing(names, p).parse(t).total_degree() for t in texts]
        thresholds = {top.total_degree() * (p - 1)}
        thresholds |= {d * p for d in degrees}
        guards = range(max(degrees), max(thresholds) + len(names) * p)
        assert all(t in guards and t - 1 in guards for t in thresholds
                   if t > max(degrees))
        for guard in guards:
            ring = PolyRing(names, p, guard)
            gens = [ring.parse(t) for t in texts]
            want = _outcome(_poly_route, gens)
            assert _outcome(_packed_route, gens) == want, (texts, guard)
            if isinstance(want, tuple):
                raised.add(want[1].split()[0])
    assert raised == {"product", "power", "delta1", "monomial"}, raised
    # a second generator under a larger guard of its own: below 16 its
    # delta1, with the term x^17*z, passes the fields of the first one's
    # guard, so delta1 is formed in its own packing; the outcomes still
    # agree guard by guard
    for guard in range(11, 32):
        gens = [PolyRing("xyzw", 2, guard).parse("x*y+z^2"),
                PolyRing("xyzw", 2, 100).parse("z*w+x^9+x^8*z")]
        want = _outcome(_poly_route, gens)
        assert _outcome(_packed_route, gens) == want, guard
    ring, other = PolyRing("xyzw", 3), PolyRing("xyzw", 5)
    for gens in ([ring.parse("x*y+z^2"), other.parse("z*w+x^2")],
                 [ring.parse("x*y+z^2"), ring.parse("z*w+x^2"),
                  other.parse("w")]):
        want = _outcome(_poly_route, gens)
        assert want[0] is AmbientMismatchError
        assert _outcome(_packed_route, gens) == want


def test_diagonal_fedder_matches_the_closed_form():
    """Fedder's test on x0^a0 + ... (2 <= a_i) at n = 3, 4, 5 against
    sum floor((p-1)/a_i) >= p-1; and never F-pure when sum 1/a_i < 1,
    since F-pure implies log canonical (Hara-Watanabe 2002).  The sum is
    exact: in floats 1/2 + 1/3 + 1/6 comes out below 1."""
    for n, top, primes in ((3, 8, (3, 5, 7, 11)), (4, 6, (3, 5, 7)),
                           (5, 4, (3, 5))):
        for p in primes:
            for a in itertools.combinations_with_replacement(
                    range(2, top + 1), n):
                pure = build_splitting([diagonal(a, p)]).fpure_at_origin
                assert pure == diagonal_is_fpure(a, p), (a, p)
                if sum(Fraction(1, e) for e in a) < 1:
                    assert not pure, (a, p)
