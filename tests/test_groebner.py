"""Groebner engine: normal forms, Buchberger, membership, dimension."""

import functools
import itertools
import operator
import random

import pytest

from fliftlab.catalog import make_cusp_ci, make_cusp_hypersurface
from fliftlab.fp_poly import (AmbientMismatchError, DegreeGuardError,
                              PolyRing, format_poly, grevlex_key)
from fliftlab.groebner import (GREVLEX, ModuleVector,
                               MonomialOrder, _frobenius_reducers,
                               _Layout, _new_pairs, _prep_reducer,
                               _reduce_full, _standard_count,
                               buchberger, is_zero_dimensional,
                               module_buchberger, normal_form,
                               normal_form_with_cofactors,
                               jacobian_module, quotient_dimension,
                               reduce_by_generators, supported_only_at_origin)

from support import (box_standard_count, check_packed_layout, cofactors,
                     combine, expand, hand_built, is_basis,
                     macaulay_membership, order_key, quadratic_new_pairs,
                     random_poly, random_nonzero_poly, unit_expansions,
                     verify_buchberger, weighted_order)


def test_monomial_order_laws():
    # total order, multiplicativity, 1 as minimum, on random monomials
    rng = random.Random(1001)
    for order in (GREVLEX, weighted_order(3)):
        key = functools.partial(order_key, order)
        one = (0, 0, 0)
        for _ in range(200):
            a = tuple(rng.randrange(6) for _ in range(3))
            b = tuple(rng.randrange(6) for _ in range(3))
            c = tuple(rng.randrange(6) for _ in range(3))
            assert (key(a) < key(b)) + (key(a) == key(b)) + (key(a) > key(b)) == 1
            assert (key(a) == key(b)) == (a == b)
            if key(a) < key(b):
                ac = tuple(x + y for x, y in zip(a, c))
                bc = tuple(x + y for x, y in zip(b, c))
                assert key(ac) < key(bc)
            if a != one:
                assert key(one) < key(a)


def test_packed_layout_matches_tuple_terms():
    rng = random.Random(8080)
    for order in (GREVLEX, weighted_order(3)):
        check_packed_layout(rng, order, 0)


def test_polynomial_beyond_the_basis_guard_raises():
    small = PolyRing(["x", "y"], 5, max_degree=4)
    large = PolyRing(["x", "y"], 5, max_degree=100)
    for order in (GREVLEX, weighted_order(2)):
        gb = buchberger([small.parse("x^2 + y")], order)
        assert normal_form(large.parse("x^2*y + y^2"), gb).is_zero()
        with pytest.raises(DegreeGuardError):
            normal_form(large.parse("y^40"), gb)
        with pytest.raises(DegreeGuardError):
            reduce_by_generators(small.parse("x"), [large.parse("y^40")],
                                 order)


def test_standard_count_matches_box_walk():
    rng = random.Random(9090)
    for _ in range(400):
        n = rng.randint(1, 4)
        lms = [tuple(rng.randint(1, 5) if k == v else 0 for k in range(n))
               for v in range(n)]
        lms += [tuple(rng.randint(0, 4) for _ in range(n))
                for _ in range(rng.randint(0, 5))]
        rng.shuffle(lms)
        assert _standard_count(lms, n) == box_standard_count(lms, n)


def test_divisor_memo_resumes_after_an_appended_reducer():
    # x*y misses y^2 + 1; once x + 1 joins the list, the memo that
    # recorded the miss must still find it
    ring = PolyRing(["x", "y"], 5)
    layout = _Layout(2, 0, GREVLEX, ring.max_degree)

    def prep(text):
        return _prep_reducer(layout.enc_terms(ring.parse(text).terms), 5)

    reducers = [prep("y^2 + 1")]
    memo: dict = {}
    f = layout.enc_terms(ring.parse("x*y").terms)
    # the division empties its input, so a term dict used again is copied
    assert _reduce_full(dict(f), reducers, 5, layout, memo=memo) == f
    reducers.append(prep("x + 1"))
    rem = _reduce_full(f, reducers, 5, layout, memo=memo)
    assert layout.dec_terms(rem) == ring.parse("4*y").terms
    # random lists grown one reducer at a time: a shared memo gives the
    # remainders and quotients of a fresh one
    rng = random.Random(7117)
    for order in (GREVLEX, weighted_order(3)):
        for p in (2, 5):
            ring = PolyRing(["x", "y", "z"], p)
            layout = _Layout(3, 0, order, ring.max_degree)
            reducers, memo = [], {}
            for _ in range(6):
                g = random_nonzero_poly(rng, ring, 3, 3)
                reducers.append(_prep_reducer(layout.enc_terms(g.terms), p))
                for _ in range(4):
                    f = layout.enc_terms(random_poly(rng, ring, 5, 6).terms)
                    shared = [{} for _ in reducers]
                    fresh = [{} for _ in reducers]
                    assert _reduce_full(dict(f), reducers, p, layout, shared,
                                        memo) == \
                        _reduce_full(f, reducers, p, layout, fresh)
                    assert shared == fresh


def _random_terms(rng, p: int, slots: int, nvars: int, max_terms: int,
                  degree: int, exact: bool = False) -> dict:
    """A random element of R^s (s = max(slots, 1)) as slotted exponent
    tuples, of degree at most `degree`, or exactly `degree` if `exact`."""
    out = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * nvars
        for _ in range(degree if exact else rng.randint(0, degree)):
            mono[rng.randrange(nvars)] += 1
        slot = [0] * slots
        if slots:
            slot[rng.randrange(slots)] = 1
        out[tuple(slot + mono)] = rng.randrange(1, p)
    return out


def _packed(layout, terms: dict) -> dict:
    return {layout.enc(t): c for t, c in terms.items()}


def test_reduction_reduces_each_coefficient_when_popped():
    # the kernel keeps coefficients unreduced until their term is popped,
    # so shifting the input's coefficients by multiples of p, and adding
    # terms whose coefficients are 0 mod p, changes neither the remainder
    # nor the quotients
    rng = random.Random(6161)
    for order in (GREVLEX, weighted_order(3)):
        for slots in (0, 2):
            for p in (2, 5, 7):
                layout = _Layout(3, slots, order, 40)
                for _ in range(10):
                    reducers = [_prep_reducer(_packed(layout, _random_terms(
                        rng, p, slots, 3, 3, 3)), p)
                        for _ in range(rng.randint(1, 4))]
                    f = _packed(layout, _random_terms(rng, p, slots, 3, 8, 6))
                    shifted = {m: c + p * rng.randint(-3, 3)
                               for m, c in f.items()}
                    extra = _random_terms(rng, p, slots, 3, 4, 6)
                    for m in _packed(layout, extra):
                        shifted.setdefault(m, p * rng.randint(-3, 3))
                    want = [{} for _ in reducers]
                    got = [{} for _ in reducers]
                    rem = _reduce_full(f, reducers, p, layout, want)
                    assert list(_reduce_full(shifted, reducers, p, layout,
                                             got).items()) == list(rem.items())
                    assert got == want
                    assert all(0 < c < p for c in rem.values())


def test_degrevlex_reduction_at_the_guard_sets_no_guard_bit():
    # the kernel does not test new terms for overflow, as no tail term
    # outgrows its lead: inputs at the degree guard reduce
    # exactly as in a wide layout, and no remainder term sets a guard bit
    rng = random.Random(5151)
    p = 5
    for slots in (0, 3):
        for guard in (2, 3, 4, 7):
            tight = _Layout(3, slots, GREVLEX, guard)
            wide = _Layout(3, slots, GREVLEX, 100)
            for _ in range(15):
                gens = [_random_terms(rng, p, slots, 3, 4,
                                      rng.randint(1, guard))
                        for _ in range(rng.randint(1, 4))]
                f = _random_terms(rng, p, slots, 3, 8, guard, exact=True)
                out = []
                for layout in (tight, wide):
                    quotients = [{} for _ in gens]
                    rem = _reduce_full(
                        _packed(layout, f),
                        [_prep_reducer(_packed(layout, g), p) for g in gens],
                        p, layout, quotients)
                    if layout is tight:
                        assert not any(m & layout.guard for m in rem)
                    out.append((layout.dec_terms(rem),
                                [layout.dec_terms(q) for q in quotients]))
                assert out[0] == out[1]


def _weighted_key(weights):
    """The weighted order by definition: the weighted degree, ties broken
    by degrevlex."""
    return lambda mono: (sum(map(operator.mul, weights, mono)),
                         grevlex_key(mono))


def _field_pack(layout, weights, t: tuple) -> int:
    """A slotted exponent tuple packed field by field, from the lowest up:
    the slots (position 0 highest), the exponents, the prefix sums ending
    in the degree, the weighted degree."""
    slots, mono = t[:layout.slots], t[layout.slots:]
    fields = (list(reversed(slots)) + list(mono) +
              list(itertools.accumulate(mono)) +
              [sum(map(operator.mul, weights, mono))])
    return sum(v << (k * layout.width) for k, v in enumerate(fields))


def _random_weights(rng, nvars: int) -> tuple:
    weights = [rng.randint(1, 6) for _ in range(nvars)]
    weights[rng.randrange(nvars)] = rng.randint(2, 6)
    return tuple(weights)


def test_weighted_packed_layout_matches_tuple_terms():
    # a weighted degrevlex layout, for n = 2..4 at rank 1 and slotted:
    # packed < is the weighted degree then grevlex_key, and packing, the
    # degree (unweighted), products, the lcm and the rebuilt upper fields
    # agree with exponent-tuple arithmetic, field by field; divisibility
    # as in `check_packed_layout`
    rng = random.Random(3131)
    for nvars in (2, 3, 4):
        for slots in (0, 2):
            weights = _random_weights(rng, nvars)
            order = MonomialOrder(weights)
            key = _weighted_key(weights)
            check_packed_layout(rng, order, slots, nvars, rounds=60)
            for guard in (1, 4, 9, 300):
                layout = _Layout(nvars, slots, order, guard)

                def term():
                    mono = [0] * nvars
                    for _ in range(rng.choice((rng.randint(0, guard),
                                               guard))):
                        mono[rng.randrange(nvars)] += 1
                    pos = rng.randrange(slots) if slots else 0
                    return pos, tuple(mono), tuple(
                        int(k == pos) for k in range(slots)) + tuple(mono)

                for _ in range(60):
                    (pa, ma, a), (pb, mb, b) = term(), term()
                    ea, eb = layout.enc(a), layout.enc(b)
                    assert ea == _field_pack(layout, weights, a)
                    assert (ea < eb) == ((key(ma), -pa) < (key(mb), -pb))
                    assert layout.degree(ea) == sum(ma)
                    assert layout._prefixed(ea & layout._low_mask) == ea
                    if pa == pb:
                        assert layout.lcm(ea, eb) == _field_pack(
                            layout, weights, tuple(map(max, a, b)))
                    product = a[:slots] + tuple(map(operator.add, ma, mb))
                    assert ea + eb - (eb & layout.slot_mask) == \
                        _field_pack(layout, weights, product)


def test_weighted_order_rejects_bad_weights():
    for bad in [(0, 1), (1, -2), (1.5, 1)]:
        with pytest.raises(ValueError):
            MonomialOrder(bad)
    with pytest.raises(ValueError):
        _Layout(3, 0, MonomialOrder((2, 1)), 10)


def test_weighted_frobenius_reducer_obeys_the_guard_on_the_degree():
    # under a weighted order a tail term can have a larger degree than its
    # lead (x + y^2 under weights (3, 1) leads with x), so the p-th power
    # raises exactly where p times the largest degree of any term passes
    # the guard, and otherwise scales every field by p
    p = 5
    rng = random.Random(2323)
    cases = [((3, 1), {(1, 0): 1, (0, 2): 3})]
    for nvars in (2, 3, 4):
        weights = _random_weights(rng, nvars)
        for _ in range(6):
            terms = _random_terms(rng, p, 0, nvars, 4, 4)
            terms[(1,) + (0,) * (nvars - 1)] = 1  # degree at least 1
            cases.append((weights, terms))
    for weights, terms in cases:
        order = MonomialOrder(weights)
        degree = max(map(sum, terms))
        for slots in (0, 2):
            slot = tuple(int(k == slots - 1) for k in range(slots))
            for guard in (p * degree - 1, p * degree):
                layout = _Layout(len(weights), slots, order, guard)
                reducer = _prep_reducer(
                    {layout.enc(slot + m): c for m, c in terms.items()}, p)
                if guard < p * degree:
                    with pytest.raises(DegreeGuardError):
                        _frobenius_reducers([reducer], layout, p)[0]
                    continue
                want = _prep_reducer(
                    {layout.enc(slot + tuple(e * p for e in m)): c
                     for m, c in terms.items()}, p)
                lm, inv, tail = _frobenius_reducers([reducer], layout, p)[0]
                # c^p = c, so the p-th power keeps the input's 1/lc
                assert (lm, inv, dict(tail)) == (want[0], want[1],
                                                 dict(want[2]))


def test_weighted_reduction_at_the_guard_sets_no_guard_bit():
    # a weighted reduction can climb in degree past the guard (its terms
    # fall in weighted degree only), and a field holds twice the guard
    # times the largest weight: inputs at the guard reduce as in a wide
    # layout, and no remainder term sets a guard bit
    rng = random.Random(5252)
    p = 5
    for slots in (0, 3):
        for guard in (2, 3, 4, 7):
            order = MonomialOrder((1, 4, 2))
            tight = _Layout(3, slots, order, guard)
            wide = _Layout(3, slots, order, 100)
            for _ in range(15):
                gens = [_random_terms(rng, p, slots, 3, 4,
                                      rng.randint(1, guard))
                        for _ in range(rng.randint(1, 4))]
                f = _random_terms(rng, p, slots, 3, 8, guard, exact=True)
                out = []
                for layout in (tight, wide):
                    quotients = [{} for _ in gens]
                    rem = _reduce_full(
                        _packed(layout, f),
                        [_prep_reducer(_packed(layout, g), p) for g in gens],
                        p, layout, quotients)
                    if layout is tight:
                        assert not any(m & layout.guard for m in rem)
                    out.append((layout.dec_terms(rem),
                                [layout.dec_terms(q) for q in quotients]))
                assert out[0] == out[1]


def _textbook_division(f, divisors, order):
    """Quotients and remainder of f by monic divisors, always dividing by
    the first divisor in list order whose lead divides the lead of f."""
    ring = f.ring
    key = functools.partial(order_key, order)
    leads = [max(g.terms, key=key) for g in divisors]
    quotients = [ring.zero()] * len(divisors)
    rem = ring.zero()
    while not f.is_zero():
        lm = max(f.terms, key=key)
        top = ring.monomial(lm, f.terms[lm])
        k = next((k for k, d in enumerate(leads)
                  if all(a <= b for a, b in zip(d, lm))), None)
        if k is None:
            rem, f = rem + top, f - top
            continue
        q = ring.monomial(tuple(b - a for a, b in zip(leads[k], lm)),
                          f.terms[lm])
        quotients[k] = quotients[k] + q
        f = f - q * divisors[k]
    return rem, quotients


def test_normal_form_quotients_follow_first_divisor_division():
    # the divisor memo must not change which element divides a term, so
    # the quotients (and with them every cofactor) stay those of textbook
    # division; each basis is reused, so later calls run on a warm memo
    rng = random.Random(3141)
    for order in (GREVLEX, weighted_order(3)):
        for p in (2, 3, 5):
            ring = PolyRing(["x", "y", "z"], p)
            for _ in range(5):
                gens = [random_nonzero_poly(rng, ring, 3, 3)
                        for _ in range(rng.randint(2, 3))]
                gb = buchberger(gens, order)
                for _ in range(5):
                    f = random_poly(rng, ring, 5, 6)
                    want = _textbook_division(f, gb.generators, order)
                    for _ in range(2):
                        rem, quotients = normal_form_with_cofactors(f, gb)
                        assert (rem, quotients) == want


def test_division_by_a_list_follows_first_divisor_division():
    # the engine's own reductions divide by lists that are not Groebner
    # bases: largest term first, by the first divisor in list order, also
    # with monomial divisors, divisors of one lead and inputs whose terms
    # cancel on the way
    rng = random.Random(2718)
    for order in (GREVLEX, weighted_order(3)):
        key = functools.partial(order_key, order)
        for p in (2, 3, 5):
            ring = PolyRing(["x", "y", "z"], p)
            for _ in range(15):
                divisors = []
                for _ in range(rng.randint(1, 5)):
                    g = random_nonzero_poly(rng, ring,
                                            rng.choice((1, 1, 3, 4)), 3)
                    if divisors and rng.random() < 0.4:
                        # the lead of an earlier divisor, another tail
                        lead = max(rng.choice(divisors).terms, key=key)
                        g = ring.monomial(lead) + ring.from_terms(
                            {m: c for m, c in g.terms.items()
                             if key(m) < key(lead)})
                    lc = g.terms[max(g.terms, key=key)]
                    divisors.append(g.scale(pow(lc, p - 2, p)))
                for _ in range(4):
                    f = random_poly(rng, ring, 4, 5)
                    for d in rng.sample(divisors,
                                        rng.randint(1, len(divisors))):
                        f = f + random_poly(rng, ring, 2, 3) * d
                    assert reduce_by_generators(f, divisors, order) == \
                        _textbook_division(f, divisors, order)[0]


def test_normal_form_examples():
    ring = PolyRing(["x", "y"], 5)
    gb = buchberger([ring.parse("x")])
    assert normal_form(ring.parse("x^2"), gb).is_zero()

    ring3 = PolyRing(["x", "y", "z"], 2)
    f = ring3.parse("z^2+x^2*y+x*y*z")
    gb = buchberger([f])
    assert normal_form(ring3.parse("x*y*z") * f, gb).is_zero()

    ring = PolyRing(["x", "y"], 7)
    gb = buchberger([ring.parse("x^2+y"), ring.parse("y^2")],
                    weighted_order(2))
    assert normal_form(ring.parse("y^3"), gb).is_zero()


def test_buchberger_examples():
    ring = PolyRing(["x", "y"], 5)
    gb = buchberger([ring.parse("x^2"), ring.parse("x*y")])
    assert {format_poly(g) for g in gb.generators} == {"x^2", "x*y"}

    f = ring.parse("3*x^2*y + x + 1")
    gb = buchberger([f])
    assert len(gb.generators) == 1
    assert gb.generators[0] == f * pow(3, 3, 5)  # monic scaling

    gb = buchberger([ring.parse("x^2+y"), ring.parse("y^2")],
                    weighted_order(2))
    assert {format_poly(g) for g in gb.generators} == {"x^2 + y", "y^2"}


def test_buchberger_rejects_empty_and_zero():
    ring = PolyRing(["x"], 3)
    with pytest.raises(ValueError):
        buchberger([])
    with pytest.raises(ValueError):
        buchberger([ring.zero()])
    gb = buchberger([ring.zero(), ring.parse("x")])
    assert [format_poly(g) for g in gb.generators] == ["x"]


def test_ambient_mismatch():
    a = PolyRing(["x", "y"], 3)
    b = PolyRing(["x", "y"], 5)
    with pytest.raises(AmbientMismatchError):
        buchberger([a.parse("x"), b.parse("y")])
    gb = buchberger([a.parse("x")])
    with pytest.raises(AmbientMismatchError):
        normal_form(b.parse("x"), gb)


def test_module_vector_needs_coordinates_of_one_ambient():
    with pytest.raises(ValueError):
        ModuleVector([])
    a, b = PolyRing(["x", "y"], 3), PolyRing(["x", "y"], 5)
    with pytest.raises(AmbientMismatchError):
        ModuleVector([a.parse("x"), b.parse("y")])


def test_origin_walk_obeys_degree_guard():
    # this surface is singular off the origin too, so no power of x lies
    # in N and the walk doubles x^e toward the quotient dimension, 1,210,
    # past any guard from 12 to 100
    for guard in (12, 50, 100):
        ring = PolyRing(["x", "y", "z"], 7, guard)
        basis = jacobian_module([ring.parse("x^11+y^12+z^12+x*y*z")])
        with pytest.raises(DegreeGuardError, match="exceeds guard"):
            supported_only_at_origin(basis)


def test_reduce_by_generators_checks_the_ambient():
    # other variable names, another prime, another variable count: each
    # once gave a wrong remainder (0, a false membership proof, in the
    # first case) instead of an error
    xy5 = PolyRing(["x", "y"], 5)
    cases = [(xy5.parse("x^2 + 2*y"), PolyRing(["a", "b"], 5).parse("a^2 + 2*b")),
             (xy5.parse("x^2 + 2*y"), PolyRing(["x", "y"], 7).parse("x^2 + 6*y")),
             (xy5.parse("x^2 + y"), PolyRing(["x", "y", "z"], 5).parse("x^2 + z"))]
    for f, g in cases:
        for order in (GREVLEX, weighted_order(2)):
            with pytest.raises(AmbientMismatchError):
                reduce_by_generators(f, [g], order)
            with pytest.raises(AmbientMismatchError):
                reduce_by_generators(ModuleVector([f]), [ModuleVector([g])],
                                     order)


def test_membership_examples():
    ring = PolyRing(["x", "y"], 5)
    gb = buchberger([ring.parse("x"), ring.parse("y")], track=True)
    cof = cofactors(gb, ring.parse("x^2*y"))
    expansion = cof[0] * ring.parse("x") + cof[1] * ring.parse("y")
    assert expansion == ring.parse("x^2*y")

    assert not normal_form(ring.one(), gb).is_zero()
    assert cofactors(gb, ring.one()) is None


def test_membership_d41_closed_form_identity():
    # the displayed D-family identity at n=2 is a membership certificate
    ring = PolyRing(["x", "y", "z"], 2)
    f = ring.parse("z^2+x^2*y+x*y^2+x*y*z")
    fx, fy, fz = (f.derivative(v) for v in range(3))
    lhs = ring.parse("z^2") * f + \
        ring.parse("x^2+x*y+x*z+y^2+y*z") * fz * fz
    assert normal_form(lhs, buchberger([f, fx * fx, fy * fy,
                                        fz * fz])).is_zero()


def test_zero_dimensionality():
    ring = PolyRing(["x", "y"], 5)
    gb = buchberger([ring.parse("x^2"), ring.parse("y^3")])
    assert is_zero_dimensional(gb)
    assert quotient_dimension(gb) == 6
    assert supported_only_at_origin(gb)

    gb = buchberger([ring.parse("x")])
    assert not is_zero_dimensional(gb)
    with pytest.raises(ValueError):
        quotient_dimension(gb)

    gb = buchberger([ring.parse("x^2 - x"), ring.parse("y")])
    assert is_zero_dimensional(gb)
    assert not supported_only_at_origin(gb)

    gb = buchberger([ring.one()])
    assert is_zero_dimensional(gb)
    assert quotient_dimension(gb) == 0
    assert supported_only_at_origin(gb)


def test_rank_aware_predicates_on_a_module():
    # R^2/N for the fat point (x, x+y^2) at p = 3: N is spanned by the
    # f_j e_i and the Jacobian columns, and R^2/N is one copy of k at the
    # origin (the support of R^2/N is the singular locus)
    ring = PolyRing(["x", "y"], 3)
    x, y, zero, one = ring.parse("x"), ring.parse("y"), ring.zero(), ring.one()
    f, g = x, x + y ** 2
    fat_point = [ModuleVector([f, zero]), ModuleVector([g, zero]),
                 ModuleVector([zero, f]), ModuleVector([zero, g]),
                 ModuleVector([one, one]), ModuleVector([zero, 2 * y])]
    gb = module_buchberger(fat_point)
    assert not gb.contains_one()
    assert is_zero_dimensional(gb)
    assert quotient_dimension(gb) == 1
    assert supported_only_at_origin(gb)

    # x(x-1) at e_1 and (x, y) at e_2: finite, but x^D e_1 never enters N
    two_points = [ModuleVector([x * x - x, zero]), ModuleVector([y, zero]),
                  ModuleVector([zero, x]), ModuleVector([zero, y])]
    gb = module_buchberger(two_points)
    assert is_zero_dimensional(gb)
    assert quotient_dimension(gb) == 3
    assert not supported_only_at_origin(gb)

    # a pure power of every variable at e_1, only x at e_2: a line
    line = [ModuleVector([x, zero]), ModuleVector([y, zero]),
            ModuleVector([zero, x])]
    gb = module_buchberger(line)
    assert not is_zero_dimensional(gb)
    with pytest.raises(ValueError):
        quotient_dimension(gb)
    # N = R^2 needs a unit lead at both positions
    assert not module_buchberger(line + [ModuleVector([zero, one])]
                                 ).contains_one()
    assert module_buchberger([ModuleVector([one, y]),
                              ModuleVector([zero, one])]).contains_one()


def test_jacobian_ideal_d41_zero_dimensional():
    ring = PolyRing(["x", "y", "z"], 2)
    f = ring.parse("z^2+x^2*y+x*y^2+x*y*z")
    gens = [f] + [f.derivative(v) for v in range(3)]
    gb = buchberger(gens)
    assert is_zero_dimensional(gb)
    assert quotient_dimension(gb) > 0
    assert supported_only_at_origin(gb)


def test_normal_form_idempotent_and_linear():
    rng = random.Random(4242)
    for p in (2, 3, 5):
        ring = PolyRing(["x", "y", "z"], p)
        gens = [random_nonzero_poly(rng, ring, 3, 3) for _ in range(2)]
        gb = buchberger(gens)
        for _ in range(20):
            f = random_poly(rng, ring, 4, 5)
            g = random_poly(rng, ring, 4, 5)
            a = rng.randrange(p)
            b = rng.randrange(p)
            nf_f = normal_form(f, gb)
            assert normal_form(nf_f, gb) == nf_f
            combo = f.scale(a) + g.scale(b)
            assert normal_form(combo, gb) == \
                normal_form(f, gb).scale(a) + normal_form(g, gb).scale(b)


def test_reduced_basis_unique_under_permutation():
    rng = random.Random(31337)
    for p in (2, 3, 5):
        ring = PolyRing(["x", "y", "z"], p)
        for _ in range(10):
            gens = [random_nonzero_poly(rng, ring, 3, 4) for _ in range(3)]
            reference = buchberger(gens).generators
            for perm in itertools.permutations(gens):
                assert buchberger(list(perm)).generators == reference


def test_buchberger_criterion_recheck_random():
    rng = random.Random(777)
    for p in (2, 3, 5):
        ring = PolyRing(["x", "y"], p)
        for _ in range(15):
            gens = [random_nonzero_poly(rng, ring, 3, 4)
                    for _ in range(rng.randint(1, 3))]
            gb = buchberger(gens)
            assert verify_buchberger(gb)
            # every element is monic
            for g, lm in zip(gb.generators, gb.leading_monomials):
                assert g.terms[lm] == 1
            # basis is reduced: no monomial divisible by another lead
            for i, g in enumerate(gb.generators):
                for j, lm in enumerate(gb.leading_monomials):
                    if i == j:
                        continue
                    assert not any(all(a >= b for a, b in zip(m, lm))
                                   for m in g.terms)
            # original generators reduce to zero
            for g in gens:
                assert normal_form(g, gb).is_zero()


def test_verify_buchberger_on_scaled_hand_built_bases():
    # a hand-built basis keeps its elements as given, so its reducers are
    # not monic: an S-pair formed from their tails must scale each tail by
    # the inverse of its lead coefficient
    rng = random.Random(4242)
    ring = PolyRing(["x", "y", "z"], 5)
    for order in (GREVLEX, weighted_order(3)):
        seen = set()
        for _ in range(12):
            gens = [random_nonzero_poly(rng, ring, 3, 3)
                    for _ in range(rng.randint(2, 3))]
            gb = buchberger(gens, order)
            scaled = [g * (2 + k % 3) for k, g in enumerate(gb.generators)]
            assert verify_buchberger(
                hand_built(scaled, order, gb.generators))
            scaled = [g * (2 + k % 3) for k, g in enumerate(gens)]
            hand = hand_built(scaled, order, gens)
            want = is_basis(hand.leading_monomials, gb.leading_monomials)
            assert verify_buchberger(hand) == want
            seen.add(want)
        assert seen == {True, False}


def test_certificate_soundness_random():
    rng = random.Random(2718)
    for p in (2, 3, 5):
        ring = PolyRing(["x", "y"], p)
        for _ in range(10):
            gens = [random_nonzero_poly(rng, ring, 3, 3) for _ in range(2)]
            coeffs = [random_poly(rng, ring, 3, 3) for _ in range(2)]
            f = coeffs[0] * gens[0] + coeffs[1] * gens[1]
            cof = cofactors(buchberger(gens, track=True), f)
            assert cof[0] * gens[0] + cof[1] * gens[1] == f


def test_reduce_by_generators_zero_proves_membership():
    ring = PolyRing(["x", "y"], 3)
    gens = [ring.parse("x^2 + y"), ring.parse("y^2")]
    f = ring.parse("x^2*y^2 + y^3")
    rem = reduce_by_generators(f, gens)
    if rem.is_zero():
        assert normal_form(f, buchberger(gens)).is_zero()


def _reference_buchberger(gens, order=GREVLEX):
    """Textbook Buchberger with no pair criteria, on exponent tuples and
    with its own division, as an independent route for validating the
    pruned engine; returns the reduced basis tuple."""
    ring = gens[0].ring
    p = ring.p

    def lead(f):
        return max(f.terms, key=functools.partial(order_key, order))

    def monic(f):
        return f.scale(pow(f.terms[lead(f)], p - 2, p))

    def divides(a, b):
        return all(x <= y for x, y in zip(a, b))

    def shift(lcm, lm):
        return ring.monomial(tuple(x - y for x, y in zip(lcm, lm)))

    def remainder(f, divisors):
        rem = ring.zero()
        while not f.is_zero():
            lm = lead(f)
            top = ring.monomial(lm, f.terms[lm])
            g = next((g for g in divisors if divides(lead(g), lm)), None)
            if g is None:
                rem, f = rem + top, f - top
            else:
                f = f - shift(lm, lead(g)).scale(f.terms[lm]) * monic(g)
        return rem

    basis = [monic(g) for g in gens if not g.is_zero()]
    pairs = list(itertools.combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.pop(0)
        lcm = tuple(map(max, lead(basis[i]), lead(basis[j])))
        s = (shift(lcm, lead(basis[i])) * basis[i] -
             shift(lcm, lead(basis[j])) * basis[j])
        rem = remainder(s, basis)
        if not rem.is_zero():
            basis.append(monic(rem))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # minimalize, then reduce each tail by the other elements
    basis = [g for i, g in enumerate(basis)
             if not any(j != i and divides(lead(h), lead(g)) and
                        (lead(h) != lead(g) or j < i)
                        for j, h in enumerate(basis))]
    reduced = []
    for g in basis:
        top = ring.monomial(lead(g))
        reduced.append(top + remainder(g - top, [h for h in basis if h is not g]))
    reduced.sort(key=lambda g: order_key(order, lead(g)), reverse=True)
    return tuple(reduced)


def test_pruned_engine_matches_reference_buchberger():
    rng = random.Random(424242)
    for order in (GREVLEX, weighted_order(3)):
        for p in (2, 3, 5):
            ring = PolyRing(["x", "y", "z"], p)
            for _ in range(12):
                gens = [random_nonzero_poly(rng, ring, 3, 4)
                        for _ in range(rng.randint(2, 3))]
                assert buchberger(gens, order).generators == \
                    _reference_buchberger(gens, order)


def test_weighted_engine_matches_reference_buchberger():
    # the engine under a weighted order against the textbook route on
    # exponent tuples, which sorts by the order's definition
    rng = random.Random(434343)
    for weights in ((2, 1, 1), (1, 3, 2), (5, 2, 4)):
        order = MonomialOrder(weights)
        for p in (2, 3, 5):
            ring = PolyRing(["x", "y", "z"], p)
            for _ in range(6):
                gens = [random_nonzero_poly(rng, ring, 3, 4)
                        for _ in range(rng.randint(2, 3))]
                gb = buchberger(gens, order, track=True)
                assert gb.generators == _reference_buchberger(gens, order)
                assert verify_buchberger(gb)
                for g, cof in zip(gb.generators, unit_expansions(gb)):
                    assert combine(cof, gens) == g

def _assert_pruned_basis(gens, want, known_gb_prefix=0):
    """The engine's basis under both orders is the reference basis, and
    under degrevlex it is `want`."""
    for order in (GREVLEX, weighted_order(3)):
        gb = buchberger(gens, order, known_gb_prefix=known_gb_prefix)
        assert gb.generators == _reference_buchberger(gens, order)
        assert verify_buchberger(gb)
        if order is GREVLEX:
            assert [format_poly(g) for g in gb.generators] == want


def test_new_pairs_match_the_quadratic_rule():
    # small exponents make equal lcms, coprime leads and unit leads common;
    # every lead draws a kind (monomial, one-position or spread), and with
    # slots the engine hands over only the active leads at h's position.
    # The same walk returns the active leads that lms[h] does not divide,
    # in order, which the engine keeps as the position's new active list
    rng = random.Random(8128)
    for order in (GREVLEX, weighted_order(3)):
        for slots in (0, 2, 3):
            layout = _Layout(3, slots, order, 12)
            for _ in range(300):
                lms = []
                for _ in range(rng.randint(1, 14)):
                    slot = [0] * slots
                    if slots:
                        slot[rng.randrange(slots)] = 1
                    lms.append(layout.enc(tuple(slot) + tuple(
                        rng.choice((0, 0, 1, 2, 3)) for _ in range(3))))
                kinds = [rng.choice((0, 1, 2)) for _ in lms]
                h = len(lms) - 1
                active = rng.sample(range(h), rng.randint(0, h))
                pos = lms[h] & layout.slot_mask
                here = [g for g in active
                        if lms[g] & layout.slot_mask == pos]
                new, kept = _new_pairs(layout, lms, kinds, here, h)
                assert kept == [g for g in here
                                if not layout.divided(lms[g], [lms[h]])]
                assert all(e[2] == h for e in new)
                pairs = [e[:2] for e in new]
                assert len(set(pairs)) == len(pairs)
                assert set(pairs) == quadratic_new_pairs(layout, lms, kinds,
                                                         active, h)


def test_equal_leads_keep_one_pair_per_lcm():
    # x*y + 1 and x*y + z^2 share their lead, which the lead of x + z
    # divides: all three pairs have the lcm x*y.  The update keeps one new
    # pair for it (criterion F) and the old pair (x + z, x*y + 1), whose
    # lcm equals that of (x + z, x*y + z^2) (criterion B_k's exemption).
    ring = PolyRing(["x", "y", "z"], 3)
    gens = [ring.parse("x+z"), ring.parse("x*y+1"), ring.parse("x*y+z^2")]
    _assert_pruned_basis(gens, ["z^2 + 2", "x + z", "y + 2*z"])


def test_new_lead_dividing_an_older_lead_retires_it():
    # x*y^2 divides x*y^2*z: x*y^2*z + 2 takes no further pairs, but its
    # pairs with x*z + 1 and with x*y^2 + 2*y*z still count
    ring = PolyRing(["x", "y", "z"], 3)
    gens = [ring.parse("x*z+1"), ring.parse("x*y^2*z+2"),
            ring.parse("x*y^2+2*y*z")]
    _assert_pruned_basis(gens, ["x^2 + 2*y", "x*y + 2*z", "y^2 + 1", "x*z + 1",
                                "y*z + x", "z^2 + y"])


def test_seed_lead_divided_by_a_later_element():
    # the seed is a basis with no pairs of its own; x^2 divides the seed
    # lead x^3, so the seed element retires but keeps its pair with x^2 + z
    ring = PolyRing(["x", "y", "z"], 5)
    for order in (GREVLEX, weighted_order(3)):
        seed = buchberger([ring.parse("x^3+y*z"), ring.parse("y^2+z")], order)
        assert [format_poly(g) for g in seed.generators] == \
            ["x^3 + y*z", "y^2 + z"]
    gens = [ring.parse("x^3+y*z"), ring.parse("y^2+z"), ring.parse("x^2+z")]
    _assert_pruned_basis(gens, ["x^2 + z", "y^2 + z", "x*z + 4*y*z"],
                         known_gb_prefix=2)


def test_minimalization_of_inputs_with_equal_or_divided_leads():
    # x*y + 1 has the lead of x*y + z, which the lead of x + 1 divides;
    # x*y + z^2 and x*y + 1 share a lead; y^2*z + x has a lead that the
    # earlier y^2 + z divides; x*y + y = y*(x + 1) keeps its lead to the
    # end, as its pair with x + 1 reduces to 0.  With a known prefix, the
    # seed lead x^2 divides the later leads x^3 and x^2*y, and divides
    # the lead of the seed x^3 + x*y = x*(x^2 + y), which leaves the
    # prefix a basis that is not minimal.  The reduced basis is the
    # reference one, and each element of a tracked basis expands from its
    # unit coefficient vector back to itself.
    ring = PolyRing(["x", "y", "z"], 5)
    for gens, prefix in ((["x*y+z", "x+1", "x*y+1"], 0),
                         (["x*y+z^2", "x*y+1", "y^2+x"], 0),
                         (["y^2+z", "x*z+1", "y^2*z+x", "y^2+2*z"], 0),
                         (["x+1", "z^2+y", "x*y+y"], 0),
                         (["x^2+y", "y^2+z", "x^3+z", "x^2*y+1"], 2),
                         (["x^2+y", "x^3+x*y", "y*z+x"], 2)):
        gens = [ring.parse(g) for g in gens]
        for order in (GREVLEX, weighted_order(3)):
            gb = buchberger(gens, order, known_gb_prefix=prefix)
            assert gb.generators == _reference_buchberger(gens, order)
            tracked = buchberger(gens, order, track=True,
                                 known_gb_prefix=prefix)
            assert tracked.generators == gb.generators
            for g, cof in zip(tracked.generators, unit_expansions(tracked)):
                assert combine(cof, gens) == g


def test_tracked_basis_elements_expand_from_their_reprs():
    # every element g_k of a tracked basis is sum(c_t * gens[t]), where c
    # is the expansion of its unit coefficient vector e_k
    rng = random.Random(6060)
    for order in (GREVLEX, weighted_order(3)):
        for p in (2, 3, 5):
            ring = PolyRing(["x", "y", "z"], p)
            for _ in range(6):
                gens = [random_nonzero_poly(rng, ring, 3, 3)
                        for _ in range(rng.randint(2, 3))]
                gb = buchberger(gens, order, track=True)
                for g, cof in zip(gb.generators, unit_expansions(gb)):
                    assert combine(cof, gens) == g


def test_inputs_are_their_own_trace_nodes():
    # input t of a tracked run is node t and records no identity step
    # [(t, {0: 1})]; every step left is an element the run formed, and the
    # original generators still expand from the trace
    f = make_cusp_hypersurface(3, 2, 3, 7)
    cusp = buchberger([f] + [f.derivative(v) for v in range(3)], track=True)
    pair = jacobian_module(make_cusp_ci(2, 2, 2, 2, 3), track=True)
    for basis in (cusp, pair):
        steps, _ = basis.trace
        ngens = len(basis.original_generators)
        assert len(steps) > ngens
        assert all(steps[t] == [] for t in range(ngens))
        assert not [s for s in steps
                    if len(s) == 1 and s[0][0] < ngens and s[0][1] == {0: 1}]
        for g in basis.original_generators:
            assert cofactors(basis, g) is not None


def test_expand_is_linear_across_shared_nodes():
    # the elements of a basis share the nodes of their trace, so one
    # backward pass must add the adjoints that meet at a node:
    # expand(c) = sum(c_k * expand(e_k)), and it re-expands to
    # sum(c_k * g_k)
    rng = random.Random(6161)
    for order in (GREVLEX, weighted_order(3)):
        for p in (2, 3, 5):
            ring = PolyRing(["x", "y", "z"], p)
            for _ in range(4):
                gens = [random_nonzero_poly(rng, ring, 3, 3)
                        for _ in range(3)]
                gb = buchberger(gens, order, track=True)
                coeffs = [random_poly(rng, ring, 3, 2) for _ in gb]
                got = expand(gb, coeffs)
                units = unit_expansions(gb)
                for t in range(len(gens)):
                    assert got[t] == combine([u[t] for u in units], coeffs)
                assert combine(got, gens) == combine(coeffs, gb.generators)


def test_expand_frobenius_twists_the_multipliers():
    # sum_t expand(e_k, frobenius=True)_t * gens_t^[p] = g_k^[p], since
    # (sum c_t gens_t)^p = sum c_t^p gens_t^p in characteristic p
    rng = random.Random(6262)
    for order in (GREVLEX, weighted_order(3)):
        for p in (2, 3, 5):
            ring = PolyRing(["x", "y", "z"], p)
            for _ in range(4):
                gens = [random_nonzero_poly(rng, ring, 3, 3)
                        for _ in range(rng.randint(2, 3))]
                gb = buchberger(gens, order, track=True)
                twisted = unit_expansions(gb, frobenius=True)
                powers = [g.frobenius() for g in gens]
                for g, cof in zip(gb.generators, twisted):
                    assert combine(cof, powers) == g.frobenius()


def test_expand_obeys_degree_guard():
    # y^2 + 4*x*z comes from the S-pair of the inputs under both orders,
    # with shifts of degree 1: a coefficient of degree 8
    # passes the guard there, and so does one of degree 4 once the shift
    # is taken to its 5th power
    ring = PolyRing(["x", "y", "z"], 5, max_degree=8)
    gens = [ring.parse("x^2+y"), ring.parse("x*y+z")]
    for order in (GREVLEX, weighted_order(3)):
        gb = buchberger(gens, order, track=True)
        k = next(k for k, g in enumerate(gb.generators) if g not in gens)
        coeffs = [ring.zero() for _ in gb]
        coeffs[k] = ring.parse("z^8")
        with pytest.raises(DegreeGuardError):
            expand(gb, coeffs)
        coeffs[k] = ring.parse("z^4")
        assert combine(expand(gb, coeffs), gens) == \
            coeffs[k] * gb.generators[k]
        with pytest.raises(DegreeGuardError):
            expand(gb, coeffs, frobenius=True)
    untracked = buchberger(gens)
    with pytest.raises(ValueError):
        expand(untracked, [ring.one() for _ in untracked])


def test_known_gb_prefix_gives_same_reduced_basis():
    rng = random.Random(515151)
    for p in (2, 3, 5):
        ring = PolyRing(["x", "y", "z"], p)
        for _ in range(10):
            inner = [random_nonzero_poly(rng, ring, 2, 3) for _ in range(2)]
            gb_inner = buchberger(inner)
            extra = random_nonzero_poly(rng, ring, 3, 4)
            seeded_input = list(gb_inner.generators) + [extra]
            seeded = buchberger(seeded_input,
                                known_gb_prefix=len(gb_inner.generators))
            plain = buchberger(seeded_input)
            assert seeded.generators == plain.generators
            # seeding a bracket-power basis, as the pipeline does
            powered = [g.frobenius() for g in gb_inner.generators] + [extra]
            seeded = buchberger(powered,
                                known_gb_prefix=len(gb_inner.generators))
            plain = buchberger(powered)
            assert seeded.generators == plain.generators


def test_macaulay_oracle_agreement():
    # quick version; the acceptance suite runs the full 100-ideal sweep
    rng = random.Random(5150)
    run_macaulay_agreement(rng, rounds=25)


def run_macaulay_agreement(rng, rounds):
    """GB membership vs the dense linear-algebra oracle.

    A solvable Macaulay system certifies membership, so the engine must
    agree; a GB non-membership must stay unsolvable when the cofactor
    degree bound rises by 4.
    """
    for _ in range(rounds):
        p = rng.choice((2, 3, 5))
        nvars = rng.randint(1, 3)
        ring = PolyRing(["x", "y", "z"][:nvars], p)
        gens = [random_nonzero_poly(rng, ring, 3, 4)
                for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            f = ring.zero()
            for g in gens:
                f = f + random_poly(rng, ring, 3, 4) * g
            if f.is_zero():
                continue
        else:
            f = random_nonzero_poly(rng, ring, 4, 5)
        bound = f.total_degree() + 4
        member = normal_form(f, buchberger(gens)).is_zero()
        oracle = macaulay_membership(f, gens, bound)
        if oracle:
            assert member, "oracle found an expansion the engine rejected"
        if not member:
            assert not oracle
            assert not macaulay_membership(f, gens, bound + 4)
