"""Groebner engine: normal forms, Buchberger, membership, dimension."""

import itertools
import random

import pytest

from fliftlab.fp_poly import (AmbientMismatchError, DegreeGuardError,
                              PolyRing, format_poly)
from fliftlab.groebner import (GREVLEX, LEX, ModuleVector, _Layout,
                               _prep_reducer, _reduce_full, _standard_count,
                               buchberger, is_zero_dimensional,
                               module_buchberger, normal_form,
                               normal_form_with_cofactors,
                               order_by_name, quotient_dimension,
                               reduce_by_generators, supported_only_at_origin,
                               verify_buchberger)

from support import (box_standard_count, check_packed_layout,
                     macaulay_membership, random_poly, random_nonzero_poly)


def test_order_lookup():
    assert order_by_name("grevlex") is GREVLEX
    assert order_by_name("lex") is LEX
    with pytest.raises(ValueError):
        order_by_name("deglex")


def test_monomial_order_laws():
    # total order, multiplicativity, 1 as minimum, on random monomials
    rng = random.Random(1001)
    for order in (GREVLEX, LEX):
        key = order.key
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
    for order in (GREVLEX, LEX):
        check_packed_layout(rng, order, 0)


def test_lex_reduction_past_the_packed_fields_raises():
    # x -> y^3 under lex: x^3 climbs to x*y^6, past the 2-bit fields of
    # guard 3, and must raise instead of wrapping
    ring = PolyRing(["x", "y"], 5, max_degree=3)
    gb = buchberger([ring.parse("x - y^3")], LEX)
    assert normal_form(ring.parse("x"), gb) == ring.parse("y^3")
    with pytest.raises(DegreeGuardError):
        normal_form(ring.parse("x^3"), gb)


def test_polynomial_beyond_the_basis_guard_raises():
    small = PolyRing(["x", "y"], 5, max_degree=4)
    large = PolyRing(["x", "y"], 5, max_degree=100)
    for order in (GREVLEX, LEX):
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
    assert _reduce_full(f, reducers, 5, layout, memo=memo) == f
    reducers.append(prep("x + 1"))
    rem = _reduce_full(f, reducers, 5, layout, memo=memo)
    assert layout.dec_terms(rem) == ring.parse("4*y").terms
    # random lists grown one reducer at a time: a shared memo gives the
    # remainders and quotients of a fresh one
    rng = random.Random(7117)
    for order in (GREVLEX, LEX):
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
                    assert _reduce_full(f, reducers, p, layout, shared,
                                        memo) == \
                        _reduce_full(f, reducers, p, layout, fresh)
                    assert shared == fresh


def _textbook_division(f, divisors, order):
    """Quotients and remainder of f by monic divisors, always dividing by
    the first divisor in list order whose lead divides the lead of f."""
    ring = f.ring
    leads = [max(g.terms, key=order.key) for g in divisors]
    quotients = [ring.zero()] * len(divisors)
    rem = ring.zero()
    while not f.is_zero():
        lm = max(f.terms, key=order.key)
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
    for order in (GREVLEX, LEX):
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


def test_normal_form_examples():
    ring = PolyRing(["x", "y"], 5)
    gb = buchberger([ring.parse("x")])
    assert normal_form(ring.parse("x^2"), gb).is_zero()

    ring3 = PolyRing(["x", "y", "z"], 2)
    f = ring3.parse("z^2+x^2*y+x*y*z")
    gb = buchberger([f])
    assert normal_form(ring3.parse("x*y*z") * f, gb).is_zero()

    ring_lex = PolyRing(["x", "y"], 7)
    gb = buchberger([ring_lex.parse("x^2+y"), ring_lex.parse("y^2")], LEX)
    assert normal_form(ring_lex.parse("y^3"), gb).is_zero()


def test_buchberger_examples():
    ring = PolyRing(["x", "y"], 5)
    gb = buchberger([ring.parse("x^2"), ring.parse("x*y")])
    assert {format_poly(g) for g in gb.generators} == {"x^2", "x*y"}

    f = ring.parse("3*x^2*y + x + 1")
    gb = buchberger([f])
    assert len(gb.generators) == 1
    assert gb.generators[0] == f * pow(3, 3, 5)  # monic scaling

    gb = buchberger([ring.parse("x^2+y"), ring.parse("y^2")], LEX)
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


def test_membership_examples():
    ring = PolyRing(["x", "y"], 5)
    gb = buchberger([ring.parse("x"), ring.parse("y")], track=True)
    cof = gb.cofactors(ring.parse("x^2*y"))
    expansion = cof[0] * ring.parse("x") + cof[1] * ring.parse("y")
    assert expansion == ring.parse("x^2*y")

    assert not normal_form(ring.one(), gb).is_zero()
    assert gb.cofactors(ring.one()) is None


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


def test_certificate_soundness_random():
    rng = random.Random(2718)
    for p in (2, 3, 5):
        ring = PolyRing(["x", "y"], p)
        for _ in range(10):
            gens = [random_nonzero_poly(rng, ring, 3, 3) for _ in range(2)]
            coeffs = [random_poly(rng, ring, 3, 3) for _ in range(2)]
            f = coeffs[0] * gens[0] + coeffs[1] * gens[1]
            cof = buchberger(gens, track=True).cofactors(f)
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
        return max(f.terms, key=order.key)

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
    reduced.sort(key=lambda g: order.key(lead(g)), reverse=True)
    return tuple(reduced)


def test_pruned_engine_matches_reference_buchberger():
    rng = random.Random(424242)
    for order in (GREVLEX, LEX):
        for p in (2, 3, 5):
            ring = PolyRing(["x", "y", "z"], p)
            for _ in range(12):
                gens = [random_nonzero_poly(rng, ring, 3, 4)
                        for _ in range(rng.randint(2, 3))]
                assert buchberger(gens, order).generators == \
                    _reference_buchberger(gens, order)


def _assert_pruned_basis(gens, want, known_gb_prefix=0):
    """The engine's basis under both orders is the reference basis, and
    under degrevlex it is `want`."""
    for order in (GREVLEX, LEX):
        gb = buchberger(gens, order, known_gb_prefix=known_gb_prefix)
        assert gb.generators == _reference_buchberger(gens, order)
        assert verify_buchberger(gb)
        if order is GREVLEX:
            assert [format_poly(g) for g in gb.generators] == want


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
    for order in (GREVLEX, LEX):
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
    # end, as its pair with x + 1 reduces to 0.  The reduced basis is the
    # reference one, and a tracked basis re-expands from its reprs.
    ring = PolyRing(["x", "y", "z"], 5)
    for gens in (["x*y+z", "x+1", "x*y+1"],
                 ["x*y+z^2", "x*y+1", "y^2+x"],
                 ["y^2+z", "x*z+1", "y^2*z+x", "y^2+2*z"],
                 ["x+1", "z^2+y", "x*y+y"]):
        gens = [ring.parse(g) for g in gens]
        for order in (GREVLEX, LEX):
            gb = buchberger(gens, order)
            assert gb.generators == _reference_buchberger(gens, order)
            tracked = buchberger(gens, order, track=True)
            assert tracked.generators == gb.generators
            for g, rep in zip(tracked.generators, tracked.reprs):
                acc = ring.zero()
                for c, h in zip(rep, gens):
                    acc = acc + c * h
                assert acc == g


def test_tracked_basis_elements_expand_from_their_reprs():
    # every element of a tracked basis is sum(reprs[k][t] * gens[t])
    rng = random.Random(6060)
    for order in (GREVLEX, LEX):
        for p in (2, 3, 5):
            ring = PolyRing(["x", "y", "z"], p)
            for _ in range(6):
                gens = [random_nonzero_poly(rng, ring, 3, 3)
                        for _ in range(rng.randint(2, 3))]
                gb = buchberger(gens, order, track=True)
                for g, rep in zip(gb.generators, gb.reprs):
                    acc = ring.zero()
                    for c, h in zip(rep, gens):
                        acc = acc + c * h
                    assert acc == g


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
