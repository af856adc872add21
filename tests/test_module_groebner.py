"""Submodule membership in free modules R^s."""

import random

import pytest

from fliftlab.fp_poly import DegreeGuardError, Poly, PolyRing, _pack, dot
from fliftlab.frobsplit import build_splitting
from fliftlab.groebner import (GREVLEX, ModuleVector, MonomialOrder,
                               _plus_product, _position_leads, _prep_reducer,
                               buchberger, is_zero_dimensional,
                               jacobian_module, module_buchberger,
                               module_normal_form, normal_form,
                               reduce_by_generators, seeded_membership)

from support import (check_packed_layout, cofactors, combine, hand_built,
                     is_basis, order_key, pack, random_poly,
                     random_nonzero_poly, unit_expansions, unpack,
                     verify_buchberger, weighted_order)


def _ring(p=2, names=("x", "y", "z", "w")):
    return PolyRing(names, p)


def test_generator_is_member_with_unit_cofactor():
    ring = _ring(5, ("x", "y"))
    gens = [ModuleVector([ring.parse("x^2+y"), ring.parse("y")]),
            ModuleVector([ring.parse("x"), ring.zero()])]
    cof = cofactors(module_buchberger(gens, track=True), gens[0])
    assert cof[0] == ring.one() and cof[1].is_zero()


def test_f_times_basis_vector():
    ring = _ring(3, ("x", "y"))
    f = ring.parse("x^2 + 2*y")
    gens = [ModuleVector([f, ring.zero()]),
            ModuleVector([ring.zero(), ring.parse("y")])]
    v = ModuleVector([f * ring.parse("x*y + 1"), ring.zero()])
    assert module_normal_form(v, module_buchberger(gens)).is_zero()


def test_coordinate_count_mismatch():
    ring = _ring(3, ("x", "y"))
    v2 = ModuleVector([ring.parse("x"), ring.parse("y")])
    v3 = ModuleVector([ring.parse("x"), ring.parse("y"), ring.zero()])
    with pytest.raises(ValueError):
        module_normal_form(v3, module_buchberger([v2]))
    with pytest.raises(ValueError):
        module_buchberger([v2, v3])
    # one class serves both kinds: a Poly counts as one coordinate, and a
    # remainder is of the basis's kind
    f = ring.parse("x^2 + y")
    for gens in ([f, v2], [v2, f]):
        with pytest.raises(ValueError):
            buchberger(gens)
    v1 = ModuleVector([ring.parse("x")])
    rem = normal_form(f, buchberger([ring.parse("x")]))
    assert isinstance(rem, Poly) and rem == ring.parse("y")
    rem = normal_form(ModuleVector([f]), buchberger([v1]))
    assert rem == ModuleVector([ring.parse("y")])


def test_non_member():
    ring = _ring(5, ("x", "y"))
    gens = [ModuleVector([ring.parse("x"), ring.zero()]),
            ModuleVector([ring.zero(), ring.parse("x")])]
    v = ModuleVector([ring.zero(), ring.one()])
    gb = module_buchberger(gens, track=True)
    assert not module_normal_form(v, gb).is_zero()
    assert cofactors(gb, v) is None


def test_ci_cusp_vector_shared_cofactors():
    """(a,b,c,d) = (3,2,2,2) at p = 2: the stacked residual vector lies in
    the span of the gradient-power columns and the (f,g)-multiples."""
    from fliftlab.frobsplit import apply_sigma, build_splitting, delta1

    ring = _ring(2)
    f = ring.parse("x*y + z^3 + w^2")
    g = ring.parse("z*w + x^2 + y^2")
    split = build_splitting([f, g])
    assert split.fpure_at_origin
    s_p = split.s.frobenius()
    target = []
    for h in (f, g):
        d1 = delta1(h)
        gg = -apply_sigma(split, d1)
        target.append(s_p * d1 + gg.frobenius())
    v = ModuleVector(target)
    cols = []
    for k in range(4):
        cols.append(ModuleVector([f.derivative(k).frobenius(),
                                  g.derivative(k).frobenius()]))
    zero = ring.zero()
    for i in range(2):
        for h in (f, g):
            cols.append(ModuleVector([h if j == i else zero for j in range(2)]))
    cof = cofactors(module_buchberger(cols, track=True), v)
    assert cof is not None
    # certificate re-expansion, coordinate by coordinate
    for pos in range(2):
        acc = ring.zero()
        for c, col in zip(cof, cols):
            acc = acc + c * col[pos]
        assert acc == v[pos]


def test_module_normal_form_idempotent_random():
    rng = random.Random(808)
    for p in (2, 3):
        ring = _ring(p, ("x", "y"))
        gens = [ModuleVector([random_nonzero_poly(rng, ring, 2, 3),
                              random_poly(rng, ring, 2, 3)]),
                ModuleVector([random_poly(rng, ring, 2, 3),
                              random_nonzero_poly(rng, ring, 2, 3)])]
        gb = module_buchberger(gens)
        for _ in range(10):
            v = ModuleVector([random_poly(rng, ring, 3, 4),
                              random_poly(rng, ring, 3, 4)])
            nf = module_normal_form(v, gb)
            assert module_normal_form(nf, gb) == nf
        for g in gens:
            assert module_normal_form(g, gb).is_zero()


def test_membership_random_combinations():
    rng = random.Random(909)
    for p in (2, 3, 5):
        ring = _ring(p, ("x", "y"))
        for _ in range(8):
            gens = [ModuleVector([random_nonzero_poly(rng, ring, 2, 3),
                                  random_poly(rng, ring, 2, 3)]),
                    ModuleVector([random_poly(rng, ring, 2, 3),
                                  random_nonzero_poly(rng, ring, 2, 3)])]
            coeffs = [random_poly(rng, ring, 2, 3) for _ in gens]
            v_coords = [ring.zero(), ring.zero()]
            for c, g in zip(coeffs, gens):
                for pos in range(2):
                    v_coords[pos] = v_coords[pos] + c * g[pos]
            v = ModuleVector(v_coords)
            assert module_normal_form(v, module_buchberger(gens)).is_zero()


def test_seeded_membership_leaves_the_normal_form_random():
    # the seeded entry returns, tracked or not, the target's normal form on
    # the full basis of N^[p] + (f_j e_i), N the submodule of a
    # `jacobian_module` screen, taken from the run itself; a tracked
    # member's cofactors re-expand the target by `dot` over the f_j e_i,
    # by (i, j), then the w_k = ((df_i/dx_k)^p)_i.  The target and the
    # split's f_j^(p-1) go in packed in the screen's fields
    rng = random.Random(4242)
    seen = set()
    for order in (GREVLEX, MonomialOrder((3, 1))):
        for p in (2, 3, 5):
            ring = _ring(p, ("x", "y"))
            for m in (1, 2):
                for _ in range(4):
                    # generators through the origin, of degree 2 or 3
                    gens = [random_nonzero_poly(rng, ring, 2, 3)
                            for _ in range(m)]
                    if any(g.constant_term() or g.total_degree() < 2
                           for g in gens):
                        continue
                    columns = [[f.derivative(k).frobenius() for f in gens]
                               for k in range(ring.nvars)]
                    for track in (False, True):
                        screen = jacobian_module(gens, order, track=track)
                        units = screen.fields[1]
                        powers = build_splitting(gens, screen.fields).powers
                        seed = [ModuleVector([c.frobenius() for c in g])
                                for g in screen]
                        seed += screen.original_generators[:m * m]
                        gb = module_buchberger(seed, order)
                        coeffs = [random_poly(rng, ring, 2, 3) for _ in seed]
                        member = ModuleVector([combine(coeffs, seed, pos)
                                               for pos in range(m)])
                        other = ModuleVector([random_poly(rng, ring, 3, 4)
                                              for _ in range(m)])
                        for v in (member, other):
                            rem, cof = seeded_membership(
                                [dict(_pack(c.terms, units)) for c in v],
                                screen, powers, track=track)
                            nf = module_normal_form(v, gb)
                            assert rem == nf.coordinates
                            if track and nf.is_zero():
                                assert len(cof) == m * m + ring.nvars
                                assert all(dot(
                                    cof[i * m:i * m + m] + cof[m * m:],
                                    gens + [w[i] for w in columns]) == v[i]
                                    for i in range(m))
                            else:
                                assert cof is None
                            quick = reduce_by_generators(v, seed, order)
                            seen.add((m, nf.is_zero(), quick.is_zero()))
    assert seen == {(m, member, quick) for m in (1, 2)
                    for member, quick in ((True, False), (False, False),
                                          (True, True))}, seen


def test_plus_product_obeys_degree_guard():
    # c + t * f on packed terms raises where the Poly product t * f would
    ring = PolyRing(["x", "y"], 3, 5)
    screen = jacobian_module([ring.parse("x^2+y^3")])
    c, f = pack(screen, ring.parse("x")), pack(screen, ring.parse("y^3"))
    with pytest.raises(DegreeGuardError):
        ring.parse("x^3") * ring.parse("y^3")
    with pytest.raises(DegreeGuardError, match="exceeds guard 5"):
        _plus_product(screen, c, pack(screen, ring.parse("x^3")), f)
    out = _plus_product(screen, c, pack(screen, ring.parse("x^2")), f)
    assert unpack(screen, out) == ring.parse("x + x^2*y^3")


def test_verify_buchberger_on_scaled_hand_built_module_bases():
    # the module case of the scaled hand-built ideal bases: S-vectors from
    # non-monic reducers' tails scale each tail by its lc_inv
    rng = random.Random(4343)
    ring = _ring(5, ("x", "y"))
    for order in (GREVLEX, weighted_order(2)):
        seen = set()
        for _ in range(12):
            gens = [ModuleVector([random_poly(rng, ring, 2, 3)
                                  for _ in range(2)]) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = module_buchberger(gens, order)
            scaled = [ModuleVector([c * (2 + k % 3) for c in g])
                      for k, g in enumerate(gb.generators)]
            assert verify_buchberger(
                hand_built(scaled, order, gb.generators))
            scaled = [ModuleVector([c * (2 + k % 3) for c in g])
                      for k, g in enumerate(gens)]
            hand = hand_built(scaled, order, gens)
            want = is_basis(hand.leading_monomials, gb.leading_monomials)
            assert verify_buchberger(hand) == want
            seen.add(want)
        assert seen == {True, False}


def test_rank_one_module_basis_is_the_ideal_basis():
    rng = random.Random(1212)
    for order in (GREVLEX, weighted_order(3)):
        for p in (2, 3, 5):
            ring = _ring(p, ("x", "y", "z"))
            for _ in range(6):
                gens = [random_nonzero_poly(rng, ring, 3, 4)
                        for _ in range(rng.randint(1, 3))]
                mgb = module_buchberger([ModuleVector([g]) for g in gens], order)
                assert tuple(v[0] for v in mgb.generators) == \
                    buchberger(gens, order).generators


def test_packed_slotted_layout_matches_tuple_terms():
    rng = random.Random(4545)
    for order in (GREVLEX, weighted_order(3)):
        for slots in (2, 3):
            check_packed_layout(rng, order, slots)


def _top_key(order, v):
    """Independent term-over-position key of a vector's leading term."""
    return max((order_key(order, m), -pos) for pos, c in enumerate(v)
               for m in c.terms)


def test_module_bases_satisfy_buchberger_criterion_random():
    rng = random.Random(3434)
    for order in (GREVLEX, weighted_order(2)):
        for p in (2, 3, 5):
            ring = _ring(p, ("x", "y"))
            for _ in range(6):
                size = rng.randint(2, 3)
                gens = [ModuleVector([random_poly(rng, ring, 2, 3)
                                      for _ in range(size)])
                        for _ in range(rng.randint(2, 4))]
                if all(g.is_zero() for g in gens):
                    continue
                gb = module_buchberger(gens, order)
                assert verify_buchberger(gb)
                keys = [_top_key(order, v) for v in gb.generators]
                assert keys == sorted(keys, reverse=True)
                for g in gens:
                    assert module_normal_form(g, gb).is_zero()


def test_coprime_leads_at_one_position_still_pair():
    # the leads x e_1 and y e_1 have coprime monomials, but their S-vector
    # (0, y) is new: (x, 1) does not live at one position, so the product
    # criterion does not drop the pair
    ring = _ring(3, ("x", "y"))
    gens = [ModuleVector([ring.parse("x"), ring.one()]),
            ModuleVector([ring.parse("y"), ring.zero()])]
    for order in (GREVLEX, weighted_order(2)):
        gb = module_buchberger(gens, order)
        assert verify_buchberger(gb)
        assert gb.generators == (gens[0], gens[1],
                                 ModuleVector([ring.zero(), ring.parse("y")]))


def _kind_biased_vector(rng, ring, size):
    # a monomial vector, a vector at one position, or a random one
    coords = [ring.zero()] * size
    roll = rng.random()
    if roll < 0.8:
        terms = 1 if roll < 0.4 else 3
        coords[rng.randrange(size)] = random_nonzero_poly(rng, ring, terms, 3)
    else:
        coords = [random_poly(rng, ring, 2, 3) for _ in range(size)]
    return ModuleVector(coords)


def test_product_criterion_on_monomial_and_one_position_vectors():
    # the update drops pairs of monomials and coprime pairs of vectors at
    # one position; the basis must still pass the full Buchberger test,
    # which forms every pair at a position, hold every input, re-expand
    # in the inputs and not depend on their order
    rng = random.Random(2727)
    for order in (GREVLEX, weighted_order(2)):
        for p in (2, 3, 5):
            ring = _ring(p, ("x", "y"))
            for size in (2, 3):
                for _ in range(8):
                    gens = [_kind_biased_vector(rng, ring, size)
                            for _ in range(rng.randint(2, 5))]
                    if all(g.is_zero() for g in gens):
                        continue
                    gb = module_buchberger(gens, order, track=True)
                    assert verify_buchberger(gb)
                    for g in gens:
                        assert module_normal_form(g, gb).is_zero()
                    for v, cof in zip(gb.generators, unit_expansions(gb)):
                        for pos in range(size):
                            assert combine(cof, gens, pos) == v[pos]
                    assert module_buchberger(gens[::-1], order).generators \
                        == gb.generators


def test_product_criterion_drops_the_pair(monkeypatch):
    # (x, 0) and (y, 0) are monomials at one position, and so are x^2*y
    # and x*y^2 at rank 1: their S-vectors are 0.  (x + 1, 0) and
    # (y + 1, 0) live at one position with coprime leads, so theirs
    # reduces to 0 by the two.  None of the three forms an S-pair.
    from fliftlab import groebner
    calls = []
    real = groebner._spair_terms
    monkeypatch.setattr(groebner, "_spair_terms",
                        lambda *args: calls.append(1) or real(*args))
    ring = _ring(3, ("x", "y"))
    zero = ring.zero()
    cases = [
        [ModuleVector([ring.parse("x"), zero]),
         ModuleVector([ring.parse("y"), zero])],
        [ModuleVector([ring.parse("x+1"), zero]),
         ModuleVector([ring.parse("y+1"), zero])],
        [ring.parse("x^2*y"), ring.parse("x*y^2")]]
    for gens in cases:
        for order in (GREVLEX, weighted_order(2)):
            gb = buchberger(gens, order)
            assert calls == [] and gb.generators == tuple(gens)
            assert verify_buchberger(gb)  # forms the pair itself
            calls.clear()


def test_tracked_module_basis_elements_expand_from_their_reprs():
    rng = random.Random(7070)
    for order in (GREVLEX, weighted_order(2)):
        for p in (2, 3, 5):
            ring = _ring(p, ("x", "y"))
            for _ in range(5):
                gens = [ModuleVector([random_poly(rng, ring, 2, 3)
                                      for _ in range(2)])
                        for _ in range(rng.randint(2, 3))]
                if all(g.is_zero() for g in gens):
                    continue
                gb = module_buchberger(gens, order, track=True)
                for v, cof in zip(gb.generators, unit_expansions(gb)):
                    for pos in range(2):
                        assert combine(cof, gens, pos) == v[pos]


def test_module_spairs_obey_degree_guard_on_monomial_degree():
    # the only S-pair has lcm x*y e_1: degree 2, the position not counted
    for bound in (2, 1):
        ring = PolyRing(("x", "y"), 3, max_degree=bound)
        gens = [ModuleVector([ring.parse("x"), ring.zero()]),
                ModuleVector([ring.parse("y"), ring.one()])]
        if bound == 2:
            assert len(module_buchberger(gens)) == 3
        else:
            with pytest.raises(DegreeGuardError):
                module_buchberger(gens)


def _jacobian_spanning(gens):
    """The spanning vectors of N as `Poly`s: the f_j e_i by (i, j), then
    the Jacobian columns (df_1/dx_k, ..., df_m/dx_k) by k."""
    m, zero = len(gens), gens[0].ring.zero()
    spanning = [ModuleVector([f if t == i else zero for t in range(m)])
                for i in range(m) for f in gens]
    return spanning + [ModuleVector([f.derivative(k) for f in gens])
                       for k in range(gens[0].ring.nvars)]


def test_jacobian_module_packs_the_spanning_vectors():
    # the packed spanning set equals the encoded Poly construction (with
    # Poly.derivative), and the basis and trace those of module_buchberger
    # on it, under degrevlex and weighted degrevlex for m = 1, 2, 3;
    # every input has terms whose exponent p divides, so some derivative
    # terms drop out, and some column is zero
    rng = random.Random(2323)
    seen_dropped = seen_zero = 0
    for p in (2, 3, 5):
        ring = _ring(p, ("x", "y", "z"))
        for m in (1, 2, 3):
            for _ in range(3):
                gens = [random_nonzero_poly(rng, ring, 3, 3) +
                        ring.monomial((p, 0, 1)) for _ in range(m)]
                spanning = _jacobian_spanning(gens)
                seen_dropped += any(
                    len(f.derivative(k)) < len(f)
                    for f in gens for k in range(3) if f.terms)
                seen_zero += any(v.is_zero() for v in spanning[m * m:])
                for order in (GREVLEX, MonomialOrder((2, 1, 3))):
                    for track in (False, True):
                        basis = jacobian_module(gens, order, track=track)
                        want = module_buchberger(spanning, order,
                                                 track=track)
                        assert basis._originals == [
                            _prep_reducer(want._layout.enc_vector(v), p)
                            for v in spanning]
                        assert basis.original_generators == \
                            tuple(spanning)
                        assert basis._reducers == want._reducers
                        assert basis.trace == want.trace
                        assert basis.leading_monomials == \
                            want.leading_monomials
    assert seen_dropped and seen_zero, (seen_dropped, seen_zero)


def _tuple_contains_one(basis):
    return all(any(not any(lm) for lm in leads)
               for leads in _position_leads(basis))


def _tuple_zero_dimensional(basis):
    n = basis.ring.nvars
    for leads in _position_leads(basis):
        covered = set()
        for lm in leads:
            support = [v for v, e in enumerate(lm) if e]
            if len(support) <= 1:
                covered.update(support or range(n))
        if len(covered) < n:
            return False
    return True


def test_packed_read_out_matches_the_tuple_definitions():
    # contains_one and is_zero_dimensional, read off the packed leads,
    # against their definitions on the decoded leads: random ideals and
    # rank-2 submodules, unit ones (a constant at some or every
    # position), and ones that are not zero-dimensional, under both kinds
    # of order
    rng = random.Random(4141)
    seen = set()
    for order in (GREVLEX, MonomialOrder((1, 3, 2))):
        for p in (2, 3, 7):
            ring = _ring(p, ("x", "y", "z"))
            one, x = ring.one(), ring.variable(0)
            for size in (1, 2):
                cases = [[ModuleVector([random_poly(rng, ring, 2, 3)
                                        for _ in range(size)])
                          for _ in range(rng.randint(1, 3))]
                         for _ in range(6)]
                cases += [[ModuleVector([one] + [x] * (size - 1))],
                          [ModuleVector([x] * size)],
                          [ModuleVector([one] * size),
                           ModuleVector([x] * (size - 1) + [one])]]
                cases += [[ModuleVector([ring.parse(t)] * size)
                           for t in texts]
                          for texts in (["x^2", "y^3"], ["x*y", "z^2"],
                                        ["x^3", "y^2", "z^4", "x*y*z"],
                                        # every variable is the first or
                                        # last of some lead, and some
                                        # variable has no pure power
                                        ["x*y", "y*z", "z^2"],
                                        ["x*y", "y*z", "x^2"])]
                for gens in cases:
                    if all(g.is_zero() for g in gens):
                        continue
                    basis = module_buchberger(gens, order)
                    want = (_tuple_contains_one(basis),
                            _tuple_zero_dimensional(basis))
                    assert (basis.contains_one(),
                            is_zero_dimensional(basis)) == want
                    seen.add(want)
    assert seen == {(True, True), (False, True), (False, False)}, seen
