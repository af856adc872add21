"""Classification pipeline: screening, verdicts, certificates, residuals."""

import json
import random
from collections import Counter
from itertools import combinations_with_replacement, permutations, product
from pathlib import Path

import pytest

from fliftlab import criteria
from fliftlab import groebner
from fliftlab.catalog import (cusp_ci_admissible, cusp_ci_symmetry_class,
                              cusp_hyp_admissible, cusp_hyp_symmetry_class,
                              enumerate_table_rows, make_cusp_ci,
                              make_cusp_hypersurface)
from fliftlab.criteria import (LiftabilityReport, TooManyGeneratorsError,
                               _residual_membership,
                               classify, isolated_singularity_check,
                               residual_polynomial)
from fliftlab.fp_poly import DegreeGuardError, Poly, PolyRing, format_poly
from fliftlab.frobsplit import build_splitting, lift_and_residual
from fliftlab.groebner import (GREVLEX, ModuleVector, MonomialOrder,
                               module_buchberger, module_normal_form)
from fliftlab.report import report_from_dict, report_to_json

from support import (check_reexpansion, delta1_walk, diagonal,
                     diagonal_is_fpure, membership_columns,
                     random_automorphism, substitute, weighted_lead,
                     weighted_order)

GOLDEN = Path(__file__).parent / "golden"


def _r(p, names=("x", "y", "z")):
    return PolyRing(names, p)


def test_isolated_examples():
    ring = _r(2)
    f = ring.parse("z^2+x^2*y+x*y^2+x*y*z")
    assert isolated_singularity_check([f])[0] == "isolated_at_origin_only"
    assert isolated_singularity_check([ring.parse("x")])[0] == "smooth"
    r3 = _r(3)
    assert isolated_singularity_check([r3.parse("x^2")])[0] == "not_isolated"
    with pytest.raises(TooManyGeneratorsError):
        isolated_singularity_check(
            [ring.parse("x"), ring.parse("y"), ring.parse("z"),
             ring.parse("x+y")])


@pytest.mark.parametrize("p, names, texts, verdict", [
    # a cuspidal plane curve, and a fat point: each used to pass the
    # m = 1 screen as "smooth", Y/Y, conclusive
    (5, "xyz", ("x", "x+y^2-z^3"), ("classified", False, False, True)),
    (3, "xy", ("x", "x+y^2"), ("classified", False, False, True)),
    # non-reduced along a surface: its singular locus is not isolated
    (3, "xyzw", ("x*y+z^2", "x*y+z^2+w^3"), ("not_isolated", None, None,
                                             False)),
])
def test_ci_screen_uses_the_jacobian_minors(p, names, texts, verdict):
    ring = PolyRing(list(names), p)
    rep = classify([ring.parse(t) for t in texts])
    assert (rep.status, rep.f_pure, rep.f_liftable, rep.conclusive) == verdict


def test_singular_elsewhere_detected():
    # x(x-1)-type geometry: second singular point away from the origin
    r5 = PolyRing(["x", "y"], 5)
    f = r5.parse("y^2 + x^2*(x-1)^2")
    status, _ = isolated_singularity_check([f])
    assert status == "singular_elsewhere"


@pytest.mark.parametrize("gens, verdict, walks", [
    # members and a non-F-pure input never read origin-only support
    (lambda: make_cusp_ci(2, 2, 3, 3, 4), (True, True, True), 0),
    (lambda: [make_cusp_hypersurface(5, 2, 3, 7)], (True, True, True), 0),
    (lambda: [_r(2).parse("x^2*y + x*y^2 + z^2")], (False, False, True), 0),
    # an F-pure nonmember reads it once: E_8^1 at p = 5, isolated, and a
    # perturbation of it with singular points elsewhere
    (lambda: [_r(5).parse("z^2+x^3+y^5+x*y^4")], (True, False, True), 1),
    (lambda: [_r(5).parse("z^2 + x^3 + y^5 + x*y^4 + 3*x^7*y*z")],
     (True, False, False), 1),
    # and one decided under weights, which walks its weighted screen
    (lambda: [_r(3, "xyzw").parse("x^2+y^2+z^3+w^5")], (True, False, True),
     1),
])
@pytest.mark.parametrize("certificates", [False, True])
def test_origin_walk_only_for_an_fpure_nonmember(monkeypatch, gens, verdict,
                                                 walks, certificates):
    calls = []
    walk = criteria.supported_only_at_origin
    monkeypatch.setattr(criteria, "supported_only_at_origin",
                        lambda basis: calls.append(basis) or walk(basis))
    rep = classify(gens(), certificates=certificates)
    assert (rep.f_pure, rep.f_liftable, rep.conclusive) == verdict
    assert len(calls) == walks


def test_classify_headline_cases():
    rep = classify([_r(5).parse("z^2+x^3+y^5+x*y^4")])
    assert (rep.f_pure, rep.f_liftable) == (True, False)
    assert rep.conclusive

    rep = classify([_r(2).parse("z^2+x^2*y+x*y^2+x*y*z")])
    assert (rep.f_pure, rep.f_liftable) == (True, True)

    rep = classify([_r(2).parse("x^3+y^4+z^5+x*y*z")])
    assert rep.f_liftable

    rep = classify([_r(3).parse("z^2+x^3+y^4+x^2*y^2")])
    assert (rep.f_pure, rep.f_liftable) == (True, True)


def test_classify_rejects_bad_input():
    ring = _r(2)
    with pytest.raises(ValueError):
        classify([ring.zero()])
    with pytest.raises(ValueError):
        classify([ring.one()])
    with pytest.raises(ValueError, match="nonempty"):
        classify([])


def test_not_isolated_report():
    rep = classify([_r(3).parse("x^2")])
    assert rep.status == "not_isolated"
    assert rep.f_pure is None and rep.f_liftable is None
    assert not rep.conclusive


def test_smooth_report():
    rep = classify([_r(5).parse("x")])
    assert rep.status == "smooth"
    assert rep.f_pure and rep.f_liftable and rep.conclusive


def test_non_fpure_short_circuit():
    rep = classify([_r(2).parse("z^2+x^2*y+x*y^3")])
    assert rep.status == "classified"
    assert (rep.f_pure, rep.f_liftable, rep.conclusive) == (False, False, True)
    assert rep.certificate.fedder_survivor is None


def test_report_constructor_enforces_implication():
    with pytest.raises(ValueError):
        LiftabilityReport(p=2, variables=("x",), generators=("x",),
                          status="classified", f_pure=False, f_liftable=True,
                          conclusive=True, certificate=None, timings_ms={})


def test_residual_identities_range():
    for n in range(2, 11):
        ring = _r(2)
        x, y, z = ring.gens()
        f = z ** 2 + x ** 2 * y + x * y ** n + x * y * z
        fz = f.derivative(2)
        target = z ** 2 * f + (x ** 2 + x * y ** (n - 1) + x * z +
                               y ** (2 * n - 2) + y ** (n - 1) * z) * fz * fz
        assert residual_polynomial(f) == target

        f = z ** 2 + x ** 2 * y + y ** n * z + x * y * z
        fx, fz = f.derivative(0), f.derivative(2)
        target = ((z ** 2 + y ** (2 * n - 1)) * f +
                  (x ** 2 + x * y ** (n - 1) + y ** (2 * n - 3)) * fx * fx +
                  (x ** 2 + z ** 2 + x * z + y ** (n - 1) * z) * fz * fz)
        assert residual_polynomial(f) == target


def test_residual_requires_fedder():
    with pytest.raises(ValueError):
        residual_polynomial(_r(2).parse("z^2+x^2*y+x*y^3"))


def test_residual_degenerate_zero_delta1():
    # a two-term freshman's-dream polynomial: delta1 = x^p * y^p-ish terms
    ring = PolyRing(["x", "y"], 2)
    f = ring.parse("x")          # single term, delta1 = 0
    assert residual_polynomial(f).is_zero()


def test_ci_examples():
    r4 = PolyRing(["x", "y", "z", "w"], 2)
    rep = classify(
        [r4.parse("x*y+z^3+w^2"), r4.parse("z*w+x^2+y^2")])
    assert (rep.f_pure, rep.f_liftable) == (True, True)

    rep = classify(
        [r4.parse("x*y+z^3+w^3"), r4.parse("z*w+x^3+y^3")])
    assert (rep.f_pure, rep.f_liftable) == (True, True)

    rep = classify([r4.parse("x"), r4.parse("y")])
    assert rep.status == "smooth"
    assert rep.f_pure and rep.f_liftable


def test_ci_certificates():
    r4 = PolyRing(["x", "y", "z", "w"], 2)
    gens = [r4.parse("x*y+z^3+w^2"), r4.parse("z*w+x^2+y^2")]
    rep = classify(gens, certificates=True)
    assert rep.f_liftable
    # the cofactors re-expand the residual vector after a JSON round trip
    back = report_from_dict(json.loads(report_to_json(rep)))
    assert len(back.certificate.cofactors) == 2 * 2 + 4
    check_reexpansion(gens, _residuals(gens), back.certificate.cofactors)


def test_hypersurface_certificates_roundtrip():
    ring = _r(2)
    f = ring.parse("z^2+x^2*y+x*y^2+x*y*z")
    rep = classify([f], certificates=True)
    assert rep.f_liftable
    cof = rep.certificate.cofactors
    assert cof is not None
    residual = residual_polynomial(f)
    expansion = cof[0] * f
    for v in range(3):
        expansion = expansion + cof[1 + v] * f.derivative(v).frobenius()
    assert expansion == residual


def test_classify_dispatch():
    ring = _r(2)
    f = ring.parse("z^2+x^2*y+x*y^2+x*y*z")
    assert classify([f]).f_liftable
    r4 = PolyRing(["x", "y", "z", "w"], 2)
    rep = classify([r4.parse("x*y+z^3+w^2"), r4.parse("z*w+x^2+y^2")])
    assert rep.f_liftable


def _residuals(gens):
    split = build_splitting(gens)
    return [split.unpack(lift_and_residual(split, f)[1]) for f in gens]


def _membership(gens, screen, certificates=False):
    """`_residual_membership` as `classify` calls it: the residuals packed
    in the screen layout's fields by the pipeline's own splitting."""
    split = build_splitting(gens, screen._layout.fields)
    residuals = [lift_and_residual(split, f)[1] for f in gens]
    return _residual_membership(residuals, gens, screen, certificates, split)


def _counting(monkeypatch, module, name):
    """Wrap module.name so that calls to it are counted in the returned
    dict."""
    counts = {"n": 0}
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return counts


def test_certified_quick_path_runs_only_the_screen(monkeypatch):
    # cusp (2,4,5) at p = 2: the seed division alone proves membership,
    # and its quotients are the seed's cofactors; the engine runs only
    # for the screen
    gens = [make_cusp_hypersurface(2, 2, 4, 5)]
    runs = _counting(monkeypatch, groebner, "_groebner")
    rep = classify(gens, certificates=True)
    assert rep.f_liftable and runs["n"] == 1
    check_reexpansion(gens, _residuals(gens), rep.certificate.cofactors)


def test_packed_seed_is_the_frobenius_of_the_screen():
    # the membership seed N^[p], built by scaling the screen's packed
    # reducers, equals the prepared reducers of the encoded Poly.frobenius
    # of the screen's generators, for m = 1 and m = 2 under both orders;
    # it raises DegreeGuardError exactly where Poly.frobenius does, once
    # p * deg passes the guard.  The last screen has its largest degree in
    # a tail under the weighted order: x^3 + 2*x^2*y^2, with y^3.
    from fliftlab.fp_poly import _pack
    from fliftlab.groebner import (_frobenius_reducers, _prep_reducer,
                                   seeded_membership)

    def prepared(reducer):
        lm, inv, tail = reducer
        return lm, inv, dict(tail)

    cases = [[make_cusp_hypersurface(3, 2, 3, 7)], make_cusp_ci(2, 2, 3, 3, 4),
             [PolyRing(["x", "y"], 5).parse("x^4 + y^4 + x^3*y^2")]]
    for gens in cases:
        names, p = gens[0].ring.variables, gens[0].ring.p
        for order in (GREVLEX, weighted_order(len(names))):
            screen = isolated_singularity_check(gens, order)[1]
            deg = max(c.total_degree() for g in screen for c in g)
            for guard in (p * deg, p * deg - 1):
                ring = PolyRing(names, p, guard)
                moved = [ring.parse(str(f)) for f in gens]
                screen = isolated_singularity_check(moved, order)[1]
                try:
                    want = [prepared(_prep_reducer(screen._layout.enc_vector(
                        ModuleVector([c.frobenius() for c in g])), p))
                        for g in screen]
                except DegreeGuardError:
                    want = None
                assert (want is None) == (guard < p * deg)
                if want is None:
                    units = screen._layout.fields[1]
                    with pytest.raises(DegreeGuardError):
                        seeded_membership([dict(_pack(f.terms, units))
                                           for f in moved], screen)
                    continue
                assert [prepared(r) for r in _frobenius_reducers(
                    screen._reducers, screen._layout, p)] == want


def test_certified_membership_stops_at_the_first_zero_remainder(monkeypatch):
    # cusp (3,3,4) at p = 5: the certified run stops at the first zero
    # remainder too, short of the full tracked basis, and its certificate
    # is no larger than the full basis gave (9,096 terms)
    gens = [make_cusp_hypersurface(5, 3, 3, 4)]
    residuals = _residuals(gens)
    screen = isolated_singularity_check(gens, track=True)[1]
    spairs = _counting(monkeypatch, groebner, "_spair_terms")
    member, _, cofactors = _membership(gens, screen, True)
    early = spairs["n"]
    spairs["n"] = 0
    seed = [ModuleVector([c.frobenius() for c in g]) for g in screen]
    seed += screen.original_generators[:1]
    module_buchberger(seed, track=True, known_gb_prefix=len(screen))
    assert member and 0 < early < spairs["n"], (early, spairs["n"])
    assert check_reexpansion(gens, residuals, cofactors) <= 9096


@pytest.mark.parametrize("which", [0, -1])
@pytest.mark.parametrize("gens", [
    [make_cusp_hypersurface(3, 2, 3, 7)], make_cusp_ci(2, 2, 3, 3, 4)],
    ids=["m=1", "m=2"])
def test_reexpansion_check_rejects_a_wrong_cofactor(monkeypatch, gens, which):
    # one seed cofactor off by the monomial 1, on N^[p]'s first element or
    # on the last f_j e_i, must fail the re-expansion check
    real = criteria.seeded_membership

    def off_by_one(target, screen, **kwargs):
        rem, cof = real(target, screen, **kwargs)
        p = screen.ring.p
        bad = dict(cof[which])
        for k, c in screen.pack(screen.ring.one()).items():
            if r := (bad.pop(k, 0) + c) % p:
                bad[k] = r
        cof[which] = bad
        return rem, cof

    assert classify(gens, certificates=True).f_liftable
    monkeypatch.setattr(criteria, "seeded_membership", off_by_one)
    with pytest.raises(RuntimeError, match="failed re-expansion"):
        classify(gens, certificates=True)


def _golden_fields(name):
    fields = {}
    for line in (GOLDEN / name).read_text().splitlines():
        key, _, value = line.partition(":")
        fields.setdefault(key.strip(), []).append(value.strip())
    return fields


@pytest.mark.parametrize("name", ["classify_cusp237_p3_certificates.txt",
                                  "classify_ci_p2_certificates.txt"])
def test_golden_certificates_reexpand(name):
    # the pinned certificates, read back from the golden text, expand the
    # residuals r_i = s^p * delta1(f_i) + g_i^p: delta1 from the walk
    # oracle, g_i from the golden and s the unit 1 (sigma(1)(0) = 1)
    fields = _golden_fields(name)
    ring = PolyRing(fields["variables"][0].split(", "),
                    int(fields["p"][0]))
    gens = [ring.parse(v) for k, vs in fields.items()
            if k.startswith("generator") for v in vs]
    assert build_splitting(gens).s == ring.one()
    g = fields["g"][0].strip("()").split(", ")
    residuals = [delta1_walk(f) + ring.parse(gi).frobenius()
                 for f, gi in zip(gens, g)]
    cofactors = [ring.parse(c) for c in fields["cofactors"][0].split("; ")]
    check_reexpansion(gens, residuals, cofactors)


def _order_name(order):
    """The `order` field of a report decided under `order`."""
    if order.weights is None:
        return "grevlex"
    return "grevlex:" + ",".join(map(str, order.weights))


def _cold_membership(residuals, gens):
    """The oracle: a cold module Buchberger on (f_j e_i, w_k) and the
    normal form of the residual vector, sharing nothing with the screen."""
    basis = module_buchberger(map(ModuleVector, membership_columns(gens)))
    nf = module_normal_form(ModuleVector(residuals), basis)
    return nf.is_zero(), nf.coordinates


def _ci_classes(max_exp):
    return sorted({cusp_ci_symmetry_class(t)
                   for t in product(range(2, max_exp + 1), repeat=4)
                   if cusp_ci_admissible(*t)})


def _verdict(gens):
    rep = classify(gens)
    return rep.status, rep.f_pure, rep.f_liftable, rep.conclusive


def test_verdicts_invariant_under_coordinate_change():
    # F-purity and F-liftability belong to the singularity, not to its
    # equations: a seeded origin-fixing automorphism keeps every verdict
    # field on the table rows at n <= 4 and p <= 5, and replacing f_2 by
    # f_2 + f_1 keeps them on the cusp_ci classes at p = 2 with exponents
    # <= 4.  (The 10 rows at p = 7 are the slow test below.)
    rng = random.Random(1)
    rows = [inst for inst in enumerate_table_rows(4) if inst.p <= 5]
    for inst in rows:
        f = inst.poly
        moved = substitute(f, random_automorphism(rng, f.ring))
        assert _verdict([moved]) == _verdict([f]), (str(f), str(moved))
    classes = _ci_classes(4)
    for t in classes:
        f1, f2 = make_cusp_ci(2, *t)
        assert _verdict([f1, f2 + f1]) == _verdict([f1, f2]), t
    assert (len(rows), len(classes)) == (58, 20)


@pytest.mark.slow
def test_verdicts_invariant_under_coordinate_change_at_p7():
    # the same seeded maps on the 10 table rows at n <= 4 and p = 7, which
    # take about 13 s
    rng = random.Random(7)
    rows = [inst for inst in enumerate_table_rows(4) if inst.p == 7]
    for inst in rows:
        f = inst.poly
        moved = substitute(f, random_automorphism(rng, f.ring))
        assert _verdict([moved]) == _verdict([f]), (str(f), str(moved))
    assert len(rows) == 10


def test_seeded_membership_matches_cold_oracle():
    # the seeded route against the cold one on every table row at n <= 8
    # and every cusp_ci class at p = 2 that reaches membership; a reduced
    # basis is unique, so the remainders agree too
    cases = [[inst.poly] for inst in enumerate_table_rows(8)]
    cases += [make_cusp_ci(2, *t) for t in _ci_classes(6)]
    compared = 0
    for gens in cases:
        status, screen = isolated_singularity_check(gens)
        split = build_splitting(gens)
        if status in ("smooth", "not_isolated") or not split.fpure_at_origin:
            continue
        seeded = _membership(gens, screen)
        assert seeded[:2] == _cold_membership(_residuals(gens), gens), \
            [str(f) for f in gens]
        compared += 1
    assert compared == 79 + 119


def test_seeded_membership_agrees_with_naive_route():
    # the pipeline seeds Buchberger with bracket powers of the isolated
    # locus basis; the naive route runs Buchberger on (f, I_f^[p]) from
    # scratch.  Both must produce the same remainder.
    from fliftlab.frobsplit import apply_sigma, build_splitting, delta1
    from fliftlab.groebner import GREVLEX, buchberger, normal_form

    cases = [(2, "z^2+x^2*y+x*y^2+x*y*z"), (2, "x^3+y^4+z^5+x*y*z"),
             (3, "z^2+x^3+y^4+x^2*y^2"), (3, "z^2+x^3+y^5+x^2*y^2"),
             (5, "z^2+x^3+y^5+x*y^4"), (5, "x^2+y^3+z^7+x*y*z"),
             (7, "z^2+x^3+y^5"), (7, "x^3+y^3+z^4+x*y*z")]
    for p, text in cases:
        f = _r(p).parse(text)
        status, screen = isolated_singularity_check([f])
        split = build_splitting([f])
        if not split.fpure_at_origin:
            continue
        d1 = delta1(f)
        g = -apply_sigma(split, d1)
        residual = split.s.frobenius() * d1 + g.frobenius()
        assert _residuals([f]) == [residual], (p, text)
        member, (rem,), _ = _membership([f], screen)
        naive_gens = [f] + [f.derivative(v).frobenius() for v in range(3)]
        naive_gb = buchberger(naive_gens)
        naive_rem = normal_form(residual, naive_gb)
        assert member == naive_rem.is_zero(), (p, text)
        if not member:
            assert rem == naive_rem, (p, text)


def test_plain_and_certified_routes_agree():
    # the plain route may stop at the first zero remainder; member and
    # remainder must still match the certified route's full run on every
    # cusp_hyp class at p = 3 (E_8^1 at p = 5, a nonmember, is compared
    # in test_ci_negative_verdict_same_with_certificates)
    classes = sorted({cusp_hyp_symmetry_class(t)
                      for t in product(range(2, 9), repeat=3)
                      if cusp_hyp_admissible(*t)})
    assert len(classes) == 71
    for t in classes:
        gens = [make_cusp_hypersurface(3, *t)]
        plain, cert = (_membership(
            gens, isolated_singularity_check(gens, track=c)[1], c)
            for c in (False, True))
        assert plain[:2] == cert[:2], t


def test_plain_membership_stops_at_the_first_zero_remainder(monkeypatch):
    # cusp (2,4,5) at p = 7 is a member that the seed alone does not
    # prove; the full run completes the basis before it reduces the target
    gens = [make_cusp_hypersurface(7, 2, 4, 5)]
    residuals = _residuals(gens)
    screen = isolated_singularity_check(gens)[1]
    spairs = _counting(monkeypatch, groebner, "_spair_terms")
    member, rem, _ = _membership(gens, screen)
    assert member and all(r.is_zero() for r in rem)
    early = spairs["n"]
    spairs["n"] = 0
    seed = [ModuleVector([c.frobenius() for c in g]) for g in screen]
    seed += screen.original_generators[:1]
    full = module_buchberger(seed, known_gb_prefix=len(screen))
    assert module_normal_form(ModuleVector(residuals), full).is_zero()
    assert 0 < early < spairs["n"], (early, spairs["n"])


def test_verdicts_are_order_independent(monkeypatch):
    cases = [(2, "z^2+x^2*y+x*y^2+x*y*z"), (5, "z^2+x^3+y^5+x*y^4"),
             (3, "z^2+x^3+y^4+x^2*y^2"), (2, "z^2+x^2*y+x*y^3")]
    for p, text in cases:
        f = _r(p).parse(text)
        a = classify([f])
        with monkeypatch.context() as m:
            m.setattr(criteria, "_decision_order",
                      lambda gens: weighted_order(3))
            b = classify([f])
        assert (a.f_pure, a.f_liftable) == (b.f_pure, b.f_liftable)
        assert (a.order, b.order) == ("grevlex", "grevlex:5,3,1")
    # `classify` picks its own order and takes none
    with pytest.raises(TypeError):
        classify([f], order=GREVLEX)


def test_negative_ci_verdict_needs_a_splitting_section(monkeypatch):
    # no known two-generator input is F-pure and not liftable, so the
    # module route is stubbed to answer "not a member": the negative
    # verdict is conclusive only when the section s is identically 1
    monkeypatch.setattr(criteria, "_residual_membership",
                        lambda residuals, gens, screen, want_cofactors,
                        split: (False, tuple(residuals), None))
    r4 = PolyRing(["x", "y", "z", "w"], 3)
    unit_section = [r4.parse("x*y+z^2+w^2"), r4.parse("z*w+x^2+y^2+2*x*y*w")]
    r4 = PolyRing(["x", "y", "z", "w"], 2)
    one_section = [r4.parse("x*y+z^3+w^2"), r4.parse("z*w+x^2+y^2")]
    for gens, s_is_one in ((unit_section, False), (one_section, True)):
        assert (build_splitting(gens).s == gens[0].ring.one()) == s_is_one
        rep = classify(gens)
        assert rep.status == "classified"
        assert (rep.f_pure, rep.f_liftable) == (True, False)
        assert rep.conclusive == s_is_one


def test_ci_negative_verdict_same_with_certificates():
    # the known non-liftable equation, E_8^1 at p = 5, plain and tracked:
    # both remainders must match each other and the cold normal form
    f = _r(5).parse("z^2+x^3+y^5+x*y^4")
    residual = residual_polynomial(f)
    plain = _membership([f], isolated_singularity_check([f])[1])
    cert = _membership([f], isolated_singularity_check([f], track=True)[1],
                       True)
    assert plain[0] is False and cert[0] is False
    # both take the remainder from the run itself: the normal form on the
    # full reduced basis
    assert cert[1] == plain[1] == _cold_membership([residual], [f])[1]
    assert not any(r.is_zero() for r in cert[1])
    assert cert[2] is None and plain[2] is None


def test_singular_elsewhere_positive_verdict_is_conclusive():
    # extra singular points away from the origin: membership still certifies
    rep = classify([_r(7).parse("x^11+y^12+z^12+x*y*z")])
    assert rep.status == "classified"
    assert rep.f_liftable and rep.conclusive


def test_timings_present():
    rep = classify([_r(2).parse("z^2+x^2*y+x*y^2+x*y*z")])
    for key in ("isolated", "fedder", "delta1", "groebner", "total"):
        assert key in rep.timings_ms
        assert rep.timings_ms[key] >= 0.0


def _unit_weights(gens):
    return MonomialOrder((1,) * gens[0].ring.nvars)


def _route_oracle_inputs():
    yield from ([inst.poly] for inst in enumerate_table_rows(8))
    for p in (2, 3):
        for t in sorted({cusp_hyp_symmetry_class(t)
                         for t in product(range(2, 9), repeat=3)
                         if cusp_hyp_admissible(*t)}):
            yield [make_cusp_hypersurface(p, *t)]


def test_weighted_route_matches_the_unit_weight_route(monkeypatch):
    # every RDP row at n <= 8 and every cusp_hyp class at p = 2, 3 with
    # exponents <= 8: `classify` decides under the weights read off the
    # pure powers where it can, and unit weights are degrevlex itself
    # through the engine's orders; both give the same report apart from
    # the timings and the order it names, remainders included
    weighted = 0
    for gens in _route_oracle_inputs():
        decision = criteria._decision_order(gens)
        weighted += decision != GREVLEX
        a = classify(gens)
        unit = _unit_weights(gens)
        with monkeypatch.context() as m:
            m.setattr(criteria, "_decision_order", lambda gens: unit)
            b = classify(gens)
        assert a.order == _order_name(decision), a.generators
        assert (a.status, a.f_pure, a.f_liftable, a.conclusive,
                a.certificate) == \
            (b.status, b.f_pure, b.f_liftable, b.conclusive,
             b.certificate), a.generators
    assert weighted > 100, weighted


def test_decision_order_reads_the_pure_powers():
    ring = _r(5)
    cases = [("x^2+y^3+z^7+x*y*z", (4, 2, 1)),  # round(3.5) = 4, round(2.33)
             # under (2, 1, 2), round(2.5) = 2, x*y^4 ties x^3 at 6 and
             # leads by degrevlex
             ("z^2+x^3+y^5+x*y^4", None),
             ("x^3+y^3+z^4+x*y*z", None),  # round(4/3) = 1: all units
             ("x*y+z^5", None),  # no pure power of x or y
             ("x^2+x^6+y^3+z^7", (4, 2, 1)),  # the smallest power of x
             # x^9 leads x^3*y under (4, 2, 1): the lead is read over all
             # terms, not against the smallest power of each variable
             ("x^2+x^9+y^3+z^7+x^3*y", (4, 2, 1))]
    for text, weights in cases:
        f = ring.parse(text)
        want = GREVLEX if weights is None else MonomialOrder(weights)
        assert criteria._decision_order([f]) == want, text
    # complete intersections are decided under degrevlex
    gens = make_cusp_ci(2, 2, 3, 3, 4)
    assert criteria._decision_order(gens) == GREVLEX


def _rule_inputs():
    for inst in enumerate_table_rows(8):
        for perm in permutations(range(inst.poly.ring.nvars)):
            yield inst, inst.poly.permute_variables(perm)
    for p in (2, 3, 5, 7):
        for t in product(range(2, 13), repeat=3):
            if cusp_hyp_admissible(*t):
                yield None, make_cusp_hypersurface(p, *t)


def test_decision_order_keeps_the_weights_iff_a_pure_power_leads():
    # every RDP row at n <= 8 under all variable orders and every cusp_hyp
    # exponent triple <= 12 at p = 2, 3, 5, 7: the weights read off the
    # pure powers are kept iff f's lead under them, by the engine's
    # layout, is a pure power; only E_8^1, E_8^2 and E_6^1 lead mixed
    count, mixed = 0, Counter()
    for inst, f in _rule_inputs():
        count += 1
        pure: dict[int, int] = {}
        for mono in f.terms:
            if sum(map(bool, mono)) == 1:
                v = next(v for v, e in enumerate(mono) if e)
                pure[v] = min(mono[v], pure.get(v, mono[v]))
        n = f.ring.nvars
        weights = None
        if len(pure) == n:
            top = max(pure.values())
            weights = tuple(round(top / pure[v]) for v in range(n))
            if max(weights) == 1:
                weights = None
        if weights and sum(map(bool, weighted_lead(f, weights))) > 1:
            mixed[inst and (inst.row.row_label, inst.p)] += 1
            weights = None
        want = GREVLEX if weights is None else MonomialOrder(weights)
        assert criteria._decision_order([f]) == want, format_poly(f)
    assert count == 5988
    assert mixed == {("E_8^1", 2): 6, ("E_8^1", 3): 6, ("E_8^1", 5): 6,
                     ("E_8^2", 2): 6, ("E_8^2", 3): 6, ("E_6^1", 3): 3}


def test_fpure_nonmember_remainder_is_that_of_the_named_order(monkeypatch):
    # x^2 + y^2 + z^3 + w^5 at p = 3 is an F-pure nonmember decided under
    # weights (2, 2, 2, 1), under which z^3 leads: it is screened once,
    # the report names those weights and keeps their remainder, which
    # differs from the degrevlex one but is the same residual class
    f = _r(3, "xyzw").parse("x^2+y^2+z^3+w^5")
    decision = criteria._decision_order([f])
    assert decision.weights == (2, 2, 2, 1)
    weighted = _membership([f], criteria._screen([f], decision, False)[1])
    plain = _membership([f], criteria._screen([f], GREVLEX, False)[1])
    screens = _counting(monkeypatch, criteria, "_screen")
    report = classify([f])
    assert screens["n"] == 1
    assert (report.f_pure, report.f_liftable) == (True, False)
    assert report.order == "grevlex:2,2,2,1"
    assert not weighted[0] and weighted[1] != plain[1]
    assert report.certificate.remainder == weighted[1]
    # under degrevlex, the weighted remainder reduces to the normal form
    # of the residual itself
    cold = _cold_membership(list(weighted[1]), [f])
    assert cold == _cold_membership(_residuals([f]), [f]) == (False, plain[1])
    # E_8^1 at p = 5 leads with x*y^4 under its weights, so it is decided
    # once, under degrevlex, with the remainder that the golden pins
    screens["n"] = 0
    report = classify([_r(5).parse("z^2+x^3+y^5+x*y^4")])
    assert screens["n"] == 1 and report.order == "grevlex"
    golden = _golden_fields("classify_e81_p5.txt")["remainder"]
    assert [format_poly(r) for r in report.certificate.remainder] == golden


def test_weighted_route_bounds_the_cusp_237_membership_run(monkeypatch):
    # cusp (2,3,7) at p = 11, the large-p frontier, under all six
    # permutations: the membership runs form 346 S-pairs under the weights
    # read off x^2, y^3, z^7, where degrevlex formed 2,616
    f = make_cusp_hypersurface(11, 2, 3, 7)
    spairs = _counting(monkeypatch, groebner, "_spair_terms")
    runs = []
    real = criteria.seeded_membership

    def membership(*args, **kwargs):
        before = spairs["n"]
        out = real(*args, **kwargs)
        runs.append(spairs["n"] - before)
        return out

    monkeypatch.setattr(criteria, "seeded_membership", membership)
    for perm in permutations(range(3)):
        assert classify([f.permute_variables(perm)]).f_liftable
    assert len(runs) == 6 and sum(runs) <= 400, runs


def test_product_criterion_bounds_the_cusp_ci_screens(monkeypatch):
    # the screens of the 119 cusp_ci classes at p = 2, exponents <= 6:
    # most of N's basis elements are monomials or live at one position, and
    # the product criterion at every rank leaves 1,599 of the 4,434 S-pairs
    # formed when it held at rank 1 only
    spairs = _counting(monkeypatch, groebner, "_spair_terms")
    classes = sorted({cusp_ci_symmetry_class(t)
                      for t in product(range(2, 7), repeat=4)
                      if cusp_ci_admissible(*t)})
    for cls in classes:
        criteria._screen(make_cusp_ci(2, *cls), GREVLEX, False)
    assert len(classes) == 119 and spairs["n"] <= 1700, spairs["n"]


def test_monomials_take_no_tail_reduction_on_the_cusp_ci_screens(monkeypatch):
    # the same 119 screens form the same 1,599 S-pairs, while a monomial,
    # most of N's basis, joins and is interreduced without a reduction of
    # its empty tail: 1,991 reductions, where 3,194 reduced every tail
    spairs = _counting(monkeypatch, groebner, "_spair_terms")
    reductions = _counting(monkeypatch, groebner, "_reduce_full")
    classes = sorted({cusp_ci_symmetry_class(t)
                      for t in product(range(2, 7), repeat=4)
                      if cusp_ci_admissible(*t)})
    for cls in classes:
        criteria._screen(make_cusp_ci(2, *cls), GREVLEX, False)
    assert spairs["n"] == 1599 and reductions["n"] <= 2000, (
        spairs["n"], reductions["n"])


def test_membership_runs_form_the_same_pairs_and_joins(monkeypatch):
    # the membership runs of the 71 cusp_hyp classes at p = 5, exponents
    # <= 8, plain and certified: the seed N^[p] joins as prepared reducers
    # without pairs, and every later element by one walk of its
    # position's active list (one `_new_pairs` call each); the runs form
    # 3,353 S-pairs and join 1,884 elements, as when the seed joined as
    # rebuilt term dicts and the active list was filtered apart
    counts = {"spairs": 0, "joins": 0}
    inside = []
    for name, key in (("_spair_terms", "spairs"), ("_new_pairs", "joins")):
        def counted(*args, _real=getattr(groebner, name), _key=key):
            counts[_key] += bool(inside)
            return _real(*args)
        monkeypatch.setattr(groebner, name, counted)
    real = criteria.seeded_membership

    def membership(*args, **kwargs):
        inside.append(1)
        try:
            return real(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(criteria, "seeded_membership", membership)
    classes = sorted({cusp_hyp_symmetry_class(t)
                      for t in product(range(2, 9), repeat=3)
                      if cusp_hyp_admissible(*t)})
    assert len(classes) == 71
    for certificates in (False, True):
        counts.update(spairs=0, joins=0)
        for cls in classes:
            rep = classify([make_cusp_hypersurface(5, *cls)],
                           certificates=certificates)
            assert rep.f_liftable
        assert counts == {"spairs": 3353, "joins": 1884}, counts


def test_classify_validates_what_the_packed_screen_packs():
    # the screen packs each generator once, without building
    # ModuleVectors: generators in different ambients (another prime,
    # other variables) still raise AmbientMismatchError, and a generator
    # with a term past the first generator's degree guard still raises
    # DegreeGuardError, under degrevlex and, in the screen, a weighted
    # order
    from fliftlab.fp_poly import AmbientMismatchError
    f1 = PolyRing("xyzw", 2).parse("x*y+z^3+w^2")
    for ring in (PolyRing("xyzw", 3), PolyRing("xyzv", 2)):
        f2 = ring.parse(f"z*{ring.variables[3]}+x^2+y^2")
        for gens in ([f1, f2], [f2, f1]):
            with pytest.raises(AmbientMismatchError):
                classify(gens)
    small, big = PolyRing("xyzw", 2, 12), PolyRing("xyzw", 2, 100)
    gens = [small.parse("x*y+z^3+w^2"), big.parse("z*w+x^13+y^2")]
    with pytest.raises(DegreeGuardError):
        classify(gens)
    with pytest.raises(DegreeGuardError):
        criteria._screen(gens, weighted_order(4), False)
    # within the guard the mixed guards classify as one ring does
    gens[1] = big.parse("z*w+x^3+y^2")
    assert classify(gens).f_liftable


def test_plus_product_obeys_degree_guard():
    # c + t * f on packed terms raises where the Poly product t * f would
    ring = PolyRing(["x", "y"], 3, 5)
    screen = criteria._screen([ring.parse("x^2+y^3")], GREVLEX, False)[1]
    c, f = screen.pack(ring.parse("x")), screen.pack(ring.parse("y^3"))
    with pytest.raises(DegreeGuardError):
        ring.parse("x^3") * ring.parse("y^3")
    with pytest.raises(DegreeGuardError, match="exceeds guard 5"):
        criteria._plus_product(screen, c, screen.pack(ring.parse("x^3")), f)
    out = criteria._plus_product(screen, c, screen.pack(ring.parse("x^2")), f)
    assert screen.unpack(out) == ring.parse("x + x^2*y^3")


def test_uncertified_classify_forms_no_poly_product(monkeypatch):
    # Fedder, delta1, sigma and the residual run on packed terms: a plain
    # verdict calls neither Poly.__mul__ nor Poly.__pow__, the F-pure
    # nonmember x^2 + y^2 + z^3 + w^5 included; a certified complete intersection still forms its
    # f_j^(p-1) by them
    cases = [([make_cusp_hypersurface(5, 2, 3, 7)], (True, True)),
             (make_cusp_ci(2, 2, 3, 3, 4), (True, True)),
             ([_r(3, "xyzw").parse("x^2+y^2+z^3+w^5")], (True, False))]
    calls = {"__mul__": 0, "__pow__": 0}

    def counted(name):
        real = getattr(Poly, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(Poly, name, counted(name))
    monkeypatch.setattr(Poly, "__rmul__", Poly.__mul__)
    screens = _counting(monkeypatch, criteria, "_screen")
    for gens, verdict in cases:
        rep = classify(gens)
        assert (rep.f_pure, rep.f_liftable) == verdict
    assert screens["n"] == 3  # one screen per input
    assert calls == {"__mul__": 0, "__pow__": 0}
    assert classify(cases[1][0], certificates=True).f_liftable
    assert calls["__pow__"] == 2


def test_diagonal_verdicts_beyond_surfaces_match_the_closed_form():
    """x0^a0 + ... at n = 4, 5 with a_i <= 4 and p = 3, 5.  The screen
    refuses exactly the inputs with two exponents divisible by p (on the
    other coordinates' zero set, x_i^a_i + x_j^a_j = 0 is then a singular
    curve), and every classified verdict's f_pure is the closed form's."""
    for n, p in product((4, 5), (3, 5)):
        for a in combinations_with_replacement(range(2, 5), n):
            rep = classify([diagonal(a, p)])
            refused = sum(e % p == 0 for e in a) >= 2
            assert rep.status == ("not_isolated" if refused
                                  else "classified"), (a, p)
            if not refused:
                assert rep.f_pure == diagonal_is_fpure(a, p), (a, p)
