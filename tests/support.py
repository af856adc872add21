"""Shared test helpers: a second monomial order, random polynomial
generation, the dense Macaulay-matrix membership oracle used to
cross-check the Groebner engine, and plain oracles for the monomial
order's sort key, the polynomial product, delta1, the Fedder survivor,
the printer's term order, the standard-monomial count, the packed term
layout, a weighted lead and the pair criteria;
a re-expansion check of residual certificates; seeded coordinate
changes that fix the origin; and diagonal hypersurfaces with their
closed-form F-purity.  Also the engine's views that only tests use: the
Buchberger criterion check, hand-built bases, Poly cofactors, the trace
u and a splitting's h.
"""

from __future__ import annotations

import itertools
import random
from operator import mul

import numpy as np

from fliftlab.fp_poly import (DegreeGuardError, Poly, PolyRing, dot,
                              grevlex_key)
from fliftlab.frobsplit import SplittingData, frobenius_decompose
from fliftlab.groebner import (GroebnerBasis, ModuleVector, MonomialOrder,
                               _coordinates, _packed, _prep_reducer,
                               _reduce_full, _shared_layout, _spair_terms,
                               normal_form_with_cofactors)


def order_key(order: MonomialOrder, mono: tuple[int, ...]) -> tuple:
    """The order on exponent tuples by its definition, as an ascending
    sort key: `grevlex_key`, after the weighted degree sum(w_v * a_v)
    under weights."""
    if order.weights is None:
        return grevlex_key(mono)
    return (sum(map(mul, order.weights, mono)), grevlex_key(mono))


def weighted_lead(f: Poly, weights) -> tuple[int, ...]:
    """f's lead under degrevlex weighted by `weights`, read off the
    engine's own packed layout, whose int order is the term order."""
    ring = f.ring
    layout = _shared_layout(ring.nvars, 0, MonomialOrder(tuple(weights)),
                            ring.max_degree)
    return max(f.terms, key=layout.enc)


def weighted_order(nvars: int) -> MonomialOrder:
    """A second order for tests that run under two: degrevlex weighted
    2*nvars - 1, ..., 3, 1, so x_0 is heaviest.  Its layout carries a
    weighted-degree field, and for nvars > 1 wider fields, that plain
    degrevlex lacks; a tail term can have a larger degree than its lead
    (x + y^2 leads with x when nvars = 2)."""
    return MonomialOrder(tuple(range(2 * nvars - 1, 0, -2)))


def random_poly(rng: random.Random, ring: PolyRing, max_terms: int = 5,
                max_degree: int = 6, allow_zero: bool = True) -> Poly:
    terms = {}
    n = ring.nvars
    lo = 0 if allow_zero else 1
    for _ in range(rng.randint(lo, max_terms)):
        mono = [0] * n
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            mono[rng.randrange(n)] += 1
        c = rng.randrange(1, ring.p) if ring.p > 2 else 1
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + c
    return ring.from_terms(terms)


def random_nonzero_poly(rng, ring, max_terms=5, max_degree=6) -> Poly:
    while True:
        f = random_poly(rng, ring, max_terms, max_degree, allow_zero=False)
        if not f.is_zero():
            return f


def naive_product(a: Poly, b: Poly) -> Poly:
    """Schoolbook product on exponent tuples."""
    p = a.ring.p
    out: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = (out.get(m, 0) + ca * cb) % p
    return a.ring.from_terms(out)


def delta1_walk(f: Poly) -> Poly:
    """Reference delta1: the divided Frobenius defect of f under the term
    decomposition, by a walk over the compositions of p into parts
    <= p-1 applied to the terms of f (terms carry their coefficients).
    A composition alpha contributes its monomial with the mod-p
    coefficient -(prod alpha_i!)^(-1), which equals
    (1/p)*multinomial(p; alpha) by Wilson's theorem.  About
    C(t+p-1, p) leaves for t terms.

    Zero and single-term inputs give 0 (no composition of p into one
    part <= p-1 exists).
    """
    ring = f.ring
    p = ring.p
    terms = list(f.terms.items())
    m = len(terms)
    if m < 2:
        return ring.zero()
    if f.total_degree() * p > ring.max_degree:
        raise DegreeGuardError(
            f"delta1 degree {f.total_degree() * p} exceeds guard {ring.max_degree}")
    fact = [1] * p
    for k in range(2, p):
        fact[k] = fact[k - 1] * k % p
    inv_fact = [pow(v, p - 2, p) for v in fact]
    n = ring.nvars
    out: dict[tuple[int, ...], int] = {}

    def emit(mono: tuple[int, ...], coeff: int) -> None:
        c = (out.get(mono, 0) - coeff) % p
        if c:
            out[mono] = c
        else:
            out.pop(mono, None)

    # iterative walk over compositions of p into parts <= p-1; a spent
    # budget finalizes immediately (all later parts are forced to zero)
    stack = [(0, p, (0,) * n, 1)]
    while stack:
        idx, remaining, mono, coeff = stack.pop()
        if remaining == 0:
            emit(mono, coeff)
            continue
        if idx == m - 1:
            if remaining <= p - 1:
                bmono, bc = terms[idx]
                nm = tuple(x + remaining * y for x, y in zip(mono, bmono))
                emit(nm, coeff * pow(bc, remaining, p) * inv_fact[remaining] % p)
            continue
        bmono, bc = terms[idx]
        stack.append((idx + 1, remaining, mono, coeff))
        for alpha in range(1, min(p - 1, remaining) + 1):
            nm = tuple(x + alpha * y for x, y in zip(mono, bmono))
            nc = coeff * pow(bc, alpha, p) * inv_fact[alpha] % p
            stack.append((idx + 1, remaining - alpha, nm, nc))
    return Poly._make(ring, out)


def find_fedder_survivor(h: Poly) -> tuple[int, ...] | None:
    """Largest (degrevlex) monomial of h with every exponent <= p-1, if
    any: the Fedder survivor, read off the Poly h."""
    low = [mono for mono in h.terms if max(mono) < h.ring.p]
    return max(low, key=grevlex_key, default=None)


def format_poly_by_grevlex_key(f: Poly) -> str:
    """Reference printer: terms sorted by the Python key `grevlex_key`,
    each factor written out as `v` or `v^e`, with no table of texts."""
    if f.is_zero():
        return "0"
    variables = f.ring.variables
    parts = []
    for mono in sorted(f.terms, key=grevlex_key, reverse=True):
        c = f.terms[mono]
        body = "*".join(v if e == 1 else f"{v}^{e}"
                        for v, e in zip(variables, mono) if e)
        if not body:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        else:
            parts.append(f"{c}*{body}")
    return " + ".join(parts)


def diagonal(exponents, p: int) -> Poly:
    """The Brieskorn-Pham hypersurface x0^a0 + x1^a1 + ... over F_p."""
    n = len(exponents)
    ring = PolyRing([f"x{i}" for i in range(n)], p)
    return ring.from_terms({tuple(a if j == i else 0 for j in range(n)): 1
                            for i, a in enumerate(exponents)})


def diagonal_is_fpure(exponents, p: int) -> bool:
    """Fedder's test on a diagonal f, in closed form: f^(p-1) is the sum of
    the multinomial terms x^(a*k) over sum(k) = p-1, each with a unit
    coefficient and all distinct, and one lies outside m^[p] iff some k
    has a_i*k_i <= p-1 for every i, that is iff
    sum floor((p-1)/a_i) >= p-1."""
    return sum((p - 1) // a for a in exponents) >= p - 1


def hand_built(generators, order, originals) -> GroebnerBasis:
    """A basis over `originals`, without a trace, whose elements are
    `generators` as given, neither checked nor made monic."""
    k = len(originals)
    ring, size, _, packed = _packed([*originals, *generators], order)
    basis = GroebnerBasis(ring, size, isinstance(originals[0], ModuleVector),
                          order, packed[:k], [_prep_reducer(g, ring.p)
                                              for g in packed[k:]], None)
    basis.generators = tuple(generators)  # not monic: never decoded
    return basis


def verify_buchberger(basis: GroebnerBasis) -> bool:
    """Re-check the Buchberger criterion: every S-polynomial (for a module,
    every S-vector of two leads at the same position) reduces to 0."""
    layout = basis._layout
    p = basis.ring.p
    for ri, rj in itertools.combinations(basis._reducers, 2):
        if ri[0] & layout.slot_mask != rj[0] & layout.slot_mask:
            continue
        lcm = layout.lcm(ri[0], rj[0])
        sterms = _spair_terms(ri, rj, lcm - ri[0], lcm - rj[0], p)
        if _reduce_full(sterms, basis._reducers, p, layout,
                        memo=basis._memo):
            return False
    return True


def expand(basis: GroebnerBasis, coeffs, frobenius=False) -> list[Poly]:
    """`basis.expand_packed` on Polys, in and out."""
    return [basis.unpack(c) for c in basis.expand_packed(
        [basis.pack(q) for q in coeffs], frobenius)]


def cofactors(basis: GroebnerBasis, f) -> list[Poly] | None:
    """Cofactors c_t with f = sum(c_t * original_generators[t]), re-checked,
    or None when f is not in the span; needs a basis built with track."""
    if basis.trace is None:
        raise ValueError("cofactors need a basis built with track=True")
    rem, quotients = normal_form_with_cofactors(f, basis)
    if not rem.is_zero():
        return None
    out = expand(basis, quotients)
    columns = [_coordinates(g) for g in basis.original_generators]
    for pos, want in enumerate(_coordinates(f)):
        if dot(out, [g[pos] for g in columns]) != want:
            raise RuntimeError("cofactor certificate failed re-expansion")
    return out


def unit_expansions(basis, frobenius: bool = False) -> list[list[Poly]]:
    """`expand` of each unit coefficient vector: the cofactors of each
    basis element over the original generators."""
    ring = basis.ring
    n = len(basis.generators)
    return [expand(basis, [ring.one() if i == k else ring.zero()
                           for i in range(n)], frobenius)
            for k in range(n)]


def trace_u(f: Poly) -> Poly:
    """The (p-1,...,p-1) component of the digit decomposition."""
    return frobenius_decompose(f).component((f.ring.p - 1,) * f.ring.nvars)


def splitting_h(split: SplittingData) -> Poly:
    """The multiplier h = power * x^((p-1) - anchor) of a splitting."""
    top = split.ring.p - 1
    moved = sum(map(mul, [top - e for e in split.anchor], split.packing[1]))
    return split.unpack({k + moved: c for k, c in split.power_terms.items()})


def combine(cofactors, gens, pos: int = 0) -> Poly:
    """Coordinate `pos` of sum(cofactors[t] * gens[t]), for polynomial or
    module-vector generators."""
    acc = cofactors[0].ring.zero()
    for c, g in zip(cofactors, gens):
        acc = acc + c * (g if isinstance(g, Poly) else g[pos])
    return acc


def membership_columns(gens: list[Poly]) -> list[list[Poly]]:
    """The columns a residual certificate expands over, in the documented
    cofactor order: the f_j e_i by (i, j), then w_k = ((df_i/dx_k)^p)_i
    for k = 1..n."""
    ring, m = gens[0].ring, len(gens)
    cols = [[f if t == i else ring.zero() for t in range(m)]
            for i in range(m) for f in gens]
    return cols + [[f.derivative(k).frobenius() for f in gens]
                   for k in range(ring.nvars)]


def check_reexpansion(gens: list[Poly], residuals, cofactors) -> int:
    """Assert that the cofactors re-expand the residual vector: at every
    coordinate i, sum(cofactors[t] * column_t[i]) == residuals[i], over
    `membership_columns`.  Uses polynomial arithmetic only, for any
    number m of generators; returns the cofactors' term count."""
    cols = membership_columns(gens)
    assert len(cofactors) == len(cols)
    for pos, r in enumerate(residuals):
        assert combine(cofactors, cols, pos) == r, pos
    return sum(len(c.terms) for c in cofactors)


def substitute(f: Poly, images) -> Poly:
    """f(images[0], ..., images[n-1]), one image per ambient variable."""
    ring = f.ring
    acc = ring.zero()
    for mono, c in f.terms.items():
        term = ring.from_int(c)
        for g, e in zip(images, mono):
            if e:
                term = term * g ** e
        acc = acc + term
    return acc


def random_automorphism(rng: random.Random, ring: PolyRing) -> list[Poly]:
    """The images of the variables under a seeded automorphism of
    F_p[x_1..x_n] (n >= 2) that fixes the origin: an invertible linear
    map l, then x_i -> l_i + c*l_j*l_k with j, k != i.

    l is a random row permutation of a unit lower triangular times an
    upper triangular matrix with a nonzero diagonal, so it is invertible.
    x_i -> l_i + c*l_j*l_k substitutes l into the elementary map
    x_i -> x_i + c*x_j*x_k (inverse x_i -> x_i - c*x_j*x_k), so it is
    invertible; l_i + c*x_j*x_k, the same steps in the other order, need
    not be.  No translation (it moves the singular point) and no unit
    multiplier (it changes the zero set).
    """
    n, p = ring.nvars, ring.p
    lower = [[int(i == j) if j >= i else rng.randrange(p) for j in range(n)]
             for i in range(n)]
    upper = [[rng.randrange(1, p) if j == i else
              rng.randrange(p) if j > i else 0 for j in range(n)]
             for i in range(n)]
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*upper)]
            for row in lower]
    rng.shuffle(rows)
    xs = ring.gens()
    lin = [sum((x * a for x, a in zip(xs, row)), ring.zero()) for row in rows]
    i = rng.randrange(n)
    others = [v for v in range(n) if v != i]
    j, k = rng.choice(others), rng.choice(others)
    lin[i] = lin[i] + lin[j] * lin[k] * rng.randrange(1, p)
    return lin


def box_standard_count(lms, nvars: int) -> int:
    """Standard monomials of a zero-dimensional monomial ideal, counted by
    walking the box below the pure powers."""
    bounds = [min(lm[v] for lm in lms
                  if lm[v] and all(e == 0 for k, e in enumerate(lm) if k != v))
              for v in range(nvars)]
    return sum(1 for mono in itertools.product(*(range(b) for b in bounds))
               if not any(all(x <= y for x, y in zip(lm, mono)) for lm in lms))


def check_packed_layout(rng: random.Random, order, slots: int,
                        nvars: int = 3, rounds: int = 150) -> None:
    """The packed layout of the Groebner engine against tuple definitions,
    on random slotted terms x^a e_i of degree up to the guard: order,
    products, divisibility, lcm and the round trip."""
    from fliftlab.groebner import _Layout

    for guard in (1, 5, 8, 10_000):
        layout = _Layout(nvars, slots, order, guard)

        def term():
            degree = rng.choice((rng.randint(0, guard), guard))
            cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
            mono = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
            pos = rng.randrange(slots) if slots else 0
            slot = tuple(int(k == pos) for k in range(slots))
            return pos, tuple(mono), slot + tuple(mono)

        def key(pos, mono):
            return (order_key(order, mono), -pos)

        for _ in range(rounds):
            (pa, ma, a), (pb, mb, b) = term(), term()
            ea, eb = layout.enc(a), layout.enc(b)
            assert layout.dec(ea) == a and layout.mono(ea) == ma
            assert (ea < eb) == (key(pa, ma) < key(pb, mb))
            assert (ea == eb) == (a == b)
            assert layout.divided(eb, [ea]) == all(map(int.__le__, a, b))
            if pa != pb:
                continue
            lcm = layout.lcm(ea, eb)
            want = tuple(map(max, ma, mb))
            assert layout.mono(lcm) == want
            assert layout.degree(lcm) == sum(want)
            assert layout.divided(lcm, [ea]) and layout.divided(lcm, [eb])
            (pc, mc, c) = term()
            assert layout.divided(lcm, [layout.enc(c)]) == (
                pc == pa and all(map(int.__le__, mc, want)))
            if sum(want) <= guard:
                assert lcm == layout.enc(a[:slots] + want)
            if sum(ma) + sum(mb) <= guard:
                shift = tuple(map(sum, zip(ma, mb)))
                assert ea + layout.enc((0,) * slots + mb) == \
                    layout.enc(a[:slots] + shift)
                assert layout.divided(ea + eb - (eb & layout.slot_mask), [ea])


def is_basis(leads, reduced_leads) -> bool:
    """Whether monomials `leads` generate the lead module of a reduced
    basis with leads `reduced_leads` (slotted exponent tuples): a list is
    a Groebner basis of its span iff this holds for its leads."""
    return all(any(all(map(int.__le__, a, b)) for a in leads)
               for b in reduced_leads)


def quadratic_new_pairs(layout, lms: list, kinds: list, active: list,
                        h: int) -> set:
    """Criteria M and F as first written, quadratic in the candidates:
    the (lcm, g) pairs that lms[h] keeps with the leads lms[g], g in
    `active`, at its position.  A candidate is kept unless a later
    candidate's lcm or an already kept lcm divides its own; a candidate
    that passes the product criterion is kept through the walk, since it
    may still prune others, and dropped after it.  By `kinds` (2 a
    monomial, 1 one-position, 0 spread) it passes when both leads are
    monomials or both one-position with the lcm their product, less one
    copy of the shared position slot."""
    lm = lms[h]
    pos = lm & layout.slot_mask
    cands = [(layout.lcm(lms[g], lm), g) for g in active
             if lms[g] & layout.slot_mask == pos]
    lcms = [lcm for lcm, _ in cands]
    kept: list = []
    new: set = set()
    for n, (lcm, g) in enumerate(cands):
        product = (kinds[g] == kinds[h] == 2 or
                   kinds[g] > 0 and kinds[h] > 0 and
                   lcm == lms[g] + lm - pos)
        if product or not (layout.divided(lcm, lcms[n + 1:]) or
                           layout.divided(lcm, kept)):
            kept.append(lcm)
            if not product:
                new.add((lcm, g))
    return new


def _monomials_up_to(n: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for total in range(degree + 1):
        for cuts in itertools.combinations(range(total + n - 1), n - 1):
            prev = -1
            mono = []
            for c in cuts:
                mono.append(c - prev - 1)
                prev = c
            mono.append(total + n - 2 - prev)
            out.append(tuple(mono))
    return out


def _solve_mod_p(a: np.ndarray, b: np.ndarray, p: int) -> bool:
    """Is the linear system a @ x = b solvable over F_p?"""
    a = a % p
    b = b % p
    rows, cols = a.shape
    aug = np.concatenate([a, b.reshape(-1, 1)], axis=1).astype(np.int64)
    pivot_row = 0
    for col in range(cols):
        pivots = np.nonzero(aug[pivot_row:, col])[0]
        if len(pivots) == 0:
            continue
        r = pivot_row + pivots[0]
        aug[[pivot_row, r]] = aug[[r, pivot_row]]
        inv = pow(int(aug[pivot_row, col]), p - 2, p)
        aug[pivot_row] = aug[pivot_row] * inv % p
        mask = np.nonzero(aug[:, col])[0]
        mask = mask[mask != pivot_row]
        if len(mask):
            aug[mask] = (aug[mask] - np.outer(aug[mask, col], aug[pivot_row])) % p
        pivot_row += 1
        if pivot_row == rows:
            break
    # inconsistent iff some row is (0 ... 0 | nonzero)
    lhs_zero = ~aug[:, :cols].any(axis=1)
    return not bool((lhs_zero & (aug[:, cols] != 0)).any())


def macaulay_membership(f: Poly, gens: list[Poly], cofactor_degree: int) -> bool:
    """Decide solvability of f = sum(c_i * g_i) with deg c_i bounded,
    by row reduction of the Macaulay matrix.  A True answer certifies
    ideal membership; False only bounds the cofactor degree.
    """
    ring = f.ring
    p = ring.p
    n = ring.nvars
    multipliers = _monomials_up_to(n, cofactor_degree)
    row_degree = cofactor_degree + max(
        [g.total_degree() for g in gens if not g.is_zero()] + [0])
    row_degree = max(row_degree, f.total_degree())
    rows = _monomials_up_to(n, row_degree)
    row_index = {m: i for i, m in enumerate(rows)}
    columns = []
    for g in gens:
        for mu in multipliers:
            col = np.zeros(len(rows), dtype=np.int64)
            for mono, c in g.terms.items():
                shifted = tuple(x + y for x, y in zip(mono, mu))
                col[row_index[shifted]] = c
            columns.append(col)
    if not columns:
        return f.is_zero()
    a = np.stack(columns, axis=1)
    b = np.zeros(len(rows), dtype=np.int64)
    for mono, c in f.terms.items():
        b[row_index[mono]] = c
    return _solve_mod_p(a, b, p)
