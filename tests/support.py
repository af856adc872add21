"""Shared test helpers: random polynomial generation, the dense
Macaulay-matrix membership oracle used to cross-check the Groebner
engine, and plain oracles for the polynomial product, the
standard-monomial count, the packed term layout and the pair criteria;
and a re-expansion check of residual certificates.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from fliftlab.fp_poly import Poly, PolyRing


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


def unit_expansions(basis, frobenius: bool = False) -> list[list[Poly]]:
    """`basis.expand` of each unit coefficient vector: the cofactors of
    each basis element over the original generators."""
    ring = basis.ring
    n = len(basis.generators)
    return [basis.expand([ring.one() if i == k else ring.zero()
                          for i in range(n)], frobenius)
            for k in range(n)]


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
            return (order.key(mono), -pos)

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
            if sum(ma) + sum(mb) <= guard or not layout.grevlex and \
                    max(map(sum, zip(ma, mb))) <= guard:
                shift = tuple(map(sum, zip(ma, mb)))
                assert ea + layout.enc((0,) * slots + mb) == \
                    layout.enc(a[:slots] + shift)
                assert layout.divided(ea + eb - (eb & layout.slot_mask), [ea])


def quadratic_new_pairs(layout, lms: list, active: list, h: int) -> set:
    """Criteria M and F as first written, quadratic in the candidates:
    the (lcm, g) pairs that lms[h] keeps with the leads lms[g], g in
    `active`.  A candidate is kept unless a later candidate's lcm or an
    already kept lcm divides its own; a coprime candidate is kept through
    the walk, since it may still prune others, and dropped after it."""
    lm = lms[h]
    pos = lm & layout.slot_mask
    cands = [(layout.lcm(lms[g], lm), g) for g in active
             if lms[g] & layout.slot_mask == pos]
    lcms = [lcm for lcm, _ in cands]
    kept: list = []
    new: set = set()
    for n, (lcm, g) in enumerate(cands):
        coprime = lcm == lms[g] + lm
        if coprime or not (layout.divided(lcm, lcms[n + 1:]) or
                           layout.divided(lcm, kept)):
            kept.append(lcm)
            if not coprime:
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
