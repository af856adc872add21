"""Buchberger-based Groebner engine for ideals in F_p[x] and submodules
of free modules.

One engine serves both.  A submodule of R^s with s > 1 runs on the ideal
code with each term x^a e_i written as s one-hot position slots followed
by a.  Inside the engine every term is one int in the packed layout of
`_Layout`, so a product is an addition and a divisibility test is a
subtract-and-mask; a lead divides only terms at its own position.  An
ideal is the rank-1 case and carries no slots.  Modules use the
term-over-position order (e_1 > e_2 > ...) under either monomial order.
Public names take and return exponent tuples.

Provides reduced bases, normal forms, membership tests with optional
cofactor certificates, zero-dimensionality and origin-support checks.
The default order is degrevlex; lex is available for debugging.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .fp_poly import (AmbientMismatchError, DegreeGuardError, Poly, PolyRing,
                      grevlex_key, lex_key)


@dataclass(frozen=True)
class MonomialOrder:
    """A multiplicative well-order on monomials; `key` sorts ascending."""

    name: str

    def key(self, mono: tuple[int, ...]) -> tuple:
        if self.name == "grevlex":
            return grevlex_key(mono)
        return lex_key(mono)


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")

_ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def order_by_name(name: str) -> MonomialOrder:
    try:
        return _ORDERS[name]
    except KeyError:
        raise ValueError(f"unknown monomial order {name!r}") from None


class _Layout:
    """Packed terms: a term with `slots` position slots and `nvars`
    exponents as one int of fixed-width fields (Bachmann and Schoenemann
    1998).

    From the lowest field up: the slots, position 0 highest; the
    exponents; under degrevlex the prefix sums a_0 + ... + a_(k-1) for
    k = 1..nvars, so the top field is the degree.  Under lex the
    exponents come a_0 highest.  Each field is `width` bits, and its top
    bit is a guard bit that no valid term sets.  The width comes from the
    degree guard: under lex a field holds any exponent up to the guard;
    under degrevlex it holds twice the guard, so that the lcm of two
    terms within the guard fits as well.  Then

    - plain `<` on the ints is the term order, monomial before position:
      (degree, prefix sums) is degrevlex and determines the exponents;
    - every field is linear in the exponents, so a product is `+` and the
      shift by a divisor is `-`;
    - a divides b iff ((b | guard) - a) & guard == guard: no field
      borrows past its guard bit, which stays set where b's field is at
      least a's;
    - the lcm takes each field from the side whose guard bit wins that
      compare; under degrevlex one multiply rebuilds the prefix sums.

    Packing raises DegreeGuardError for a monomial beyond the guard
    (degrevlex) or beyond a field (lex); a lex reduction term that grows
    past its field sets a guard bit and raises there, so no field ever
    wraps.
    """

    def __init__(self, nvars: int, slots: int, order: MonomialOrder,
                 max_degree: int):
        self.grevlex = order.name == "grevlex"
        w = (2 * max_degree if self.grevlex else max_degree).bit_length() + 1
        self.slots = slots
        self.max_degree = max_degree
        self.width = w
        self.cap = (1 << (w - 1)) - 1  # the largest value of a field
        nfields = slots + nvars * (2 if self.grevlex else 1)
        one = [1 << (f * w) for f in range(nfields)]
        self.guard = sum(one) << (w - 1)
        exp_field = [slots + k if self.grevlex else slots + nvars - 1 - k
                     for k in range(nvars)]
        self.units = ([one[slots - 1 - i] for i in range(slots)] +
                      [one[f] for f in exp_field])
        self._slot_shifts = [(slots - 1 - i) * w for i in range(slots)]
        self._exp_shifts = [f * w for f in exp_field]
        self.slot_mask = sum(one[:slots]) * self.cap
        self._low_mask = sum(one[:slots + nvars]) * self.cap
        self._exp_mask = self._low_mask - self.slot_mask
        self._prefix_mask = sum(one[slots + nvars:]) * self.cap
        # the exponent fields times this spread land on the prefix sums
        self._spread = sum(1 << (j * w) for j in range(nvars, 2 * nvars))
        self._top_shift = (nfields - 1) * w

    def enc(self, t: tuple[int, ...]) -> int:
        """Pack a slotted exponent tuple."""
        mono = t[self.slots:]
        if self.grevlex and sum(mono) > self.max_degree:
            raise DegreeGuardError(f"monomial degree {sum(mono)} exceeds "
                                   f"guard {self.max_degree}")
        if not self.grevlex and max(mono) > self.cap:
            raise DegreeGuardError(
                f"exponent {max(mono)} exceeds the packed field of degree "
                f"guard {self.max_degree}")
        return self._prefixed(sum(map(mul, t, self.units)))

    def _prefixed(self, m: int) -> int:
        """m with its prefix-sum fields rebuilt from its exponent fields."""
        if not self.grevlex:
            return m
        return (m & self._low_mask) + (
            (m & self._exp_mask) * self._spread & self._prefix_mask)

    def mono(self, t: int) -> tuple[int, ...]:
        """The exponents of a packed term, without its slots."""
        cap = self.cap
        return tuple((t >> s) & cap for s in self._exp_shifts)

    def dec(self, t: int) -> tuple[int, ...]:
        """The slotted exponent tuple of a packed term."""
        return tuple((t >> s) & 1 for s in self._slot_shifts) + self.mono(t)

    def enc_terms(self, terms: dict) -> dict:
        return {self.enc(m): c for m, c in terms.items()}

    def dec_terms(self, terms: dict) -> dict:
        return {self.dec(m): c for m, c in terms.items()}

    def degree(self, t: int) -> int:
        """Degree of the monomial of a packed term; slots do not count."""
        if self.grevlex:
            return t >> self._top_shift
        return sum(self.mono(t))

    def divided(self, m: int, divisors: list, start: int = 0) -> bool:
        """Whether some divisors[k], k >= start, divides m."""
        guard = self.guard
        mg = m | guard
        for k in range(start, len(divisors)):
            if (mg - divisors[k]) & guard == guard:
                return True
        return False

    def lcm(self, a: int, b: int) -> int:
        ge = ((a | self.guard) - b) & self.guard
        return self._prefixed(b ^ ((a ^ b) & (ge - (ge >> (self.width - 1)))))


def _reduce_full(fterms: dict, reducers: list, p: int, layout: _Layout,
                 quotients: list[dict] | None = None,
                 memo: dict | None = None) -> dict:
    """Full normal form of a packed term dict against prepared reducers.

    Each reducer is (lead, inverse of the lead coefficient, tail items),
    all terms packed.  The largest remaining term is taken from a heap of
    negated terms and divided by the first reducer in list order whose
    lead divides it.  Every term enters the heap once: one that cancels
    stays in the working dict at 0 until it is popped.  When `quotients`
    is given (one dict per reducer) the division is tracked so that
    input = sum(quotient_i * reducer_i) + remainder.  A new term that
    overflows the packed fields, as lex reductions can climb in degree,
    raises DegreeGuardError.

    `memo` maps a term to where its divisor search resumes: the index of
    its first dividing reducer, or the list length after a miss.  It
    holds across calls while the list only grows by appending and an
    entry is replaced only by one with the same lead, so a caller keeps
    one memo per reducer list.
    """
    guard = layout.guard
    if memo is None:
        memo = {}
    nred = len(reducers)
    work = dict(fterms)
    heap = [-m for m in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    rem: dict = {}
    while heap:
        m = -pop(heap)
        c = work.pop(m)
        if not c:
            continue
        mg = m | guard
        hit = memo.get(m, 0)
        while hit < nred and (mg - reducers[hit][0]) & guard != guard:
            hit += 1
        memo[m] = hit
        if hit == nred:
            rem[m] = c
            continue
        lm, lc_inv, tail = reducers[hit]
        factor = c * lc_inv % p
        shift = m - lm
        if quotients is not None:
            q = quotients[hit]
            q[shift] = (q.get(shift, 0) + factor) % p
        for tm, tc in tail:
            mm = tm + shift
            prev = work.get(mm)
            if prev is None:
                if mm & guard:
                    raise DegreeGuardError(
                        "a reduction term exceeds the packed fields of "
                        f"degree guard {layout.max_degree}")
                work[mm] = -factor * tc % p
                push(heap, -mm)
            else:
                work[mm] = (prev - factor * tc) % p
    return rem


def _prep_reducer(terms: dict, p: int) -> tuple:
    lm = max(terms)
    tail = tuple((m, c) for m, c in terms.items() if m != lm)
    return (lm, pow(terms[lm], p - 2, p), tail)


def _monic(terms: dict, p: int) -> tuple[int, int, dict]:
    """(lead, inverse of the leading coefficient, monic terms)."""
    lm = max(terms)
    inv = pow(terms[lm], p - 2, p)
    return lm, inv, {m: c * inv % p for m, c in terms.items()}


def _poly(layout: _Layout, ring: PolyRing, terms: dict) -> Poly:
    """The polynomial of a packed shift or quotient dict (slots all 0)."""
    return Poly._make(ring, {layout.mono(m): c for m, c in terms.items()})


class GroebnerBasis:
    """A reduced, monic Groebner basis with a fixed monomial order.

    `reprs`, when present, expresses each generator as a combination of
    `original_generators` (cofactor tracking).  `reducers`, when given,
    are the engine's prepared reducers of `generators`; every reduction
    against them shares one divisor memo (see `_reduce_full`).
    """

    _slots = 0

    def __init__(self, generators: Sequence, order: MonomialOrder,
                 original_generators: Sequence,
                 reprs: Sequence[Sequence[Poly]] | None = None,
                 reducers: list[tuple] | None = None):
        self.generators = tuple(generators)
        self.order = order
        self.original_generators = tuple(original_generators)
        self.reprs = tuple(tuple(r) for r in reprs) if reprs is not None else None
        self.ring = self.generators[0].ring if self.generators else (
            self.original_generators[0].ring)
        self._layout = _Layout(self.ring.nvars, self._slots, order,
                               self.ring.max_degree)
        if reducers is None:
            reducers = [_prep_reducer(self._encode(g), self.ring.p)
                        for g in self.generators]
        self._reducers = reducers
        self._memo: dict = {}
        self.leading_monomials = tuple(self._layout.dec(r[0])
                                       for r in reducers)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def contains_one(self) -> bool:
        zero = (0,) * self.ring.nvars
        return any(lm == zero for lm in self.leading_monomials)

    # An element of the span as the engine's packed term dict, and back.
    def _encode(self, f: Poly) -> dict:
        return self._layout.enc_terms(f.terms)

    def _decode(self, terms: dict, ring: PolyRing) -> Poly:
        return Poly._make(ring, self._layout.dec_terms(terms))

    def cofactors(self, f) -> list[Poly] | None:
        """Cofactors c_t with f = sum(c_t * original_generators[t]), or None
        when f is not in the span.  The expansion is re-checked before
        returning.  The basis must have been built with track=True.
        """
        if self.reprs is None:
            raise ValueError("cofactors need a basis built with track=True")
        quotients: list[dict] = [{} for _ in self.generators]
        if not _normal_form(f, self, quotients).is_zero():
            return None
        ring = f.ring
        cofactors = _express(quotients, self.reprs, ring, self._layout)
        columns = [_coordinates(g) for g in self.original_generators]
        for pos, want in enumerate(_coordinates(f)):
            acc = ring.zero()
            for c, g in zip(cofactors, columns):
                acc = acc + c * g[pos]
            if acc != want:
                raise RuntimeError("cofactor certificate failed re-expansion")
        return cofactors


def _coordinates(f) -> tuple[Poly, ...]:
    return f.coordinates if isinstance(f, ModuleVector) else (f,)


def _normal_form(f, basis: GroebnerBasis, quotients: list[dict] | None = None):
    if not basis.ring.same_ambient(f.ring):
        raise AmbientMismatchError("polynomial and basis ambients differ")
    rem = _reduce_full(basis._encode(f), basis._reducers, f.ring.p,
                       basis._layout, quotients, basis._memo)
    return basis._decode(rem, f.ring)


def normal_form(f: Poly, basis: GroebnerBasis) -> Poly:
    """Remainder of f on division by the basis; unique for a reduced basis."""
    return _normal_form(f, basis)


def normal_form_with_cofactors(f: Poly, basis: GroebnerBasis) -> tuple[Poly, list[Poly]]:
    """Normal form plus quotients q_i with f = sum(q_i g_i) + remainder."""
    quotients: list[dict] = [{} for _ in basis.generators]
    rem = _normal_form(f, basis, quotients)
    return rem, [_poly(basis._layout, f.ring, q) for q in quotients]


def reduce_by_generators(f: Poly, gens: Sequence[Poly],
                         order: MonomialOrder = GREVLEX) -> Poly:
    """Divide f by an arbitrary generator list (no basis completion).

    The remainder is not unique unless the list is a Groebner basis, but a
    zero remainder always proves membership in the generated ideal.
    """
    ring = f.ring
    layout = _Layout(ring.nvars, 0, order, ring.max_degree)
    reducers = [_prep_reducer(layout.enc_terms(g.terms), ring.p)
                for g in gens if not g.is_zero()]
    rem = _reduce_full(layout.enc_terms(f.terms), reducers, ring.p, layout)
    return Poly._make(ring, layout.dec_terms(rem))


def _spair_terms(fi: dict, fj: dict, si: int, sj: int, p: int,
                 layout: _Layout) -> dict:
    """x^si*fi - x^sj*fj for monic fi, fj, whose leads then cancel."""
    out: dict = {}
    for m, c in fi.items():
        mm = m + si
        out[mm] = (out.get(mm, 0) + c) % p
    for m, c in fj.items():
        mm = m + sj
        out[mm] = (out.get(mm, 0) - c) % p
    if any(m & layout.guard for m in out):
        raise DegreeGuardError(
            "an S-polynomial term exceeds the packed fields of degree "
            f"guard {layout.max_degree}")
    return {m: c for m, c in out.items() if c}


def _express(quotients: list[dict], reprs: Sequence[Sequence[Poly]],
             ring: PolyRing, layout: _Layout) -> list[Poly]:
    """sum(q_k * reprs[k]) coordinate by coordinate: the expression in the
    original generators of sum(q_k * g_k) when reprs[k] expresses g_k."""
    out = [ring.zero()] * len(reprs[0])
    for q, rep in zip(quotients, reprs):
        if not q:
            continue
        qp = _poly(layout, ring, q)
        for t, r in enumerate(rep):
            if not r.is_zero():
                out[t] = out[t] + qp * r
    return out


def _common_ring(gens: Sequence) -> PolyRing:
    if not gens:
        raise ValueError("generator list must be nonempty")
    ring = gens[0].ring
    for g in gens[1:]:
        if not g.ring.same_ambient(ring):
            raise AmbientMismatchError("generators live in different ambients")
    return ring


def _groebner(gens: list[dict], ring: PolyRing, layout: _Layout,
              track: bool, known_gb_prefix: int = 0
              ) -> tuple[list[tuple], list[list[Poly]] | None]:
    """Buchberger's algorithm on packed term dicts (see `_Layout`).

    Returns the prepared reducers (lead, 1, tail) of the reduced basis,
    largest lead first, and with `track` each element's expression in
    the generators.  Pairs are pruned once, when an element joins, by the
    Gebauer-Moeller update (Gebauer and Moeller 1988, as UPDATE in Becker
    and Weispfenning 1993): a new pair is kept only if no other new
    pair's lcm divides its lcm (criteria M and F), an old pair is dropped
    when the new lead divides its lcm strictly on both sides (criterion
    B_k), and an element whose lead the new lead divides takes no further
    pairs.  Pairs form only between leads at the same position.  The
    coprime criterion acts at rank 1 only: slotted terms at one position
    are never coprime, as their lead product has a slot of 2.  Every
    basis element carries one prepared reducer, built when it joins, and
    all S-pair reductions share one divisor memo.  The pair heap pops the
    smallest lcm first, ties by index; leads, lcms and shifts stay packed
    throughout, and only `track` decodes shifts and quotients into
    polynomials.
    """
    p = ring.p
    ngens = len(gens)
    slot_mask = layout.slot_mask
    guard = layout.guard
    lcm_of = layout.lcm
    divided = layout.divided

    basis: list[dict] = []
    lms: list[int] = []
    reducers: list[tuple] = []  # (lead, 1, tail) of each monic element
    reprs: list[list[Poly]] = []
    active: list[int] = []  # elements whose lead no later lead divides
    pairs: list[tuple] = []  # heap of (lcm, i, j)
    memo: dict = {}  # the divisor memo of `reducers`

    def update(h: int, lm: int, seed: bool) -> None:
        nonlocal pairs, active
        if not seed:
            pos = lm & slot_mask
            cands = [(lcm_of(lms[g], lm), g) for g in active
                     if lms[g] & slot_mask == pos]
            lcms = [lcm for lcm, _ in cands]
            # criteria M and F; a coprime pair is kept through this step,
            # since it may still prune others, and dropped only after it
            kept: list[int] = []
            new: list[tuple] = []
            for n, (lcm, g) in enumerate(cands):
                coprime = lcm == lms[g] + lm
                if coprime or not (divided(lcm, lcms, n + 1) or
                                   divided(lcm, kept)):
                    kept.append(lcm)
                    if not coprime:
                        new.append((lcm, g, h))
            # criterion B_k on the old pairs; the heap is rebuilt only
            # when it loses a pair
            npairs = len(pairs)
            pairs = [e for e in pairs
                     if ((e[0] | guard) - lm) & guard != guard or
                     lcm_of(lms[e[1]], lm) == e[0] or
                     lcm_of(lms[e[2]], lm) == e[0]]
            if len(pairs) == npairs:
                for e in new:
                    heapq.heappush(pairs, e)
            else:
                pairs.extend(new)
                heapq.heapify(pairs)
        active = [g for g in active
                  if ((lms[g] | guard) - lm) & guard != guard]
        active.append(h)

    def add(lm: int, monic: dict, seed: bool = False) -> None:
        basis.append(monic)
        lms.append(lm)
        reducers.append((lm, 1, tuple(
            (m, c) for m, c in monic.items() if m != lm)))
        update(len(basis) - 1, lm, seed)

    for i, g in enumerate(gens):
        if not g:
            continue
        lm, inv, monic = _monic(g, p)
        if track:
            reprs.append([ring.from_int(inv) if j == i else ring.zero()
                          for j in range(ngens)])
        add(lm, monic, seed=i < known_gb_prefix)
    if not basis:
        raise ValueError("all generators are zero")

    while pairs:
        lcm, i, j = heapq.heappop(pairs)
        degree = layout.degree(lcm)
        if degree > ring.max_degree:
            raise DegreeGuardError(
                f"S-pair ({i}, {j}) with lcm degree {degree} exceeds "
                f"guard {ring.max_degree}")
        si, sj = lcm - lms[i], lcm - lms[j]
        sterms = _spair_terms(basis[i], basis[j], si, sj, p, layout)
        quotients = [{} for _ in basis] if track else None
        rem = _reduce_full(sterms, reducers, p, layout, quotients, memo)
        if not rem:
            continue
        lm, inv, new = _monic(rem, p)
        if track:
            # s-poly = shift_i*basis[i] - shift_j*basis[j]; remainder =
            # s-poly - sum(q_k basis[k]); everything scaled by inv.
            shift_i = _poly(layout, ring, {si: 1})
            shift_j = _poly(layout, ring, {sj: 1})
            reduced = _express(quotients, reprs, ring, layout)
            reprs.append([(shift_i * a - shift_j * b - r).scale(inv)
                          for a, b, r in zip(reprs[i], reprs[j], reduced)])
        add(lm, new)

    return _interreduce(reducers, reprs if track else None, ring, layout,
                        active)


def _interreduce(reducers: list[tuple], reprs: list[list[Poly]] | None,
                 ring: PolyRing, layout: _Layout, active: list[int]
                 ) -> tuple[list[tuple], list[list[Poly]] | None]:
    """The reducers of the reduced basis, largest lead first, from the
    prepared reducers (lead, 1, tail) of a monic Groebner basis, with the
    expressions `reprs` carried along.

    `active` lists the elements whose lead no later lead divides; their
    leads are distinct and generate the lead ideal.  Minimalization walks
    them from the smallest lead up and keeps each one that no kept lead
    divides: a divisor is never larger, so the minimal generators are
    met first.  The tail reductions share one divisor memo.
    """
    p = ring.p
    kept: list[int] = []
    keep: list[int] = []
    for i in sorted(active, key=lambda i: reducers[i][0]):
        lm = reducers[i][0]
        if not layout.divided(lm, kept):
            kept.append(lm)
            keep.append(i)
    keep.reverse()
    reducers = [reducers[i] for i in keep]
    if reprs is not None:
        reprs = [reprs[i] for i in keep]

    # Tail-reduce from the smallest lead up.  A tail term is smaller than
    # its own lead, so only smaller, already reduced elements divide it
    # and one pass suffices; the lead and its coefficient 1 stay.
    memo: dict = {}
    for i in range(len(reducers) - 1, -1, -1):
        lm, _, tail = reducers[i]
        tail = dict(tail)
        quotients = [{} for _ in reducers] if reprs is not None else None
        rem = _reduce_full(tail, reducers, p, layout, quotients, memo)
        if rem == tail:
            continue
        reducers[i] = (lm, 1, tuple(rem.items()))
        if reprs is not None:
            reduced = _express(quotients, reprs, ring, layout)
            reprs[i] = [a - r for a, r in zip(reprs[i], reduced)]
    return reducers, reprs


def _basis(cls, gens: list, order: MonomialOrder, track: bool,
           known_gb_prefix: int = 0) -> GroebnerBasis:
    """Run the engine on `gens` and return the reduced basis as a `cls`:
    encode at entry, decode the basis at exit."""
    shell = cls([], order, gens)
    reducers, reprs = _groebner([shell._encode(g) for g in gens], shell.ring,
                                shell._layout, track, known_gb_prefix)
    generators = [shell._decode({lm: 1, **dict(tail)}, shell.ring)
                  for lm, _, tail in reducers]
    return cls(generators, order, gens, reprs, reducers)


def buchberger(gens: Sequence[Poly], order: MonomialOrder = GREVLEX, *,
               track: bool = False, known_gb_prefix: int = 0) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`.

    Pair selection follows the normal strategy (smallest lcm in the order,
    ties by input index).  The Gebauer-Moeller update prunes pairs once,
    as each element joins, and the coprime (product) criterion drops
    pairs of ideal leads; see `_groebner`.  The degree guard checks every
    pair that survives.  Deterministic for a fixed input sequence.

    `known_gb_prefix` marks the first k generators as a Groebner basis of
    the subideal they generate, so their mutual S-pairs are skipped.
    With `track=True` every basis element carries its expression in the
    original generators.
    """
    gens = list(gens)
    _common_ring(gens)
    return _basis(GroebnerBasis, gens, order, track, known_gb_prefix)


def verify_buchberger(basis: GroebnerBasis) -> bool:
    """Re-check the Buchberger criterion: every S-polynomial (for a module,
    every S-vector of two leads at the same position) reduces to 0."""
    layout = basis._layout
    p = basis.ring.p
    lms = [r[0] for r in basis._reducers]
    terms = [basis._encode(g) for g in basis.generators]
    for i, j in itertools.combinations(range(len(terms)), 2):
        if lms[i] & layout.slot_mask != lms[j] & layout.slot_mask:
            continue
        lcm = layout.lcm(lms[i], lms[j])
        sterms = _spair_terms(terms[i], terms[j], lcm - lms[i], lcm - lms[j],
                              p, layout)
        if _reduce_full(sterms, basis._reducers, p, layout,
                        memo=basis._memo):
            return False
    return True


def _membership(f, basis: GroebnerBasis, certificate: bool):
    if not certificate:
        return _normal_form(f, basis).is_zero()
    cofactors = basis.cofactors(f)
    return cofactors is not None, cofactors


def ideal_membership(f: Poly, gens: Sequence[Poly],
                     order: MonomialOrder = GREVLEX, *,
                     certificate: bool = False):
    """Decide f in (gens).  With `certificate=True` returns
    (bool, cofactors) where f = sum(cofactor_i * gens_i); the expansion is
    re-checked before returning.
    """
    return _membership(f, buchberger(gens, order, track=certificate),
                       certificate)


def is_zero_dimensional(basis: GroebnerBasis) -> bool:
    """True iff every variable has a pure power among the leading monomials."""
    if basis.contains_one():
        return True
    n = basis.ring.nvars
    for v in range(n):
        if not any(lm[v] and all(e == 0 for k, e in enumerate(lm) if k != v)
                   for lm in basis.leading_monomials):
            return False
    return True


def _standard_count(lms: list[tuple[int, ...]], nvars: int) -> int:
    """Monomials in nvars variables that no monomial of `lms` divides, for
    a zero-dimensional monomial ideal.  Which leads can divide x_0^a * m
    changes only at their own first exponents, so each segment of a
    between two of them contributes its length times the count for the
    remaining variables."""
    if any(not any(lm) for lm in lms):
        return 0
    if nvars == 0:
        return 1
    cuts = sorted({0, *(lm[0] for lm in lms)})
    return sum((hi - lo) * _standard_count(
        [lm[1:] for lm in lms if lm[0] <= lo], nvars - 1)
        for lo, hi in zip(cuts, cuts[1:]))


def quotient_dimension(basis: GroebnerBasis) -> int:
    """Number of standard monomials (k-dimension of the quotient ring)."""
    if basis.contains_one():
        return 0
    if not is_zero_dimensional(basis):
        raise ValueError("quotient is infinite-dimensional")
    return _standard_count(list(basis.leading_monomials), basis.ring.nvars)


def supported_only_at_origin(basis: GroebnerBasis) -> bool:
    """True iff x_i^D lies in the ideal for every variable, D the quotient
    dimension; equivalently the zero locus is (at most) the origin.

    Powers are walked by repeated squaring of normal forms, which decides
    the same predicate with early exit.
    """
    d = quotient_dimension(basis)
    if d == 0:
        return True
    ring = basis.ring
    for v in range(ring.nvars):
        t = normal_form(ring.variable(v), basis)
        e = 1
        while not t.is_zero() and e < d:
            t = normal_form(t * t, basis)
            e *= 2
        if not t.is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# Submodules of free modules R^s: thin wrappers that encode vectors for the
# engine above and decode its results.


def _slot_count(size: int) -> int:
    """Position slots for vectors of `size` coordinates; rank 1 needs none."""
    return size if size > 1 else 0


class ModuleVector:
    """An element of a free module R^s: a fixed-length tuple of polynomials."""

    __slots__ = ("coordinates", "ring")

    def __init__(self, coordinates: Sequence[Poly]):
        coords = tuple(coordinates)
        if not coords:
            raise ValueError("module vectors need at least one coordinate")
        ring = coords[0].ring
        for c in coords[1:]:
            if not c.ring.same_ambient(ring):
                raise AmbientMismatchError("coordinates live in different ambients")
        self.coordinates = coords
        self.ring = ring

    def __len__(self):
        return len(self.coordinates)

    def __iter__(self):
        return iter(self.coordinates)

    def __getitem__(self, i):
        return self.coordinates[i]

    def __eq__(self, other):
        return isinstance(other, ModuleVector) and self.coordinates == other.coordinates

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coordinates)

    def _terms(self) -> dict:
        """Slotted terms: x^a e_i becomes (slots of i) + a."""
        slots = _slot_count(len(self.coordinates))
        out = {}
        for pos, poly in enumerate(self.coordinates):
            slot = tuple(int(k == pos) for k in range(slots))
            for m, c in poly.terms.items():
                out[slot + m] = c
        return out

    @classmethod
    def _from_terms(cls, terms: dict, ring: PolyRing, size: int) -> "ModuleVector":
        slots = _slot_count(size)
        coords = [dict() for _ in range(size)]
        for t, c in terms.items():
            coords[t.index(1) if slots else 0][t[slots:]] = c
        return cls([Poly._make(ring, d) for d in coords])

    def __repr__(self):
        return "ModuleVector(" + ", ".join(str(c) for c in self.coordinates) + ")"


class ModuleGroebnerBasis(GroebnerBasis):
    """Reduced basis of a submodule of R^s under term-over-position order.

    `generators` and `original_generators` are ModuleVectors; the leading
    monomials are slotted exponent tuples.
    """

    @property
    def size(self) -> int:
        return len(self.original_generators[0])

    @property
    def _slots(self) -> int:
        return _slot_count(self.size)

    def _encode(self, v: ModuleVector) -> dict:
        if len(v) != self.size:
            raise ValueError("coordinate-count mismatch")
        return self._layout.enc_terms(v._terms())

    def _decode(self, terms: dict, ring: PolyRing) -> ModuleVector:
        return ModuleVector._from_terms(self._layout.dec_terms(terms), ring,
                                        self.size)


def module_buchberger(gens: Sequence[ModuleVector],
                      order: MonomialOrder = GREVLEX, *,
                      track: bool = False) -> ModuleGroebnerBasis:
    """Reduced basis of the submodule of R^s generated by `gens`, computed
    by the ideal engine on slotted terms (see `buchberger`)."""
    gens = list(gens)
    _common_ring(gens)
    size = len(gens[0])
    if any(len(g) != size for g in gens):
        raise ValueError("coordinate-count mismatch between generators")
    return _basis(ModuleGroebnerBasis, gens, order, track)


def module_normal_form(v: ModuleVector, basis: ModuleGroebnerBasis) -> ModuleVector:
    return _normal_form(v, basis)


def module_membership(v: ModuleVector, gens: Sequence[ModuleVector],
                      order: MonomialOrder = GREVLEX, *,
                      certificate: bool = False):
    """Decide whether v lies in the submodule of R^s generated by gens;
    with `certificate=True` as `ideal_membership`."""
    return _membership(v, module_buchberger(gens, order, track=certificate),
                       certificate)
