"""Buchberger-based Groebner engine for ideals in F_p[x] and submodules
of free modules.

One engine serves both.  A submodule of R^s with s > 1 runs on the ideal
code with each term x^a e_i encoded as one tuple: s one-hot position
slots followed by a.  Divisibility, shifts and lcms then need no special
case, and a lead divides only terms at its own position.  An ideal is
the rank-1 case and carries no slots.  Modules use the term-over-position
order (e_1 > e_2 > ...) under either monomial order.

Provides reduced bases, normal forms, membership tests with optional
cofactor certificates, zero-dimensionality and origin-support checks.
The default order is degrevlex; lex is available for debugging.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
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

    def nkey(self, mono: tuple[int, ...]) -> tuple:
        """Inverted key: min-heap on nkey pops the largest monomial first."""
        if self.name == "grevlex":
            return (-sum(mono), mono[::-1])
        return tuple(-e for e in mono)


GREVLEX = MonomialOrder("grevlex")
LEX = MonomialOrder("lex")

_ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def order_by_name(name: str) -> MonomialOrder:
    try:
        return _ORDERS[name]
    except KeyError:
        raise ValueError(f"unknown monomial order {name!r}") from None


class _LexThenPosition:
    """Lex on the monomial part, then the position, for terms with `slots`
    position slots in front; plain lex would compare the position first.
    Degrevlex on such terms is term-over-position as it stands: the slots
    add 1 to every degree and come last in its reverse scan."""

    name = "lex"

    def __init__(self, slots: int):
        self.key = lambda t: t[slots:] + t[:slots]
        self.nkey = lambda t: tuple(-e for e in t[slots:] + t[:slots])


def _term_order(order: MonomialOrder, slots: int):
    return _LexThenPosition(slots) if slots and order.name == "lex" else order


def _lead(terms: dict, order: MonomialOrder) -> tuple[tuple[int, ...], int]:
    lm = max(terms, key=order.key)
    return lm, terms[lm]


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _mono_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def _mono_div(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def _reduce_full(fterms: dict, reducers: list, p: int, order: MonomialOrder,
                 quotients: list[dict] | None = None) -> dict:
    """Full normal form of a term dict against prepared reducers.

    Each reducer is (lm, lc_inv, tail_items).  When `quotients` is given
    (one dict per reducer) the division is tracked so that
    input = sum(quotient_i * reducer_i) + remainder.
    """
    nkey = order.nkey
    work = dict(fterms)
    heap = [(nkey(m), m) for m in work]
    heapq.heapify(heap)
    rem: dict = {}
    while heap:
        _, m = heapq.heappop(heap)
        c = work.get(m)
        if not c:
            continue
        hit = -1
        for idx, (lm, _, _) in enumerate(reducers):
            if _divides(lm, m):
                hit = idx
                break
        if hit < 0:
            rem[m] = c
            del work[m]
            continue
        del work[m]
        lm, lc_inv, tail = reducers[hit]
        factor = c * lc_inv % p
        shift = _mono_div(m, lm)
        if quotients is not None:
            q = quotients[hit]
            q[shift] = (q.get(shift, 0) + factor) % p
        for tm, tc in tail:
            mm = _mono_mul(tm, shift)
            prev = work.get(mm)
            if prev is None:
                cc = -factor * tc % p
                if cc:
                    work[mm] = cc
                    heapq.heappush(heap, (nkey(mm), mm))
            else:
                cc = (prev - factor * tc) % p
                if cc:
                    work[mm] = cc
                else:
                    del work[mm]
    return rem


def _prep_reducer(terms: dict, order: MonomialOrder, p: int) -> tuple:
    lm, lc = _lead(terms, order)
    tail = tuple((m, c) for m, c in terms.items() if m != lm)
    return (lm, pow(lc, p - 2, p), tail)


def _monic(terms: dict, order: MonomialOrder, p: int) -> tuple[tuple, int, dict]:
    """(leading monomial, inverse of the leading coefficient, monic terms)."""
    lm, lc = _lead(terms, order)
    inv = pow(lc, p - 2, p)
    return lm, inv, {m: c * inv % p for m, c in terms.items()}


def _poly(ring: PolyRing, terms: dict, slots: int) -> Poly:
    """The polynomial of a shift or quotient dict, whose slots are all 0."""
    return Poly._make(ring, {m[slots:]: c for m, c in terms.items()}
                      if slots else terms)


class GroebnerBasis:
    """A reduced, monic Groebner basis with a fixed monomial order.

    `reprs`, when present, expresses each generator as a combination of
    `original_generators` (cofactor tracking).
    """

    _slots = 0

    def __init__(self, generators: Sequence, order: MonomialOrder,
                 original_generators: Sequence,
                 reprs: Sequence[Sequence[Poly]] | None = None):
        self.generators = tuple(generators)
        self.order = order
        self.original_generators = tuple(original_generators)
        self.reprs = tuple(tuple(r) for r in reprs) if reprs is not None else None
        self.ring = self.generators[0].ring if self.generators else (
            self.original_generators[0].ring)
        self._order = _term_order(order, self._slots)
        p = self.ring.p
        self._reducers = [_prep_reducer(self._encode(g), self._order, p)
                          for g in self.generators]
        self.leading_monomials = tuple(r[0] for r in self._reducers)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def contains_one(self) -> bool:
        zero = (0,) * self.ring.nvars
        return any(lm == zero for lm in self.leading_monomials)

    # An element of the span as the engine's term dict, and back.
    def _encode(self, f: Poly) -> dict:
        return f.terms

    def _decode(self, terms: dict, ring: PolyRing) -> Poly:
        return Poly._make(ring, terms)

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
        cofactors = _express(quotients, self.reprs, ring, self._slots)
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
                       basis._order, quotients)
    return basis._decode(rem, f.ring)


def normal_form(f: Poly, basis: GroebnerBasis) -> Poly:
    """Remainder of f on division by the basis; unique for a reduced basis."""
    return _normal_form(f, basis)


def normal_form_with_cofactors(f: Poly, basis: GroebnerBasis) -> tuple[Poly, list[Poly]]:
    """Normal form plus quotients q_i with f = sum(q_i g_i) + remainder."""
    quotients: list[dict] = [{} for _ in basis.generators]
    rem = _normal_form(f, basis, quotients)
    return rem, [Poly._make(f.ring, q) for q in quotients]


def reduce_by_generators(f: Poly, gens: Sequence[Poly],
                         order: MonomialOrder = GREVLEX) -> Poly:
    """Divide f by an arbitrary generator list (no basis completion).

    The remainder is not unique unless the list is a Groebner basis, but a
    zero remainder always proves membership in the generated ideal.
    """
    p = f.ring.p
    reducers = [_prep_reducer(g.terms, order, p) for g in gens if not g.is_zero()]
    rem = _reduce_full(f.terms, reducers, p, order)
    return Poly._make(f.ring, rem)


def _spair_terms(fi: dict, fj: dict, lmi, lmj, p):
    lcm = _mono_lcm(lmi, lmj)
    si = _mono_div(lcm, lmi)
    sj = _mono_div(lcm, lmj)
    # both inputs are monic, so the S-polynomial is x^si*fi - x^sj*fj
    out: dict = {}
    for m, c in fi.items():
        mm = _mono_mul(m, si)
        out[mm] = (out.get(mm, 0) + c) % p
    for m, c in fj.items():
        mm = _mono_mul(m, sj)
        out[mm] = (out.get(mm, 0) - c) % p
    return {m: c for m, c in out.items() if c}, si, sj


def _express(quotients: list[dict], reprs: Sequence[Sequence[Poly]],
             ring: PolyRing, slots: int) -> list[Poly]:
    """sum(q_k * reprs[k]) coordinate by coordinate: the expression in the
    original generators of sum(q_k * g_k) when reprs[k] expresses g_k."""
    out = [ring.zero()] * len(reprs[0])
    for q, rep in zip(quotients, reprs):
        if not q:
            continue
        qp = _poly(ring, q, slots)
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


def _groebner(gens: list[dict], ring: PolyRing, order, slots: int,
              track: bool, known_gb_prefix: int = 0
              ) -> tuple[list[dict], list[list[Poly]] | None]:
    """Buchberger's algorithm on term dicts with `slots` position slots.

    Returns the reduced basis, largest lead first, and with `track` each
    element's expression in the generators.  Pairs are pruned once, when
    an element joins, by the Gebauer-Moeller update (Gebauer and Moeller
    1988, as UPDATE in Becker and Weispfenning 1993): a new pair is kept
    only if no other new pair's lcm divides its lcm (criteria M and F),
    an old pair is dropped when the new lead divides its lcm strictly on
    both sides (criterion B_k), and an element whose lead the new lead
    divides takes no further pairs.  Pairs form only between leads at the
    same position.  The coprime criterion acts at rank 1 only: slotted
    terms at one position are never coprime, as their lead product has a
    slot of 2.  Every basis element carries one prepared reducer, built
    when it joins.
    """
    p = ring.p
    ngens = len(gens)
    key = order.key

    basis: list[dict] = []
    lms: list[tuple[int, ...]] = []
    reducers: list[tuple] = []  # (lead, 1, tail) of each monic element
    reprs: list[list[Poly]] = []
    active: list[int] = []  # elements whose lead no later lead divides
    pairs: list[tuple] = []  # heap of (key(lcm), i, j, lcm)

    def update(h: int, lm: tuple, seed: bool) -> None:
        nonlocal pairs, active
        if not seed:
            cands = [(_mono_lcm(lms[g], lm), g) for g in active
                     if lms[g][:slots] == lm[:slots]]
            # criteria M and F; a coprime pair is kept through this step,
            # since it may still prune others, and dropped only after it
            kept: list[tuple] = []
            for n, (lcm, g) in enumerate(cands):
                if lcm == _mono_mul(lms[g], lm) or not (
                        any(_divides(o, lcm) for o, _ in cands[n + 1:]) or
                        any(_divides(o, lcm) for o, _ in kept)):
                    kept.append((lcm, g))
            # criterion B_k on the old pairs
            pairs = [e for e in pairs if not _divides(lm, e[3]) or
                     _mono_lcm(lms[e[1]], lm) == e[3] or
                     _mono_lcm(lms[e[2]], lm) == e[3]]
            pairs.extend((key(lcm), g, h, lcm) for lcm, g in kept
                         if lcm != _mono_mul(lms[g], lm))
            heapq.heapify(pairs)
        active = [g for g in active if not _divides(lm, lms[g])]
        active.append(h)

    def add(lm: tuple, monic: dict, seed: bool = False) -> None:
        basis.append(monic)
        lms.append(lm)
        reducers.append((lm, 1, tuple(
            (m, c) for m, c in monic.items() if m != lm)))
        update(len(basis) - 1, lm, seed)

    for i, g in enumerate(gens):
        if not g:
            continue
        lm, inv, monic = _monic(g, order, p)
        if track:
            reprs.append([ring.from_int(inv) if j == i else ring.zero()
                          for j in range(ngens)])
        add(lm, monic, seed=i < known_gb_prefix)
    if not basis:
        raise ValueError("all generators are zero")

    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        degree = sum(lcm[slots:])
        if degree > ring.max_degree:
            raise DegreeGuardError(
                f"S-pair ({i}, {j}) with lcm degree {degree} exceeds "
                f"guard {ring.max_degree}")
        sterms, si, sj = _spair_terms(basis[i], basis[j], lms[i], lms[j], p)
        quotients = [{} for _ in basis] if track else None
        rem = _reduce_full(sterms, reducers, p, order, quotients)
        if not rem:
            continue
        lm, inv, new = _monic(rem, order, p)
        if track:
            # s-poly = shift_i*basis[i] - shift_j*basis[j]; remainder =
            # s-poly - sum(q_k basis[k]); everything scaled by inv.
            shift_i = _poly(ring, {si: 1}, slots)
            shift_j = _poly(ring, {sj: 1}, slots)
            reduced = _express(quotients, reprs, ring, slots)
            reprs.append([(shift_i * a - shift_j * b - r).scale(inv)
                          for a, b, r in zip(reprs[i], reprs[j], reduced)])
        add(lm, new)

    return _interreduce(reducers, reprs if track else None, order, ring,
                        slots)


def _interreduce(reducers: list[tuple], reprs: list[list[Poly]] | None,
                 order, ring: PolyRing, slots: int
                 ) -> tuple[list[dict], list[list[Poly]] | None]:
    """The reduced basis, largest lead first, from the prepared reducers
    (lead, 1, tail) of a monic Groebner basis, with the expressions
    `reprs` carried along."""
    p = ring.p
    # drop redundant leading monomials (minimalization), sort by lead
    key = order.key
    lms = [r[0] for r in reducers]
    keep = sorted((i for i, lm in enumerate(lms)
                   if not any(_divides(other, lm) and (other != lm or j < i)
                              for j, other in enumerate(lms) if j != i)),
                  key=lambda i: key(lms[i]), reverse=True)
    reducers = [reducers[i] for i in keep]
    if reprs is not None:
        reprs = [reprs[i] for i in keep]

    # Tail-reduce from the smallest lead up.  A tail term is smaller than
    # its own lead, so only smaller, already reduced elements divide it
    # and one pass suffices; the lead and its coefficient 1 stay.
    for i in range(len(reducers) - 1, -1, -1):
        lm, _, tail = reducers[i]
        tail = dict(tail)
        quotients = [{} for _ in reducers] if reprs is not None else None
        rem = _reduce_full(tail, reducers, p, order, quotients)
        if rem == tail:
            continue
        reducers[i] = (lm, 1, tuple(rem.items()))
        if reprs is not None:
            reduced = _express(quotients, reprs, ring, slots)
            reprs[i] = [a - r for a, r in zip(reprs[i], reduced)]
    return [{lm: 1, **dict(tail)} for lm, _, tail in reducers], reprs


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
    ring = _common_ring(gens)
    basis, reprs = _groebner([g.terms for g in gens], ring, order, 0, track,
                             known_gb_prefix)
    return GroebnerBasis([Poly._make(ring, b) for b in basis], order, gens,
                         reprs)


def verify_buchberger(basis: GroebnerBasis) -> bool:
    """Re-check the Buchberger criterion: every S-polynomial (for a module,
    every S-vector of two leads at the same position) reduces to 0."""
    order = basis._order
    p = basis.ring.p
    slots = basis._slots
    lms = basis.leading_monomials
    terms = [basis._encode(g) for g in basis.generators]
    for i, j in itertools.combinations(range(len(terms)), 2):
        if lms[i][:slots] != lms[j][:slots]:
            continue
        sterms, _, _ = _spair_terms(terms[i], terms[j], lms[i], lms[j], p)
        if _reduce_full(sterms, basis._reducers, p, order):
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


def quotient_dimension(basis: GroebnerBasis) -> int:
    """Number of standard monomials (k-dimension of the quotient ring)."""
    if basis.contains_one():
        return 0
    if not is_zero_dimensional(basis):
        raise ValueError("quotient is infinite-dimensional")
    n = basis.ring.nvars
    bounds = []
    for v in range(n):
        b = min(lm[v] for lm in basis.leading_monomials
                if lm[v] and all(e == 0 for k, e in enumerate(lm) if k != v))
        bounds.append(b)
    lms = basis.leading_monomials
    count = 0
    for mono in itertools.product(*(range(b) for b in bounds)):
        if not any(_divides(lm, mono) for lm in lms):
            count += 1
    return count


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
        """The engine's term dict: x^a e_i becomes (slots of i) + a."""
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
    monomials are the engine's slotted terms.
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
        return v._terms()

    def _decode(self, terms: dict, ring: PolyRing) -> ModuleVector:
        return ModuleVector._from_terms(terms, ring, self.size)


def module_buchberger(gens: Sequence[ModuleVector],
                      order: MonomialOrder = GREVLEX, *,
                      track: bool = False) -> ModuleGroebnerBasis:
    """Reduced basis of the submodule of R^s generated by `gens`, computed
    by the ideal engine on slotted terms (see `buchberger`)."""
    gens = list(gens)
    ring = _common_ring(gens)
    size = len(gens[0])
    if any(len(g) != size for g in gens):
        raise ValueError("coordinate-count mismatch between generators")
    slots = _slot_count(size)
    basis, reprs = _groebner([g._terms() for g in gens], ring,
                             _term_order(order, slots), slots, track)
    return ModuleGroebnerBasis(
        [ModuleVector._from_terms(b, ring, size) for b in basis], order, gens,
        reprs)


def module_normal_form(v: ModuleVector, basis: ModuleGroebnerBasis) -> ModuleVector:
    return _normal_form(v, basis)


def module_membership(v: ModuleVector, gens: Sequence[ModuleVector],
                      order: MonomialOrder = GREVLEX, *,
                      certificate: bool = False):
    """Decide whether v lies in the submodule of R^s generated by gens;
    with `certificate=True` as `ideal_membership`."""
    return _membership(v, module_buchberger(gens, order, track=certificate),
                       certificate)
