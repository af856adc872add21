"""Buchberger-based Groebner engine for ideals in F_p[x] and submodules
of free modules.

One engine and one basis class, `GroebnerBasis`, serve both: an ideal is
the rank-1 case.  A submodule of R^s with s > 1 runs on the same code
with each term x^a e_i written as s one-hot position slots followed by
a; rank 1 carries no slots.  Inside the engine every term is one int in
the packed layout of `_Layout`, so a product is an addition and a
divisibility test is a subtract-and-mask; a lead divides only terms at
its own position.  Modules use the term-over-position order
(e_1 > e_2 > ...).  Public names take and return Polys for an ideal,
ModuleVectors for a submodule, and exponent tuples for monomials.

Provides reduced bases, normal forms with optional quotients, cofactors
from a tracked run, and the dimension and origin-support checks of R^s/N.
Every order is degrevlex, which takes optional variable weights: the
decision is order-free, so one order and one packed layout serve it.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter, mul, or_
from typing import Iterable, Sequence

from .fp_poly import (AmbientMismatchError, DegreeGuardError, Poly, PolyRing,
                      _add_product, _unpack)


@dataclass(frozen=True)
class MonomialOrder:
    """Degrevlex, a multiplicative well-order on monomials.

    `weights`, positive integers w_v, compare the weighted degree
    sum(w_v * a_v) first and break its ties by degrevlex; None is
    degrevlex itself.
    """

    weights: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.weights is not None and not all(
                isinstance(w, int) and w > 0 for w in self.weights):
            raise ValueError("weights are positive integers")


GREVLEX = MonomialOrder()


class _Layout:
    """Packed terms: a term with `slots` position slots and `nvars`
    exponents as one int of fixed-width fields (Bachmann and Schoenemann
    1998).

    From the lowest field up: the slots, position 0 highest; the
    exponents; the prefix sums a_0 + ... + a_(k-1) for k = 1..nvars, so
    that the degree comes next; and under a weighted order the weighted
    degree sum(w_v * a_v) on top.  Each field is `width` bits, and its
    top bit is a guard bit that no valid term sets.  A field holds twice
    the degree guard times the largest weight (1 unweighted), so that
    the lcm of two terms within the guard fits, and so does every term a
    reduction makes from them, since none has a larger weighted degree
    than its input and no field exceeds the weighted degree.  Then

    - plain `<` on the ints is the term order, monomial before position:
      (weighted degree, degree, prefix sums) is the weighted order and
      determines the exponents;
    - every field is linear in the exponents, so a product is `+` and the
      shift by a divisor is `-`;
    - a divides b iff ((b | guard) - a) & guard == guard: no field
      borrows past its guard bit, which stays set where b's field is at
      least a's;
    - the lcm takes each field from the side whose guard bit wins that
      compare, and multiplies rebuild the prefix sums and the weighted
      degree.

    Packing raises DegreeGuardError for a monomial beyond the guard, so
    no field ever wraps.  `pair_masks` holds the masks that `_new_pairs`
    reads, bound once per layout.
    """

    def __init__(self, nvars: int, slots: int, order: MonomialOrder,
                 max_degree: int):
        self.weighted = order.weights is not None
        if self.weighted and len(order.weights) != nvars:
            raise ValueError(f"{len(order.weights)} weights for {nvars} "
                             "variables")
        w = (2 * max_degree * max(order.weights or (1,))).bit_length() + 1
        self.slots = slots
        self.max_degree = max_degree
        self.width = w
        self.cap = (1 << (w - 1)) - 1  # the largest value of a field
        one = [1 << (f * w) for f in range(slots + 2 * nvars + self.weighted)]
        self.guard = sum(one) << (w - 1)
        self.units = ([one[slots - 1 - i] for i in range(slots)] +
                      one[slots:slots + nvars])
        self._slot_shifts = [(slots - 1 - i) * w for i in range(slots)]
        self._exp_shifts = [(slots + k) * w for k in range(nvars)]
        self.slot_mask = sum(one[:slots]) * self.cap
        self._low_mask = sum(one[:slots + nvars]) * self.cap
        self._exp_mask = self._low_mask - self.slot_mask
        # the exponent fields alone, as an `fp_poly._packing`
        self.fields = (self._exp_shifts, self.units[slots:], self.cap)
        self._prefix_mask = sum(one[slots + nvars:slots + 2 * nvars]) * self.cap
        # the exponent fields times this spread land on the prefix sums,
        # and times the weighted one on the weighted degree
        self._spread = sum(1 << (j * w) for j in range(nvars, 2 * nvars))
        self._wspread = sum(c << ((2 * nvars - k) * w)
                            for k, c in enumerate(order.weights or ()))
        self._wmask = one[-1] * self.cap if self.weighted else 0
        self._degree_shift = (slots + 2 * nvars - 1) * w
        # every field is linear in the exponents, so a term packs as the
        # sum of its entries times these
        self._packers = [self._prefixed(u) for u in self.units]
        self.pair_masks = (self.guard, self._low_mask, w - 1, self._exp_mask,
                           self._spread, self._prefix_mask, self._wspread,
                           self._wmask)

    def _check(self, mono: tuple[int, ...]) -> None:
        if sum(mono) > self.max_degree:
            raise DegreeGuardError(f"monomial degree {sum(mono)} exceeds "
                                   f"guard {self.max_degree}")

    def enc(self, t: tuple[int, ...]) -> int:
        """Pack a slotted exponent tuple."""
        self._check(t[self.slots:])
        return sum(map(mul, t, self._packers))

    def _prefixed(self, m: int) -> int:
        """m with its prefix-sum and weighted-degree fields rebuilt from
        its exponent fields."""
        e = m & self._exp_mask
        out = (m & self._low_mask) + (e * self._spread & self._prefix_mask)
        if self.weighted:
            out += e * self._wspread & self._wmask
        return out

    def mono(self, t: int) -> tuple[int, ...]:
        """The exponents of a packed term, without its slots."""
        cap = self.cap
        return tuple((t >> s) & cap for s in self._exp_shifts)

    def dec(self, t: int) -> tuple[int, ...]:
        """The slotted exponent tuple of a packed term."""
        return tuple((t >> s) & 1 for s in self._slot_shifts) + self.mono(t)

    def enc_terms(self, terms: dict, pos: int = 0) -> dict:
        """Pack a polynomial's terms at position `pos` of R^s."""
        slot = self.units[pos] if self.slots else 0
        packers = self._packers[self.slots:]
        out = {}
        for m, c in terms.items():
            self._check(m)
            out[slot + sum(map(mul, m, packers))] = c
        return out

    def enc_vector(self, v) -> dict:
        """Pack a Poly or ModuleVector with one coordinate per position
        of R^s, s = max(slots, 1)."""
        coords = _coordinates(v)
        if len(coords) != (self.slots or 1):
            raise ValueError("coordinate-count mismatch")
        out: dict = {}
        for pos, poly in enumerate(coords):
            out.update(self.enc_terms(poly.terms, pos))
        return out

    def dec_terms(self, terms: dict) -> dict:
        return {self.dec(m): c for m, c in terms.items()}

    def degree(self, t: int) -> int:
        """Degree of the monomial of a packed term, unweighted; slots do
        not count."""
        return (t >> self._degree_shift) & self.cap

    def divided(self, m: int, divisors: list) -> bool:
        """Whether some term of `divisors` divides m."""
        guard = self.guard
        mg = m | guard
        for d in divisors:
            if (mg - d) & guard == guard:
                return True
        return False

    def lcm(self, a: int, b: int) -> int:
        ge = ((a | self.guard) - b) & self.guard
        return self._prefixed(b ^ ((a ^ b) & (ge - (ge >> (self.width - 1)))))


_first = itemgetter(0)


@functools.lru_cache(maxsize=64)
def _shared_layout(nvars: int, slots: int, order: MonomialOrder,
                   max_degree: int) -> _Layout:
    """One shared `_Layout` per (nvars, slots, order, max_degree); a layout
    is never changed after it is built."""
    return _Layout(nvars, slots, order, max_degree)


def _reduce_full(fterms: dict, reducers: list, p: int, layout: _Layout,
                 quotients: list[dict] | None = None,
                 memo: dict | None = None) -> dict:
    """Full normal form of a packed term dict against prepared reducers.

    Each reducer is (lead, inverse of the lead coefficient, tail items),
    all terms packed.  The division works in `fterms` itself and empties
    it, so a caller passes a dict it no longer needs.  The pending terms
    are an ascending list: the largest is popped off its end and divided
    by the first reducer in list order whose lead divides it, and a new
    term, always smaller than the one popped, is put in by bisection.
    Every term enters the list once, and the remainder's terms come out
    largest first, so its first key is its lead.  Coefficients, of
    `fterms` too, collect unreduced and are reduced mod p once, when
    their term is popped; a term that cancels waits in the list at a
    coefficient that is 0 mod p.  When `quotients` is given (reducer
    index -> quotient dict; a `defaultdict(dict)` makes a dict only for a
    reducer that is used) the division is tracked so that input =
    sum(quotient_i * reducer_i) + remainder, and repeated calls on one
    mapping add up their quotients.  No tail term has a larger weighted
    degree than its lead, so no new term outgrows the packed fields (see
    `_Layout`).

    The divisor search passes a lead larger than the term at one compare,
    as a divisor is never larger.  `memo` maps a term to where the search
    resumes: the index of its first dividing reducer, or the list length
    after a miss (0 when absent).  It holds across calls while the list
    only grows by appending and an entry is replaced only by one with the
    same lead, so a caller keeps one memo per reducer list.
    """
    guard = layout.guard
    if memo is None:
        memo = {}
    nred = len(reducers)
    work = fterms
    queue = sorted(work)
    pop, put, get = queue.pop, bisect.insort, work.get
    rem: dict = {}
    while queue:
        m = pop()
        c = work.pop(m) % p
        if not c:
            continue
        mg = m | guard
        hit = start = memo.get(m, 0)
        while hit < nred and ((lead := reducers[hit][0]) > m or
                              (mg - lead) & guard != guard):
            hit += 1
        if hit != start:
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
        factor = p - factor  # nonnegative sums: CPython shares small ints
        for tm, tc in tail:
            mm = tm + shift
            prev = get(mm)
            if prev is None:
                work[mm] = factor * tc
                put(queue, mm)
            else:
                work[mm] = prev + factor * tc
    return rem


def _prep_reducer(terms: dict, p: int) -> tuple:
    lm = max(terms)
    tail = tuple((m, c) for m, c in terms.items() if m != lm)
    return (lm, pow(terms[lm], p - 2, p), tail)


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

    def __repr__(self):
        return "ModuleVector(" + ", ".join(str(c) for c in self.coordinates) + ")"


def _coordinates(f) -> tuple[Poly, ...]:
    return f.coordinates if isinstance(f, ModuleVector) else (f,)


class GroebnerBasis:
    """A reduced, monic Groebner basis with a fixed monomial order, of an
    ideal or of a submodule of R^s under term-over-position order.

    Built from the engine's output only: the rank `size`, the kind
    (`vectors`: ModuleVectors of length s, else Polys), the `packed`
    original generators, the prepared `reducers` and the `trace`.  The
    original generators, the elements and the leads are decoded on first
    access; the leads are exponent tuples, after s position slots when
    s > 1.  The `trace`, when present (track=True), is (steps,
    roots): how the engine formed each element from `original_generators`,
    which `expand_packed` turns into cofactors (see `_expand`); roots[i]
    is the node of generators[i].  Every reduction against the reducers
    shares one divisor memo (see `_reduce_full`).
    """

    def __init__(self, ring: PolyRing, size: int, vectors: bool,
                 order: MonomialOrder, packed: Sequence[dict],
                 reducers: list[tuple], trace: tuple[list, list] | None):
        self.ring = ring
        self.size = size  # the rank s of the module
        self._vectors = vectors
        self._slots = size if size > 1 else 0
        self.order = order
        self.trace = trace
        self._packed_originals = packed
        self._reducers = reducers
        self._layout = _shared_layout(ring.nvars, self._slots, order,
                                      ring.max_degree)
        self._memo: dict = {}

    @functools.cached_property
    def original_generators(self) -> tuple:
        return tuple(self._decode(g, self.ring)
                     for g in self._packed_originals)

    @functools.cached_property
    def leading_monomials(self) -> tuple:
        """The leads as exponent tuples, after the position slots when
        s > 1; decoded on first access."""
        return tuple(self._layout.dec(r[0]) for r in self._reducers)

    @functools.cached_property
    def generators(self) -> tuple:
        """The basis elements; the engine lists them largest lead first."""
        return tuple(self._decode({lm: 1, **dict(tail)}, self.ring)
                     for lm, _, tail in self._reducers)

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self._reducers)

    def contains_one(self) -> bool:
        """Whether the span is the whole module: a unit lead at every
        position, read off the packed leads (a unit has no exponent)."""
        layout = self._layout
        exps, slots = layout._exp_mask, layout.slot_mask
        units = {lm & slots for lm, _, _ in self._reducers if not lm & exps}
        return len(units) == self.size

    # A packed element of the span (see `_Layout.enc_vector`) decoded.
    def _decode(self, terms: dict, ring: PolyRing):
        if not self._slots:
            poly = Poly._make(ring, self._layout.dec_terms(terms))
            return ModuleVector([poly]) if self._vectors else poly
        coords: list[dict] = [{} for _ in range(self.size)]
        for t, c in self._layout.dec_terms(terms).items():
            coords[t.index(1)][t[self._slots:]] = c
        return ModuleVector([Poly._make(ring, d) for d in coords])

    # A coefficient of the span, such as a quotient or a cofactor, as
    # packed shift terms (slots all 0) in the basis's layout, and back.
    def pack(self, poly: Poly) -> dict:
        layout, zero = self._layout, (0,) * self._slots
        return {layout.enc(zero + m): c for m, c in poly.terms.items()}

    def unpack(self, terms: dict) -> Poly:
        return _unpack(self.ring, terms, self._layout.fields)

    def expand_packed(self, coeffs: Sequence[dict],
                      frobenius: bool = False) -> list[dict]:
        """Cofactors c_t over `original_generators` of the combination
        sum(coeffs[k] * generators[k]): sum(c_t * original_generators[t])
        equals it.  With `frobenius`, the cofactors of
        sum(coeffs[k] * generators[k]^[p]) over the
        original_generators[t]^[p] instead, ^[p] the coordinate-wise p-th
        power.  Coefficients and cofactors are packed shift terms (see
        `pack`).  The basis must have been built with track=True.
        """
        if self.trace is None:
            raise ValueError("expanding needs a basis built with track=True")
        steps, roots = self.trace
        return _expand(steps, list(zip(roots, coeffs)),
                       len(self._packed_originals),
                       self._layout, self.ring, frobenius)


def _expand(steps: list, seeds: list, ngens: int, layout: _Layout,
            ring: PolyRing, frobenius: bool = False) -> list[dict]:
    """Cofactors c_t over the ngens generators of sum(coeff * node) over
    the (node, packed coefficient) pairs of `seeds`, from a trace `steps`
    of the engine, as packed shift terms with coefficients in [1, p).

    Node t < ngens is the t-th generator, with an empty step; every later
    node is the sum of multiplier * source over the (source node, packed
    multiplier) pairs of its step, and every source is an earlier node.
    One backward pass (reverse accumulation; Griewank and Walther,
    Evaluating Derivatives, 2008): a node's adjoint, its coefficient in
    the combination, is final once every later node has passed its own
    on, so the nodes are walked in decreasing order and each adds
    adjoint * multiplier to its sources in place; its coefficients are
    reduced mod p once, when it is complete.  A product of packed terms
    is an int addition.  Since (sum c_t N_t)^[p] = sum c_t^p N_t^[p],
    `frobenius` takes every multiplier to its p-th power, a packed term
    times p, for the combination of the nodes' p-th powers.  Every term
    stays within the degree guard, so no packed field wraps: a product
    whose degree would pass the guard raises DegreeGuardError before it
    is formed.
    """
    p, guard, degree = ring.p, ring.max_degree, layout.degree
    adj: list = [None] * len(steps)
    for node, q in seeds:
        a = adj[node] = adj[node] or {}
        for m, c in q.items():
            a[m] = a.get(m, 0) + c
    for node in range(len(steps) - 1, ngens - 1, -1):
        a = adj[node]
        adj[node] = None
        if a:
            a = {m: r for m, c in a.items() if (r := c % p)}
        if not a:
            continue
        da = max(map(degree, a))
        for src, mult in steps[node]:
            dm = max(map(degree, mult)) * (p if frobenius else 1)
            if da + dm > guard:
                raise DegreeGuardError(
                    f"cofactor degree {da + dm} exceeds guard {guard}")
            if frobenius:
                mult = {m * p: c for m, c in mult.items()}
            adj[src] = _add_product(adj[src] or {}, mult.items(), a.items())
    return [{m: r for m, c in (a or {}).items() if (r := c % p)}
            for a in adj[:ngens]]


def _normal_form(f, basis: GroebnerBasis, quotients: list[dict] | None = None):
    if not basis.ring.same_ambient(f.ring):
        raise AmbientMismatchError("polynomial and basis ambients differ")
    rem = _reduce_full(basis._layout.enc_vector(f), basis._reducers, f.ring.p,
                       basis._layout, quotients, basis._memo)
    return basis._decode(rem, f.ring)


def normal_form(f, basis: GroebnerBasis):
    """Remainder of f, a Poly or a ModuleVector, on division by the basis,
    of the basis's kind; unique for a reduced basis."""
    return _normal_form(f, basis)


def normal_form_with_cofactors(f: Poly, basis: GroebnerBasis) -> tuple[Poly, list[Poly]]:
    """Normal form plus quotients q_i with f = sum(q_i g_i) + remainder."""
    quotients: list[dict] = [{} for _ in basis._reducers]
    rem = _normal_form(f, basis, quotients)
    return rem, [_unpack(f.ring, q, basis._layout.fields) for q in quotients]


def reduce_by_generators(f, gens: Sequence, order: MonomialOrder = GREVLEX):
    """Divide f, a Poly or a ModuleVector, by an arbitrary list of the same
    kind (no basis completion).

    The remainder is not unique unless the list is a Groebner basis, but a
    zero remainder always proves membership in the generated span.
    """
    ring, size, layout, (packed, *divisors) = _packed([f, *gens], order)
    reducers = [_prep_reducer(g, ring.p) for g in divisors if g]
    basis = GroebnerBasis(ring, size, isinstance(f, ModuleVector), order,
                          divisors, reducers, None)
    return basis._decode(_reduce_full(packed, reducers, ring.p, layout), ring)


def _spair_terms(ri: tuple, rj: tuple, si: int, sj: int, p: int) -> dict:
    """x^si*g_i/lc_i - x^sj*g_j/lc_j for the prepared reducers ri, rj of
    g_i, g_j, whose shifted leads cancel: formed from the tails, each
    scaled by its lc_inv, and left unreduced for `_reduce_full`."""
    _, ci, ti = ri
    _, cj, tj = rj
    out = {m + si: ci * c for m, c in ti}
    get, cj = out.get, p - cj
    for m, c in tj:
        mm = m + sj
        out[mm] = get(mm, 0) + cj * c
    return out


def _common_ring(gens: Sequence) -> PolyRing:
    if not gens:
        raise ValueError("generator list must be nonempty")
    ring = gens[0].ring
    for g in gens[1:]:
        if not g.ring.same_ambient(ring):
            raise AmbientMismatchError("generators live in different ambients")
    return ring


def _packed(gens: Sequence, order: MonomialOrder
            ) -> tuple[PolyRing, int, _Layout, list[dict]]:
    """The ring, rank s and layout of Polys or ModuleVectors of one
    ambient, s the first's coordinate count, and their packed terms; a
    generator with another coordinate count raises ValueError."""
    ring = _common_ring(gens)
    size = len(_coordinates(gens[0]))
    layout = _shared_layout(ring.nvars, size if size > 1 else 0, order,
                            ring.max_degree)
    return ring, size, layout, [layout.enc_vector(g) for g in gens]


def _new_pairs(layout: _Layout, lms: list[int], kinds: list[int],
               active: list[int], h: int) -> tuple[list[tuple], list[int]]:
    """Criteria M and F: the pairs (lcm, g, h) that lead lms[h] keeps with
    lms[g], g in `active`, the list at its position, and the elements of
    `active` whose lead lms[h] does not divide, in order.  Each lcm keeps
    its last g, or -1 if a candidate passes the product criterion
    (Buchberger 1979), by `kinds` (2 a monomial, 1 all terms at the lead's
    position, 0 spread): two monomials, whose S-vector is 0, or two
    one-position elements with coprime lead exponents, whose S-vector
    reduces to 0 by the two as in the ideal case.  The lcms are walked
    upward against the minimal ones met so far (a divisor is never
    larger).  Divisibility reads only the slot and exponent fields, and
    an int of those alone grows with every one of them, so the walk runs
    on such ints and the prefix-sum and weighted-degree fields are added
    only to the pairs kept, from the layout's `pair_masks`.  The lcm with
    a lead t is t plus lms[h]'s excess over t, all of lms[h]'s exponents
    iff they are coprime, and none iff lms[h] divides t."""
    guard, low, top, exps, spread, prefix, wspread, wmask = layout.pair_masks
    lm, kh = lms[h], kinds[h]
    lmg = lm & low | guard
    coprime = lm & exps
    cands: dict[int, int] = {}
    kept: list[int] = []
    for g in active:
        t = lms[g] & low
        ge = (diff := lmg - t) & guard  # guard bits where lms[h] >= t
        inc = diff & (ge - (ge >> top))
        if inc:
            kept.append(g)
        if cands.get(lcm := t + inc, 0) >= 0:
            cands[lcm] = -1 if kh and (kg := kinds[g]) and (
                inc == coprime or kh == kg == 2) else g
    minimal: list[int] = []
    new: list[tuple] = []
    for lcm in sorted(cands):
        lg = lcm | guard
        for d in minimal:
            if (lg - d) & guard == guard:
                break
        else:
            minimal.append(lcm)
            if (g := cands[lcm]) >= 0:
                e = lcm & exps
                new.append((lcm + (e * spread & prefix) +
                            (e * wspread & wmask), g, h))
    return new, kept


def _groebner(gens: list[dict | tuple], ring: PolyRing, layout: _Layout,
              track: bool, known_gb_prefix: int = 0,
              target: dict | None = None
              ) -> tuple[list[tuple] | dict, tuple[list, list] | None]:
    """Buchberger's algorithm on packed term dicts (see `_Layout`); a
    generator may also be a prepared monic reducer, which joins as it is.

    Returns the prepared reducers (lead, 1, tail) of the reduced basis,
    largest lead first, and with `track` the trace (steps, roots) of
    `GroebnerBasis`: each element that joins records one step, how it was
    formed, and no expression is built during the run.  Pairs are pruned
    once, when an element joins, by the Gebauer-Moeller update (Gebauer
    and Moeller 1988, as UPDATE in Becker and Weispfenning 1993): a new
    pair is kept only if no other new pair's lcm divides its lcm
    (criteria M and F, see `_new_pairs`), an old pair is dropped when the
    new lead divides its lcm strictly on both sides (criterion B_k), and
    an element whose lead the new lead divides takes no further pairs.
    Pairs form only between leads at the same position, so `active` is
    kept per position, and one walk of it forms the new pairs and the
    list that stays (see `_new_pairs`).  The product criterion drops a
    pair of monomials (its S-vector is 0) and a pair of elements that each
    live at their lead's position, as every element does at rank 1, with
    coprime lead exponents (their S-vector reduces to 0 by the two, as for
    ideals).  The basis is kept only as prepared monic reducers, each
    built in one pass over its remainder, whose first key is its lead;
    S-pairs are formed from their tails (see `_spair_terms`), and all
    S-pair reductions share one divisor memo.  A step's multipliers are
    formed once, already divided by the lead coefficient.  The pairs wait
    in a list sorted ascending, (lcm, i, j) with no two equal, so the
    smallest lcm is popped first, ties by index: new pairs are put in by
    bisection and B_k filters the list in order.  Leads, lcms, shifts and
    the recorded multipliers stay packed throughout.

    `target`, a term dict that no lead of `gens` divides a term of, is
    reduced with the run's memo whenever a joining lead divides one of
    its terms, so no lead met so far divides a term of it.  The run then
    returns (target's remainder, trace) instead: it stops once the target
    is 0, and a run that completes leaves the target's normal form, as
    the leads met generate the lead module; neither interreduces.  With
    `track` the trace is (steps, seeds): the target minus its remainder
    is sum(quotient * node) over the (node, quotient) pairs of `seeds`,
    one per reducer the target was divided by (see `_expand`).
    """
    p = ring.p
    guard, slot_mask = layout.guard, layout.slot_mask
    lcm_of, insort = layout.lcm, bisect.insort

    lms: list[int] = []
    reducers: list[tuple] = []  # (lead, 1, tail) of each monic element
    # with track, one step per node (an input generator's is empty) and
    # the node of each basis element
    steps: list[list[tuple]] | None = [[] for _ in gens] if track else None
    nodes: list[int] = []
    kinds: list[int] = []  # 2 a monomial, 1 one-position, 0 spread
    # per position, the elements whose lead no later lead divides
    active: dict[int, list[int]] = {}
    pairs: list[tuple] = []  # (lcm, i, j), ascending
    memo: dict = {}  # the divisor memo of `reducers`
    # with track, the target's quotient on each reducer it was divided by
    target_q = defaultdict(dict) if track else None

    def monic(terms: dict) -> tuple[tuple, int]:
        # the reducer (lead, 1, tail) of terms / lc, for a term dict whose
        # first key is its lead, and 1 / lc; lc = 1 copies the tail as is
        items = iter(terms.items())
        lm, lc = next(items)
        if lc == 1:
            return (lm, 1, tuple(items)), 1
        inv = pow(lc, p - 2, p)
        return (lm, 1, tuple((m, c * inv % p) for m, c in items)), inv

    def add(reducer: tuple, step: list | None, seed: bool = False) -> None:
        # the monic element `reducer` joins, and with track it is the sum
        # of multiplier * node over the (node, multiplier) pairs of
        # `step`; then its pairs are formed and the old ones pruned
        nonlocal pairs
        lm, _, tail = reducer
        pos = lm & slot_mask
        h = len(lms)
        lms.append(lm)
        # one-position iff the one-hot slots of all terms OR to the lead's
        kinds.append(2 if not tail else not slot_mask or functools.reduce(
            or_, map(_first, tail), lm) & slot_mask == pos)
        reducers.append(reducer)
        if track:
            nodes.append(len(steps))
            steps.append(step)
        here = active.get(pos, [])
        if seed:
            here = [g for g in here
                    if ((lms[g] | guard) - lm) & guard != guard]
        else:
            new, here = _new_pairs(layout, lms, kinds, here, h)
            # criterion B_k on the old pairs, which stay in order
            pairs = [e for e in pairs
                     if ((e[0] | guard) - lm) & guard != guard or
                     lcm_of(lms[e[1]], lm) == e[0] or
                     lcm_of(lms[e[2]], lm) == e[0]]
            for e in new:
                insort(pairs, e)
        here.append(h)
        active[pos] = here

    for i, g in enumerate(gens):
        if not g:
            continue
        inv = 1
        if isinstance(g, dict):  # else a prepared monic reducer already
            lm = max(g)
            g, inv = monic({lm: g[lm], **g})
        add(g, [(i, {0: inv})] if track else None, seed=i < known_gb_prefix)
    if not lms:
        raise ValueError("all generators are zero")

    while pairs and target != {}:
        lcm, i, j = pairs.pop(0)
        degree = layout.degree(lcm)
        if degree > ring.max_degree:
            raise DegreeGuardError(
                f"S-pair ({i}, {j}) with lcm degree {degree} exceeds "
                f"guard {ring.max_degree}")
        si, sj = lcm - lms[i], lcm - lms[j]
        sterms = _spair_terms(reducers[i], reducers[j], si, sj, p)
        quotients = defaultdict(dict) if track else None
        rem = _reduce_full(sterms, reducers, p, layout, quotients, memo)
        if not rem:
            continue
        reducer, inv = monic(rem)
        step = None
        if track:
            # rem = x^si g_i - x^sj g_j - sum(q_k g_k), all g monic, and
            # the element is rem / lc
            step = [(nodes[i], {si: inv}), (nodes[j], {sj: p - inv})]
            step += [(nodes[k], {m: -c * inv % p for m, c in q.items()})
                     for k, q in quotients.items()]
        add(reducer, step)
        if target and any(((m | guard) - lms[-1]) & guard == guard
                          for m in target):
            target = _reduce_full(target, reducers, p, layout, target_q,
                                  memo)

    if target is not None:
        return target, (steps, [(nodes[k], q) for k, q in target_q.items()]
                        ) if track else None
    reducers, roots = _interreduce(reducers, ring, layout,
                                   itertools.chain(*active.values()),
                                   (steps, nodes) if track else None)
    return reducers, (steps, roots) if track else None


def _interreduce(reducers: list[tuple], ring: PolyRing, layout: _Layout,
                 active: Iterable[int], trace: tuple[list, list] | None
                 ) -> tuple[list[tuple], list[int] | None]:
    """The reducers of the reduced basis, largest lead first, from the
    prepared reducers (lead, 1, tail) of a monic Groebner basis.

    `trace`, when given, is the engine's (steps, nodes): every rewritten
    tail records one more step, the old node minus the quotients over the
    current nodes, and the nodes of the reduced basis are returned too.

    `active` lists the elements whose lead no later lead divides; their
    leads are distinct and generate the lead ideal.  Minimalization walks
    them from the smallest lead up and keeps each one that no kept lead
    divides: a divisor is never larger, so the minimal generators are
    met first.  The tail reductions share one divisor memo, and a
    monomial, with no tail, is not reduced.
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
    nodes = None
    if trace is not None:
        steps, nodes = trace
        nodes = [nodes[i] for i in keep]

    # Tail-reduce from the smallest lead up.  A tail term is smaller than
    # its own lead, so only smaller, already reduced elements divide it
    # and one pass suffices; the lead and its coefficient 1 stay.
    memo: dict = {}
    for i in range(len(reducers) - 1, -1, -1):
        lm, _, tail = reducers[i]
        if not tail:
            continue
        quotients = defaultdict(dict) if trace is not None else None
        rem = _reduce_full(dict(tail), reducers, p, layout, quotients, memo)
        if rem == dict(tail):
            continue
        reducers[i] = (lm, 1, tuple(rem.items()))
        if trace is not None:
            steps.append([(nodes[i], {0: 1})] + [
                (nodes[k], {m: -c % p for m, c in q.items()})
                for k, q in quotients.items()])
            nodes[i] = len(steps) - 1
    return reducers, nodes


def buchberger(gens: Sequence, order: MonomialOrder = GREVLEX, *,
               track: bool = False, known_gb_prefix: int = 0) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal or submodule generated by
    `gens`: Polys, or ModuleVectors of one length; a generator with
    another coordinate count raises ValueError.

    Pair selection follows the normal strategy (smallest lcm in the order,
    ties by input index).  The Gebauer-Moeller update prunes pairs once,
    as each element joins, and the product criterion drops a pair of
    monomials, whose S-vector is 0, and a pair of elements that each live
    at one position with coprime lead exponents, whose S-vector reduces
    to 0 by the two as for ideals; see `_groebner`.  The degree guard
    checks every pair that survives (in `seeded_membership`, every pair
    processed before the run stops).  Deterministic for a fixed input
    sequence.

    `known_gb_prefix` marks the first k generators as a Groebner basis of
    the subideal they generate, so their mutual S-pairs are skipped.
    With `track=True` the basis records how each element was formed, and
    `expand_packed` expresses combinations of it in the original
    generators.  The basis decodes its generators only when they are read.
    """
    gens = tuple(gens)
    ring, size, layout, packed = _packed(gens, order)
    reducers, trace = _groebner(packed, ring, layout, track, known_gb_prefix)
    return GroebnerBasis(ring, size, isinstance(gens[0], ModuleVector),
                         order, packed, reducers, trace)


def _position_leads(basis: GroebnerBasis) -> list[list[tuple[int, ...]]]:
    """The leading monomials of a basis at each position of R^s."""
    slots = basis._slots
    out: list[list[tuple[int, ...]]] = [[] for _ in range(basis.size)]
    for lm in basis.leading_monomials:
        out[lm.index(1) if slots else 0].append(lm[slots:])
    return out


def is_zero_dimensional(basis: GroebnerBasis) -> bool:
    """True iff R^s/N is finite-dimensional: at every position the leads
    hold 1 or a pure power of every variable.

    Read off the packed leads: a lead's exponent fields are a pure power
    iff nothing is set above the field of its lowest set bit, and a unit
    has none set."""
    layout = basis._layout
    exps, slots, w = layout._exp_mask, layout.slot_mask, layout.width
    every = range(basis.ring.nvars)
    covered: dict[int, set] = {}
    for lm, _, _ in basis._reducers:
        e = lm & exps
        field = ((e & -e).bit_length() - 1) // w
        if not e >> (field + 1) * w:
            covered.setdefault(lm & slots, set()).update(
                (field,) if e else (layout.slots + v for v in every))
    return (len(covered) == basis.size and
            all(len(c) == len(every) for c in covered.values()))


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
    """k-dimension of R^s/N: the standard terms, summed over positions."""
    if not is_zero_dimensional(basis):
        raise ValueError("quotient is infinite-dimensional")
    n = basis.ring.nvars
    return sum(_standard_count(leads, n) for leads in _position_leads(basis))


def supported_only_at_origin(basis: GroebnerBasis) -> bool:
    """True iff x_v^D * e_i lies in N for every variable v and position i,
    D the quotient dimension; equivalently R^s/N is supported (at most) at
    the origin, since a module of length D supported there is killed by
    the D-th power of the maximal ideal.

    The power is walked by doubling with early exit: the normal form t of
    x_v^e * e_i times x_v^e has the normal form of x_v^(2e) * e_i, and
    that product is a shift of t's packed terms, so no vector is decoded.
    """
    d = quotient_dimension(basis)
    if d == 0:
        return True
    ring, layout, slots = basis.ring, basis._layout, basis._slots
    zero = (0,) * slots

    def nf(terms: dict) -> dict:
        return _reduce_full(terms, basis._reducers, ring.p, layout,
                            memo=basis._memo)

    for v in range(ring.nvars):
        unit = tuple(int(k == v) for k in range(ring.nvars))
        for i in range(basis.size):
            slot = tuple(int(k == i) for k in range(slots))
            t = nf({layout.enc(slot + unit): 1})
            e = 1
            while t and e < d:
                if max(map(layout.degree, t)) + e > ring.max_degree:
                    raise DegreeGuardError(
                        f"power of x_{v} exceeds guard {ring.max_degree}")
                shift = layout.enc(zero + tuple(e * u for u in unit))
                t = nf({m + shift: c for m, c in t.items()})
                e *= 2
            if t:
                return False
    return True


def _frobenius_reducers(reducers: list[tuple], layout: _Layout,
                        p: int) -> list[tuple]:
    """The prepared reducers of the coordinate-wise p-th powers of monic
    basis elements, from their own (lead, 1, tail): every packed exponent,
    prefix-sum and weighted-degree field times p, the position slots kept
    and the coefficient unchanged, since c^p = c in F_p.  Raises
    DegreeGuardError where `Poly.frobenius` raises on one of them, when p
    times its degree passes the guard, so no field overflows; the guard is
    checked once, on the largest degree of any term."""
    if not layout.weighted:
        # under unweighted degrevlex no term has a larger degree than its lead
        terms = [lm for lm, _, _ in reducers]
    else:
        terms = [m for lm, _, tail in reducers for m in (lm, *dict(tail))]
    degree = max(map(layout.degree, terms)) * p
    if degree > layout.max_degree:
        raise DegreeGuardError(
            f"power degree {degree} exceeds guard {layout.max_degree}")
    slots, q = layout.slot_mask, p - 1
    if not slots:
        return [(lm * p, 1, tuple((m * p, c) for m, c in tail))
                for lm, _, tail in reducers]
    return [(lm * p - (lm & slots) * q, 1,
             tuple((m * p - (m & slots) * q, c) for m, c in tail))
            for lm, _, tail in reducers]


def jacobian_module(gens: Sequence[Poly], order: MonomialOrder = GREVLEX,
                    *, track: bool = False) -> GroebnerBasis:
    """Reduced basis of the submodule N of R^m spanned by the f_j e_i, by
    (i, j), followed by the Jacobian columns (df_1/dx_k, ..., df_m/dx_k),
    by k: for m = 1 the ideal (f, df/dx_1, ..., df/dx_n), as vectors of
    length 1.  The original generators are these spanning vectors, in
    this order, and are decoded only when read.

    Each f_j is packed once, which checks its terms against the degree
    guard, and the spanning set is formed from the packed terms: f_j e_i
    moves f_j to the slot of position i, and df/dx_k shifts every term
    down by x_k's packer with its coefficient times the exponent, a term
    whose exponent p divides dropping out.  The shift is one constant, so
    no two terms of f meet.  The generators must share one ambient.
    """
    ring = _common_ring(gens)
    m, n, p = len(gens), ring.nvars, ring.p
    layout = _shared_layout(n, m if m > 1 else 0, order, ring.max_degree)
    base = [layout.enc_terms(f.terms) for f in gens]
    offsets = [layout.units[i] - layout.units[0] if m > 1 else 0
               for i in range(m)]
    spanning = [{k + off: c for k, c in b.items()} if off else b
                for off in offsets for b in base]
    cap, packers = layout.cap, layout._packers[layout.slots:]
    for v in range(n):
        shift, packer = layout._exp_shifts[v], packers[v]
        column = {}
        for off, b in zip(offsets, base):
            off -= packer
            for k, c in b.items():
                if c := c * ((k >> shift) & cap) % p:
                    column[k + off] = c
        spanning.append(column)
    reducers, trace = _groebner(spanning, ring, layout, track)
    return GroebnerBasis(ring, m, True, order, spanning, reducers, trace)


def seeded_membership(target: Sequence[dict], screen: GroebnerBasis, *,
                      track: bool = False
                      ) -> tuple[ModuleVector, list[dict] | None]:
    """Decide `target` in N^[p] + (f_j e_i), N the submodule of the
    reduced basis `screen` of `jacobian_module` and ^[p] the
    coordinate-wise p-th power; returns (remainder, cofactors), the
    cofactors as packed shift terms in the screen's layout (see
    `GroebnerBasis.pack`).

    `target` is the vector's coordinates packed in the layout's `fields`
    within the guard, completed here by `_prefixed` and the slot.  The
    f_j e_i are the screen's first m^2 original generators, m its rank,
    taken as the screen's run packed them, never decoded or checked
    again.  The p-th powers of the screen's elements form a Groebner
    basis of N^[p] (leading terms go to p-th powers); they are made from
    the screen's packed reducers (see `_frobenius_reducers`) and followed
    by the f_j e_i.  The target is divided by that seed first, and a zero
    remainder proves membership at once.  Else Buchberger runs on the
    seed, with N^[p] as a known prefix that joins as the same prepared
    reducers, and carries the remainder as its target (see `_groebner`):
    the remainder is 0 as soon as the run proves membership, else the
    target's normal form on the completed module.  No basis is
    interreduced or decoded.  With track=True and a zero remainder,
    cofactors c_t with target = sum(c_t * seed[t]) come from the
    division's quotients plus the run's own, by one backward pass over
    the run's steps; else None.
    """
    ring, layout, p = screen.ring, screen._layout, screen.ring.p
    target = {layout._prefixed(k) + slot: c for slot, terms in
              zip(layout.units[:layout.slots] or [0], target)
              for k, c in terms.items()}
    multiples = screen._packed_originals[:screen.size ** 2]
    reducers = _frobenius_reducers(screen._reducers, layout, p)
    known = len(reducers)
    reducers += [_prep_reducer(g, p) for g in multiples]
    quotients = defaultdict(dict) if track else None
    rem = _reduce_full(target, reducers, p, layout, quotients)
    steps = [[] for _ in reducers]
    seeds = list(quotients.items()) if track else None
    if rem:
        rem, trace = _groebner(reducers[:known] + multiples, ring, layout,
                               track, known, rem)
        if track:
            steps, run_seeds = trace
            seeds += run_seeds
    cofactors = (_expand(steps, seeds, len(reducers), layout, ring)
                 if track and not rem else None)
    return screen._decode(rem, ring), cofactors


# No pipeline code calls these aliases: the screen and the membership
# reach `_groebner` through `jacobian_module` and `seeded_membership`.
# They stay because perfbench/tracer.py binds them by name, which
# tests/test_bench_hooks.py pins.
module_buchberger = buchberger
module_normal_form = normal_form
