"""Seeded inputs for the benchmark workloads.

Every input is a catalog equation whose (F-pure, F-liftable) answer is
known.  The seed chooses which classes are drawn and in what order, and
applies a relabeling of the variables and, for p > 2, a random unit
rescaling x_i -> u*x_i.  Neither changes a verdict, so the known answers
stay valid while the polynomials differ from seed to seed.  The program
under test only ever sees the generated polynomials.

The cost of a class can change several-fold (up to 14x) with the order
of its variables, so permutations are balanced rather than drawn: every
pass of a run holds the same classes, each class gets a seeded starting
permutation, and pass j takes the j-th permutation after it.  A run of
six passes therefore times each three-variable class under all six
permutations, and its total cost does not depend on the seed's
permutations.

Each pass of a run runs in a fresh interpreter, so no equation is
classified twice in one process; warm-up inputs lie outside every timed
set (another prime or a larger exponent).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from fliftlab.catalog import (CUSP_EXPECTED, cusp_ci_admissible,
                              cusp_ci_symmetry_class, cusp_hyp_admissible,
                              cusp_hyp_symmetry_class, enumerate_table_rows,
                              make_cusp_ci, make_cusp_hypersurface)

# cusp_hyp symmetry classes at exponents <= 12, costliest first by their
# CPU time averaged over the six permutations of the variables, as timed
# at the commit that introduced this benchmark (one hex digit per
# exponent).  The order only decides which classes the draw leaves out,
# fixes or stratifies; a stale order costs steadiness, never correctness.
_CUSP_HYP_BY_COST = {
    5: """299 28b 237 334 344 268 444 336 239 446 337 246 23c 238 347 346 247 44b
    449 248 23b 24c 339 448 348 249 279 335 24b 288 366 289 377 379 349 345
    488 266 368 499 267 389 33c 369 27b 378 668 34b 467 478 27c 34c 469 36b
    477 667 33b 278 468 28c 489 47c 666 47b 23a 679 277 699 245 269 689 688
    38b 29c 677 29b 357 38c 26c 788 66c 778 899 37c 779 66b 26b 999 358 445
    789 399 456 356 2bb 67b 89b 69c 89c 67c 2bc 359 49b 46c 79c 68b 2cc 39b
    99b 777 889 48c 79b 48b 77c 579 39c 78c 256 77b 578 457 9bc 9cc 33a 88b
    566 338 258 599 7bb 7bc 6bb 568 59c 458 24a 59b 459 45b 577 567 588 569
    88c 3bc 7cc 36c 6bc 589 259 25c 35b 45c 35c 27a 37b 3cc 56c 66a 9ac 8cc
    257 6cc 6ac 34a 3bb 56b 7ac 4cc 388 6ab 57c 4bc 2ac 57b 69a 7ab 2ab 8bb
    9ab 49a 5bb 89a 29a 5bc 68a 5cc 67a 58b 58c 47a 25b bbb 3ab ccc 79a 3ac
    bbc 28a bcc 367 38a 37a 8ab 44a 5ac acc 78a 9bb 6aa 5ab 7aa 99a abc 26a
    9aa 77a abb 36a 48a 35a 8ac 99c 46a 4ac 59a 3aa 4ab 479 2aa 447 88a 669
    39a 8aa 255 799 69b 5aa 44c 45a aac 888 aaa 68c 678 aab 25a 556 466 78b
    55c 455 55b 559 558 557 56a 355 8bc 4aa 49c 58a 57a 4bb 46b 55a 555""",
    7: """23a 245 2bb 345 239 23b 23c 335 445 238 346 446 334 336 28c 344 355 26a
    246 444 258 356 448 24a 456 349 338 44a 555 256 556 255 339 44b 249 24c
    34a 248 458 366 34b 34c 266 33b 358 24b 459 44c 466 558 45a 25a 259 25b
    33c 35b 45b 666 559 359 26c 25c 269 55a 35c 56b 56a 289 569 368 55c 35a
    28a 268 56c 26b 568 468 288 337 46c 36b 2cc 237 668 3ac 38a 46b 347 469
    36a 669 39a 36c 3bb 28b 46a 2bc 389 2ac 399 3bc 39c 3ab 38c 66b 66a 357
    299 4ac 488 39b 6bb 4bc 4bb 58b 557 4ab 58c 29a 2aa 29b 59b 599 29c 59a
    588 388 49a 6ac 6bc 59c 257 69b 2ab 499 58a 4aa 48b 489 68a 68b 5bb 49c
    48c 447 6cc 567 69c 457 689 6aa 6ab 3cc 5ac 699 5aa 5ab 88a 88b 5cc 88c
    8cc 8bc 247 89b 667 9cc 8bb 8ac 89a 68c 899 889 278 8aa 888 acc 99c 9bc
    33a aac 99b 9ac 9aa 279 367 99a aab 467 abb 267 ccc 9ab 999 7bc 27a bbb
    bbc 7bb 7ac 3aa abc 78b 7cc 678 78a 799 378 38b 79c 478 27b 789 788 67a
    67b 379 67c 679 578 37a 579 79a 78c 57a 79b 57b 37b 479 27c 455 57c 566
    37c 7ab 7aa 369 69a 5bc 55b aaa bcc 778 449 4cc 77a 477 779 348 66c 89c
    48a 9bb 677 277 8ab 45c 688 47a 589 47b 47c 77b 49b 77c 777 577 377""",
}

# Per prime: (skip, fixed, strata).  Every run leaves out the `skip`
# costliest classes, holds the `fixed` next ones, and draws one class from
# each of `strata` strata of similar cost among the rest.  Classes too
# costly to share a stratum are fixed, since a draw among them would set
# the run's cost.  The 65 costliest p = 7 classes (0.3 to 5 s each,
# averaged over permutations) are left out: timed under all six
# permutations, a few of them would fill a run.
CUSP_HYP_DRAW = {5: (0, 1, 25), 7: (65, 6, 20)}
CUSP_HYP_MAX = 12
CUSP_CI_P = 2
CUSP_CI_MAX = 6
MIX_TABLE_N_MAX = 8
MIX_CERTIFIED = ((2, 10), (3, 12))  # (p, largest exponent)


@dataclass(frozen=True)
class Input:
    label: str
    gens: tuple
    certificates: bool
    expected: tuple  # (f_pure, f_liftable)


def _relabel(gens, perm, rng: random.Random) -> tuple:
    """One change of coordinates applied to every generator."""
    ring = gens[0].ring
    units = ([rng.randrange(1, ring.p) for _ in perm] if ring.p > 2
             else [])
    out = []
    for g in gens:
        g = g.permute_variables(perm)
        for v, u in enumerate(units):
            g = g.substitute_scaled(v, u)
        out.append(g)
    return tuple(out)


def _hyp_classes(max_exp: int) -> list:
    return sorted({cusp_hyp_symmetry_class(t)
                   for t in itertools.product(range(2, max_exp + 1), repeat=3)
                   if cusp_hyp_admissible(*t)})


def _ci_classes(max_exp: int) -> list:
    return sorted({cusp_ci_symmetry_class(t)
                   for t in itertools.product(range(2, max_exp + 1), repeat=4)
                   if cusp_ci_admissible(*t)})


def _hyp_by_cost(p: int) -> list:
    ranked = [tuple(int(d, 16) for d in word)
              for word in _CUSP_HYP_BY_COST[p].split()]
    if sorted(ranked) != _hyp_classes(CUSP_HYP_MAX):
        raise RuntimeError(f"cost table for p={p} does not list every class")
    return ranked


def _hyp(p: int, cls, certificates: bool) -> Input:
    return Input(f"cusp_hyp p={p} {cls}", (make_cusp_hypersurface(p, *cls),),
                 certificates, (CUSP_EXPECTED.f_pure, CUSP_EXPECTED.f_liftable))


def _ci(p: int, cls) -> Input:
    return Input(f"cusp_ci p={p} {cls}", tuple(make_cusp_ci(p, *cls)), False,
                 (CUSP_EXPECTED.f_pure, CUSP_EXPECTED.f_liftable))


def _table_row(inst) -> Input:
    params = ",".join(f"{k}={v}" for k, v in inst.params)
    return Input(f"{inst.row.row_label} p={inst.p} {params}".rstrip(),
                 (inst.poly,), False,
                 (inst.expected.f_pure, inst.expected.f_liftable))


def _cusp_hyp_run(seed: int) -> list:
    """The classes of every pass of a cusp_hyp run."""
    inputs = []
    for p, (skip, fixed, nstrata) in CUSP_HYP_DRAW.items():
        ranked = _hyp_by_cost(p)
        rest = ranked[skip + fixed:]
        draw = random.Random(f"{seed}:cusp_hyp:draw:{p}")
        chosen = ranked[skip:skip + fixed] + [
            draw.choice(rest[s * len(rest) // nstrata:
                             (s + 1) * len(rest) // nstrata])
            for s in range(nstrata)]
        inputs += [_hyp(p, cls, False) for cls in chosen]
    return inputs


def _cusp_ci_pass() -> list:
    return [_ci(CUSP_CI_P, cls) for cls in _ci_classes(CUSP_CI_MAX)]


def _mix_pass() -> list:
    inputs = [_table_row(inst) for inst in enumerate_table_rows(MIX_TABLE_N_MAX)]
    for p, max_exp in MIX_CERTIFIED:
        inputs += [_hyp(p, cls, True) for cls in _hyp_classes(max_exp)]
    return inputs


def timed_pass(workload: str, seed: int, index: int,
               limit: int | None = None) -> list:
    """The inputs of pass `index` of a run, relabeled and shuffled.

    `limit` keeps that many classes, evenly spaced (self-test only).
    """
    if workload == "cusp_hyp":
        inputs = _cusp_hyp_run(seed)
    elif workload == "cusp_ci":
        inputs = _cusp_ci_pass()
    elif workload == "interactive_mix":
        inputs = _mix_pass()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if limit:
        inputs = inputs[::-(-len(inputs) // limit)]
    starts = random.Random(f"{seed}:{workload}:relabel")
    rng = random.Random(f"{seed}:{workload}:{index}")
    relabeled = []
    for inp in inputs:
        perms = list(itertools.permutations(range(inp.gens[0].ring.nvars)))
        perm = perms[(starts.randrange(len(perms)) + index) % len(perms)]
        relabeled.append(Input(inp.label, _relabel(inp.gens, perm, rng),
                               inp.certificates, inp.expected))
    rng.shuffle(relabeled)
    return relabeled


def warmup(workload: str) -> list:
    """Inputs on the workload's code paths that no timed pass contains."""
    if workload == "cusp_hyp":
        return [_hyp(3, cls, False) for cls in ((2, 3, 7), (2, 4, 5), (3, 3, 4))]
    if workload == "cusp_ci":
        return [_ci(CUSP_CI_P, cls)
                for cls in ((2, 2, 2, 7), (2, 3, 2, 7), (2, 2, 3, 7))]
    if workload == "interactive_mix":
        rows = {("D_n", 3), ("D_2n^{n-1}", 2), ("D_2n+1^0", 2)}
        inputs = [_table_row(inst)
                  for inst in enumerate_table_rows(MIX_TABLE_N_MAX + 1)
                  if (inst.row.family, inst.p) in rows
                  and dict(inst.params)["n"] == MIX_TABLE_N_MAX + 1]
        inputs += [_hyp(2, (2, 3, 11), True), _hyp(2, (2, 4, 11), True),
                   _hyp(3, (2, 3, 13), True)]
        return inputs
    raise ValueError(f"unknown workload {workload!r}")
