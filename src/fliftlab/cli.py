"""Command-line front end.

Commands: classify ad-hoc equations, reproduce the rational-double-point
table, run cusp parameter sweeps, and verify the closed-form identities.
Output formats: text, json, csv, md.

Exit codes: 0 success (any verdict), 1 input/usage/parse error (also
table --check mismatches and identity failures), 2 resource limit
(degree guard), 3 criterion inapplicable (singular locus not isolated).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import signal
import sys
from dataclasses import dataclass
from multiprocessing import Pool

from . import catalog
from .catalog import (InadmissibleParameterError, cusp_ci_admissible,
                      cusp_ci_symmetry_class, cusp_hyp_admissible,
                      cusp_hyp_symmetry_class, enumerate_table_rows,
                      make_cusp_ci, make_cusp_hypersurface)
from .criteria import classify as _classify_gens
from .fp_poly import (DEFAULT_MAX_DEGREE, DegreeGuardError, FpPolyError,
                      NotPrimeError, ParseError, PolyRing, is_prime)
from .groebner import order_by_name
from .report import (csv_table, markdown_table, report_text, report_to_dict,
                     sweep_text, text_table)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESOURCE = 2
EXIT_INAPPLICABLE = 3
EXIT_INTERRUPTED = 130

CURSOR_FILE = ".fliftlab_cursor"

ENV_MAX_DEGREE = "FLIFTLAB_MAX_DEGREE"

SWEEP_FAMILIES = ("cusp_hyp", "cusp_ci")

FULL_RANGE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
FULL_RANGE_MAX = 30


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    """Validated invocation parameters; built before any computation."""

    command: str
    p_values: tuple[int, ...] = ()
    variables: tuple[str, ...] = ()
    polys: tuple[str, ...] = ()
    fmt: str = "text"
    order: str = "grevlex"
    jobs: int = 1
    max_degree: int = DEFAULT_MAX_DEGREE
    certificates: bool = False
    check: bool = False
    n_max: int = 8
    sweep_family: str = ""
    sweep_max: int = 0
    resume: bool = False
    full_range: bool = False


def _build_parser() -> _Parser:
    parser = _Parser(prog="fliftlab",
                     description="F-purity and F-liftability of isolated "
                                 "hypersurface and complete-intersection "
                                 "singularities over prime fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def output(sp):
        sp.add_argument("--format", default="text",
                        choices=("text", "json", "csv", "md"))
        sp.add_argument("--order", default="grevlex", choices=("grevlex", "lex"))

    sp = sub.add_parser("classify", help="classify ad-hoc equations")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--vars", required=True,
                    help="comma-separated variable names")
    sp.add_argument("--poly", action="append", required=True,
                    help="equation text; repeat for a complete intersection")
    sp.add_argument("--certificates", action="store_true")
    sp.add_argument("--max-degree", type=int, default=None)
    output(sp)

    sp = sub.add_parser("table", help="reproduce the RDP table")
    sp.add_argument("--n-max", type=int, default=8)
    sp.add_argument("--check", action="store_true",
                    help="compare with the expected columns; exit nonzero "
                         "on any mismatch")
    output(sp)

    sp = sub.add_parser("sweep", help="classify a cusp family over a range")
    sp.add_argument("family", choices=SWEEP_FAMILIES)
    sp.add_argument("--p", type=int, default=None)
    sp.add_argument("--p-set", default=None, help="comma-separated primes")
    sp.add_argument("--max", type=int, default=None,
                    help="upper bound for all exponents")
    sp.add_argument("--resume", action="store_true",
                    help="skip tuples up to the cursor file")
    sp.add_argument("--full-range", action="store_true",
                    help="p <= 19 and exponents <= 30 (hours-scale)")
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--max-degree", type=int, default=None)
    output(sp)

    sp = sub.add_parser("identity", help="verify the closed-form identities")
    sp.add_argument("--n-max", type=int, default=10)
    return parser


def _effective_max_degree(arg_value: int | None) -> int:
    if arg_value is not None:
        return arg_value
    env = os.environ.get(ENV_MAX_DEGREE)
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"{ENV_MAX_DEGREE} must be an integer, got {env!r}")
    return DEFAULT_MAX_DEGREE


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig(command=args.command)
    if "format" in args:
        cfg.fmt = args.format
        cfg.order = args.order
    if "max_degree" in args:
        cfg.max_degree = _effective_max_degree(args.max_degree)
        if cfg.max_degree < 1:
            raise UsageError("--max-degree must be positive")

    if args.command == "classify":
        if not is_prime(args.p):
            raise UsageError(f"{args.p} is not prime")
        cfg.p_values = (args.p,)
        variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
        if not variables:
            raise UsageError("--vars must name at least one variable")
        cfg.variables = variables
        cfg.polys = tuple(args.poly)
        cfg.certificates = args.certificates
    elif args.command == "table":
        if args.n_max < 1:
            raise UsageError("--n-max must be at least 1")
        cfg.n_max = args.n_max
        cfg.check = args.check
    elif args.command == "sweep":
        cfg.jobs = args.jobs
        if cfg.jobs < 1:
            raise UsageError("--jobs must be at least 1")
        cfg.sweep_family = args.family
        cfg.resume = args.resume
        cfg.full_range = args.full_range
        if cfg.full_range:
            cfg.p_values = FULL_RANGE_PRIMES
            cfg.sweep_max = FULL_RANGE_MAX
            if args.p is not None or args.p_set is not None or args.max is not None:
                raise UsageError("--full-range fixes --p/--p-set/--max")
        else:
            if (args.p is None) == (args.p_set is None):
                raise UsageError("sweep needs exactly one of --p or --p-set")
            if args.p is not None:
                primes = [args.p]
            else:
                try:
                    primes = [int(t) for t in args.p_set.split(",") if t.strip()]
                except ValueError:
                    raise UsageError(f"bad --p-set {args.p_set!r}")
                if not primes or len(set(primes)) != len(primes):
                    raise UsageError("--p-set must list distinct primes")
            for q in primes:
                if not is_prime(q):
                    raise UsageError(f"{q} is not prime")
            cfg.p_values = tuple(primes)
            if args.max is None or args.max < 2:
                raise UsageError("sweep needs --max >= 2")
            cfg.sweep_max = args.max
    elif args.command == "identity":
        if args.n_max < 2:
            raise UsageError("--n-max must be at least 2")
        cfg.n_max = args.n_max
    return cfg


# --------------------------------------------------------------------- classify

def _cmd_classify(cfg: RunConfig, out) -> int:
    ring = PolyRing(cfg.variables, cfg.p_values[0], cfg.max_degree)
    gens = [ring.parse(text) for text in cfg.polys]
    order = order_by_name(cfg.order)
    report = _classify_gens(gens, order=order, certificates=cfg.certificates)
    if cfg.fmt == "json":
        out.write(json.dumps([report_to_dict(report)], indent=2) + "\n")
    elif cfg.fmt == "csv":
        out.write(csv_table([_csv_row(report, "adhoc", ";".join(cfg.polys))]))
    elif cfg.fmt == "md":
        out.write(markdown_table(
            ("p", "generators", "F-pure", "F-liftable", "conclusive"),
            [(report.p, "; ".join(report.generators), report.f_pure,
              report.f_liftable, report.conclusive)]))
    else:
        out.write(report_text(report) + "\n")
    if report.status == "not_isolated":
        return EXIT_INAPPLICABLE
    return EXIT_OK


def _csv_row(report, family: str, params: str) -> tuple:
    return (report.p, family, params, report.f_pure, report.f_liftable,
            report.conclusive, report.timings_ms.get("total", 0.0))


# --------------------------------------------------------------------- table

def _cmd_table(cfg: RunConfig, out) -> int:
    order = order_by_name(cfg.order)
    rows = []
    mismatches = 0
    for inst in enumerate_table_rows(cfg.n_max):
        report = _classify_gens([inst.poly], order=order)
        expected = inst.expected
        ok = (report.f_pure, report.f_liftable) == \
            (expected.f_pure, expected.f_liftable)
        if not ok:
            mismatches += 1
        rows.append((inst, report, ok))

    if cfg.fmt == "json":
        payload = []
        for inst, report, ok in rows:
            d = report_to_dict(report)
            d["family"] = inst.row.row_label
            d["params"] = inst.param_dict()
            d["expected"] = {"f_pure": inst.expected.f_pure,
                             "f_liftable": inst.expected.f_liftable}
            d["match"] = ok
            payload.append(d)
        out.write(json.dumps(payload, indent=2) + "\n")
    elif cfg.fmt == "csv":
        out.write(csv_table(
            [_csv_row(report, inst.row.row_label,
                      ";".join(f"{k}={v}" for k, v in inst.params))
             for inst, report, ok in rows]))
    else:
        header = ("p", "type", "params", "equation", "F-pure", "F-liftable",
                  "F-regular (lit.)", "RET (lit.)", "LET (lit.)")
        body = [(inst.p, inst.row.row_label,
                 ",".join(f"{k}={v}" for k, v in inst.params) or "-",
                 inst.equation_text, report.f_pure, report.f_liftable,
                 inst.expected.f_regular_ref, inst.expected.ret_ref,
                 inst.expected.let_ref)
                for inst, report, ok in rows]
        render = markdown_table if cfg.fmt == "md" else text_table
        out.write(render(header, body))
    if cfg.check:
        out.write(f"check: {mismatches} mismatches\n")
        if mismatches:
            return EXIT_INPUT
    return EXIT_OK


# --------------------------------------------------------------------- sweep

def _sweep_tuples(cfg: RunConfig):
    """All admissible tuples in deterministic order: (p, exponents)."""
    if cfg.sweep_family == "cusp_hyp":
        admissible, arity = cusp_hyp_admissible, 3
    else:
        admissible, arity = cusp_ci_admissible, 4
    exponents = range(2, cfg.sweep_max + 1)
    return [(p, t) for p in cfg.p_values
            for t in itertools.product(exponents, repeat=arity)
            if admissible(*t)]


def _sweep_worker(task):
    family, p, cls, max_degree, order_name = task
    if family == "cusp_hyp":
        gens = [make_cusp_hypersurface(p, *cls, max_degree=max_degree)]
    else:
        gens = make_cusp_ci(p, *cls, max_degree=max_degree)
    report = _classify_gens(gens, order=order_by_name(order_name))
    return (family, p, cls, report.status, report.f_pure, report.f_liftable,
            report.conclusive, report.timings_ms.get("total", 0.0))


def _cursor_text(family, p, exponents) -> str:
    return " ".join([family, str(p)] + [str(e) for e in exponents])


def _read_cursor() -> tuple | None:
    try:
        with open(CURSOR_FILE, "r", encoding="utf-8") as fh:
            parts = fh.read().split()
    except OSError:
        return None
    if len(parts) < 3:
        return None
    return (parts[0], int(parts[1]), tuple(int(t) for t in parts[2:]))


def _write_cursor(family, p, exponents) -> None:
    """Replace the cursor file atomically: write a temporary file, then
    rename it over the cursor.  A write that fails leaves the previous
    cursor in place and removes the temporary file."""
    tmp = CURSOR_FILE + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_cursor_text(family, p, exponents) + "\n")
        os.replace(tmp, CURSOR_FILE)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


@contextlib.contextmanager
def _sigterm_interrupts():
    """SIGTERM stops the block as SIGINT does, by KeyboardInterrupt; the
    previous handler is back in place afterwards."""
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _cmd_sweep(cfg: RunConfig, out) -> int:
    family = cfg.sweep_family
    symmetry = (cusp_hyp_symmetry_class if family == "cusp_hyp"
                else cusp_ci_symmetry_class)
    tuples = _sweep_tuples(cfg)
    if cfg.resume:
        cursor = _read_cursor()
        if cursor is not None and cursor[0] == family:
            try:
                idx = tuples.index((cursor[1], cursor[2]))
                tuples = tuples[idx + 1:]
            except ValueError:
                pass

    # classify one representative per symmetry class; verdicts transfer
    # along variable relabelings
    classes = sorted({(p, symmetry(t)) for p, t in tuples})
    tasks = [(family, p, cls, cfg.max_degree, cfg.order) for p, cls in classes]
    results: dict[tuple, tuple] = {}

    interrupted = False
    try:
        if cfg.jobs > 1 and len(tasks) > 1:
            # the handler goes in after the workers start, so that they
            # keep the default one and Pool.terminate() still stops them
            with Pool(cfg.jobs) as pool, _sigterm_interrupts():
                for res in pool.imap(_sweep_worker, tasks, chunksize=4):
                    results[(res[1], res[2])] = res
        else:
            with _sigterm_interrupts():
                for task in tasks:
                    res = _sweep_worker(task)
                    results[(res[1], res[2])] = res
    except KeyboardInterrupt:
        interrupted = True

    emitted = []
    last = None
    for p, t in tuples:
        key = (p, symmetry(t))
        if key not in results:
            break
        emitted.append((p, t) + results[key][3:])
        last = (p, t)

    non_liftable = [(p, t) for (p, t, status, pure, lift, concl, ms) in emitted
                    if lift is not True]
    if cfg.fmt == "json":
        payload = {
            "version": "fliftlab/1", "command": "sweep", "family": family,
            "results": [
                {"p": p, "params": list(t), "status": status, "f_pure": pure,
                 "f_liftable": lift, "conclusive": concl, "ms": ms}
                for (p, t, status, pure, lift, concl, ms) in emitted],
            "summary": {"total": len(emitted),
                        "liftable": len(emitted) - len(non_liftable),
                        "non_liftable": [
                            {"p": p, "params": list(t)} for p, t in non_liftable]},
        }
        out.write(json.dumps(payload, indent=2) + "\n")
    elif cfg.fmt == "csv":
        out.write(csv_table(
            [(p, family, ";".join(f"{n}={v}" for n, v in zip("abcd", t)),
              pure, lift, concl, ms)
             for (p, t, status, pure, lift, concl, ms) in emitted]))
    else:
        arity = 3 if family == "cusp_hyp" else 4
        if cfg.fmt == "md":
            out.write(markdown_table(
                ("p", *"abcd"[:arity], "F-pure", "F-liftable", "conclusive"),
                [(p, *t, pure, lift, concl)
                 for (p, t, status, pure, lift, concl, ms) in emitted]))
        else:
            out.write(sweep_text(
                [(p, t, pure, lift, concl, ms)
                 for (p, t, status, pure, lift, concl, ms) in emitted]))
        out.write(f"summary: {len(emitted)} tuples, "
                  f"{len(emitted) - len(non_liftable)} liftable, "
                  f"{len(non_liftable)} not liftable\n")
        for p, t in non_liftable:
            out.write(f"NOT LIFTABLE: p={p} {tuple(t)}\n")

    if interrupted:
        if last is not None:
            _write_cursor(family, last[0], last[1])
            # on stderr, so that the rows on stdout still parse
            print(f"interrupted; cursor at "
                  f"{_cursor_text(family, last[0], last[1])}", file=sys.stderr)
        return EXIT_INTERRUPTED
    return EXIT_OK


# --------------------------------------------------------------------- identity

def _identity_cases(n_max: int):
    from .criteria import residual_polynomial
    from .frobsplit import delta1

    cases = []
    for n in range(2, n_max + 1):
        ring = PolyRing(catalog.RDP_VARIABLES, 2)
        x, y, z = ring.gens()
        f = z ** 2 + x ** 2 * y + x * y ** n + x * y * z
        fz = f.derivative(2)
        target = z ** 2 * f + (x ** 2 + x * y ** (n - 1) + x * z +
                               y ** (2 * n - 2) + y ** (n - 1) * z) * fz * fz
        cases.append((f"D_2n^{{n-1}} identity, n={n}",
                      lambda f=f: residual_polynomial(f), target))
    for n in range(2, n_max + 1):
        ring = PolyRing(catalog.RDP_VARIABLES, 2)
        x, y, z = ring.gens()
        f = z ** 2 + x ** 2 * y + y ** n * z + x * y * z
        fx = f.derivative(0)
        fz = f.derivative(2)
        target = ((z ** 2 + y ** (2 * n - 1)) * f +
                  (x ** 2 + x * y ** (n - 1) + y ** (2 * n - 3)) * fx * fx +
                  (x ** 2 + z ** 2 + x * z + y ** (n - 1) * z) * fz * fz)
        cases.append((f"D_2n+1^{{n-1}} identity, n={n}",
                      lambda f=f: residual_polynomial(f), target))
    for (a, b, c) in ((3, 4, 5), (2, 3, 7), (3, 3, 4)):
        ring = PolyRing(catalog.RDP_VARIABLES, 2)
        x, y, z = ring.gens()
        f = make_cusp_hypersurface(2, a, b, c)
        target = (x ** a * y ** b + x ** a * z ** c + y ** b * z ** c +
                  x * y * z * (x ** a + y ** b + z ** c))
        cases.append((f"cusp delta1 expansion, (a,b,c)=({a},{b},{c})",
                      lambda f=f: delta1(f), target))
    return cases


def _cmd_identity(cfg: RunConfig, out) -> int:
    for label, compute, target in _identity_cases(cfg.n_max):
        got = compute()
        if got != target:
            out.write(f"FAIL {label}\n  computed: {got}\n  expected: {target}\n")
            return EXIT_INPUT
        out.write(f"ok {label}\n")
    return EXIT_OK


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = _build_parser()
    out = sys.stdout
    try:
        args = parser.parse_args(argv)
        cfg = _config_from_args(args)
        if cfg.command == "classify":
            return _cmd_classify(cfg, out)
        if cfg.command == "table":
            return _cmd_table(cfg, out)
        if cfg.command == "sweep":
            return _cmd_sweep(cfg, out)
        return _cmd_identity(cfg, out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ParseError, NotPrimeError, InadmissibleParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegreeGuardError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except FpPolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
