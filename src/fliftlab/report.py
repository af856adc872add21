"""Classification reports (`LiftabilityReport` and its `Certificate`), their
JSON form (schema "fliftlab/1"), and the one renderer per format that the
commands share: JSON text, CSV and markdown tables, aligned text tables and
plain text.  Only `fp_poly` is imported, so reading a report loads no engine.

Every JSON output, a report's and the CLI's, is written by `json_text`,
whose text is byte-identical to `json.dumps(value, indent=2)`; it writes
the layout itself and encodes strings with the json module's C encoder.

JSON schema (stable, versioned):
  { version, p, variables: [...], generators: [...], status, f_pure,
    f_liftable, conclusive, order,
    certificate: { fedder_survivor, sigma_trace_constant, g: [...],
                   remainder, cofactors? } | null,
    timings_ms: { isolated, fedder, delta1, groebner, total } }

`order` names the monomial order that the screen, the remainder and
the certified cofactors ran under: "grevlex" (degrevlex), or
"grevlex:w_1,...,w_n" (degrevlex after the weighted degree with
weights w_v, as in "grevlex:4,2,1").

`timings_ms.delta1` times the whole residual stage: delta1(f_i), sigma
of it, the p-th powers and s^p * delta1(f_i); the key keeps its name.
For one f, `fedder` forms f^(p-1) over Z/p^2, and delta1 one product by f.

Polynomials appear as canonical text; a complete-intersection remainder
is the coordinate list joined into a vector "(r1, r2)".  Certificates
make every verdict independently re-checkable.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str
from math import isfinite

from .fp_poly import (DEFAULT_MAX_DEGREE, Poly, PolyRing, format_monomial,
                      format_poly)

SCHEMA_VERSION = "fliftlab/1"

CSV_HEADER = "p,family,params,f_pure,f_liftable,conclusive,ms"

_TIMING_KEYS = ("isolated", "fedder", "delta1", "groebner", "total")

# a variable and its exponent, which is 1 when none is written
_FACTOR_RE = re.compile(r"[A-Za-z_]\w*(?:\^(\d+))?")


@dataclass(frozen=True)
class Certificate:
    """Evidence backing a verdict: the Fedder witness monomial, the trace
    constant sigma(F_*1)(0), the canonical g (one per generator), the
    membership remainder and, when requested, cofactors re-expanding the
    residual over the test generators.
    """

    fedder_survivor: tuple[int, ...] | None
    sigma_trace_constant: int
    g: tuple[Poly, ...] | None = None
    remainder: tuple[Poly, ...] | None = None
    cofactors: tuple[Poly, ...] | None = None


@dataclass(frozen=True)
class LiftabilityReport:
    p: int
    variables: tuple[str, ...]
    generators: tuple[str, ...]
    status: str  # smooth | not_isolated | classified
    f_pure: bool | None
    f_liftable: bool | None
    conclusive: bool
    certificate: Certificate | None
    timings_ms: dict
    order: str = "grevlex"

    def __post_init__(self):
        if self.f_liftable and not self.f_pure:
            raise ValueError("inconsistent report: F-liftable but not F-pure")


def _vector_text(texts: list[str]) -> str:
    return texts[0] if len(texts) == 1 else "(" + ", ".join(texts) + ")"


def certificate_to_dict(cert: Certificate | None, variables) -> dict | None:
    if cert is None:
        return None
    out = {
        "fedder_survivor": (format_monomial(cert.fedder_survivor, tuple(variables))
                            if cert.fedder_survivor is not None else None),
        "sigma_trace_constant": cert.sigma_trace_constant,
        "g": [format_poly(g) for g in cert.g] if cert.g is not None else None,
        "remainder": (_vector_text([format_poly(q) for q in cert.remainder])
                      if cert.remainder is not None else None),
    }
    if cert.cofactors is not None:
        out["cofactors"] = [format_poly(c) for c in cert.cofactors]
    return out


def report_to_dict(report: LiftabilityReport) -> dict:
    return {
        "version": SCHEMA_VERSION,
        "p": report.p,
        "variables": list(report.variables),
        "generators": list(report.generators),
        "status": report.status,
        "f_pure": report.f_pure,
        "f_liftable": report.f_liftable,
        "conclusive": report.conclusive,
        "order": report.order,
        "certificate": certificate_to_dict(report.certificate, report.variables),
        "timings_ms": {k: report.timings_ms.get(k, 0.0) for k in _TIMING_KEYS},
    }


def report_from_dict(d: dict) -> LiftabilityReport:
    """Rebuild a report from its JSON form (round-trip support).

    Certificate polynomials are reparsed in a reconstructed ring whose
    degree guard is the default or, if larger, the largest degree of a
    term in the certificate's JSON text, cut into terms at `+`, `,`, `"`.
    """
    if d.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report version {d.get('version')!r}")
    cd = d.get("certificate")
    guard = max(DEFAULT_MAX_DEGREE, *(
        sum(int(e or 1) for e in _FACTOR_RE.findall(term))
        for term in re.split('[+,"]', json.dumps(cd))))
    ring = PolyRing(d["variables"], d["p"], guard)
    cert = None
    if cd is not None:
        survivor = (next(iter(ring.parse(cd["fedder_survivor"]).terms))
                    if cd.get("fedder_survivor") else None)
        g = tuple(map(ring.parse, cd.get("g") or ())) or None
        # a vector "(r1, r2)" or one coordinate, which holds no ", "
        rem = cd.get("remainder")
        remainder = (None if rem is None else
                     tuple(map(ring.parse, rem.strip("()").split(", "))))
        cofactors = tuple(map(ring.parse, cd.get("cofactors") or ())) or None
        cert = Certificate(fedder_survivor=survivor,
                           sigma_trace_constant=cd["sigma_trace_constant"],
                           g=g, remainder=remainder, cofactors=cofactors)
    return LiftabilityReport(
        p=d["p"], variables=tuple(d["variables"]),
        generators=tuple(d["generators"]), status=d["status"],
        f_pure=d["f_pure"], f_liftable=d["f_liftable"],
        conclusive=d["conclusive"], certificate=cert,
        timings_ms=dict(d["timings_ms"]), order=d.get("order", "grevlex"))


def _json_at(value, nl: str) -> str:
    """`value` as `json.dumps(value, indent=2)` writes it on a line that
    starts with `nl`.  Non-empty dicts with `str` keys, lists and tuples,
    and `str`, `int`, finite `float`, `bool` and None are written here with
    the json encoder's own leaf functions; any other value (a subclass, a
    non-finite float) goes to `json.dumps`, its lines shifted to `nl`."""
    t = type(value)
    if t is str:
        return _encode_str(value)
    if t is dict and value:
        inner = nl + "  "
        try:
            return ("{" + inner + ("," + inner).join([
                _encode_str(k) + ": " + _json_at(v, inner)
                for k, v in value.items()]) + nl + "}")
        except TypeError:  # a key that is not a str
            pass
    elif (t is list or t is tuple) and value:
        inner = nl + "  "
        return ("[" + inner + ("," + inner).join([
            _json_at(v, inner) for v in value]) + nl + "]")
    elif value is None:
        return "null"
    elif t is bool:
        return "true" if value else "false"
    elif t is int:
        return int.__repr__(value)
    elif t is float and isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, indent=2).replace("\n", nl)


def json_text(value) -> str:
    """The one JSON layout of every output, byte-identical to
    `json.dumps(value, indent=2)`, which also decides every error: a
    cycle, too deep a nesting or a value JSON cannot hold."""
    try:
        return _json_at(value, "\n")
    except RecursionError:
        return json.dumps(value, indent=2)


def report_to_json(report: LiftabilityReport) -> str:
    return json_text(report_to_dict(report))


def _yn(v: bool | None) -> str:
    if v is None:
        return "-"
    return "Y" if v else "N"


def _cell(v) -> str:
    """Y/N/- for a verdict field, str() for anything else."""
    return _yn(v) if v is None or isinstance(v, bool) else str(v)


def csv_table(rows) -> str:
    """CSV_HEADER, then one line per (p, family, params, f_pure,
    f_liftable, conclusive, ms) row."""
    lines = [CSV_HEADER]
    lines += [",".join(_cell(c) for c in cells) + f",{ms:.1f}"
              for *cells, ms in rows]
    return "\n".join(lines) + "\n"


def markdown_table(header, rows) -> str:
    """A `|` inside a cell is escaped as `\\|`, so it splits no column."""
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines += ["| " + " | ".join(_cell(c).replace("|", "\\|") for c in row)
              + " |" for row in rows]
    return "\n".join(lines) + "\n"


def text_table(header, rows) -> str:
    """Columns padded to their widest cell, trailing blanks stripped."""
    body = [[_cell(c) for c in row] for row in rows]
    widths = [max([len(h), *(len(r[i]) for r in body)])
              for i, h in enumerate(header)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
                   + "\n" for row in [header, *body])


def sweep_text(rows) -> str:
    """One line per (p, exponents, f_pure, f_liftable, conclusive, ms) row."""
    return "".join(f"p={p} {tuple(t)}: F-pure={_yn(pure)} "
                   f"F-liftable={_yn(lift)} conclusive={_yn(concl)} "
                   f"({ms:.1f} ms)\n"
                   for p, t, pure, lift, concl, ms in rows)


def report_text(report: LiftabilityReport) -> str:
    """The fields of `report_to_dict`, one a line."""
    d = report_to_dict(report)
    lines = [
        f"p             : {d['p']}",
        f"variables     : {', '.join(d['variables'])}",
    ]
    for i, g in enumerate(d["generators"]):
        label = "generator" if len(d["generators"]) == 1 else f"generator {i+1}"
        lines.append(f"{label:<14}: {g}")
    lines += [
        f"status        : {d['status']}",
        f"F-pure        : {_yn(d['f_pure'])}",
        f"F-liftable    : {_yn(d['f_liftable'])}",
        f"conclusive    : {_yn(d['conclusive'])}",
        f"order         : {d['order']}",
    ]
    cert = d["certificate"]
    if cert is not None:
        lines.append(f"fedder witness: {cert['fedder_survivor'] or '-'}")
        lines.append(f"sigma(1)(0)   : {cert['sigma_trace_constant']}")
        if cert["g"] is not None:
            lines.append(f"g             : {_vector_text(cert['g'])}")
        if cert["remainder"] is not None:
            lines.append(f"remainder     : {cert['remainder']}")
        if "cofactors" in cert:
            lines.append("cofactors     : " + "; ".join(cert["cofactors"]))
    lines.append(f"time          : {d['timings_ms']['total']:.1f} ms")
    return "\n".join(lines)
