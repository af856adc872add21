"""Report-digest golden: the SHA-256 of every report's JSON, `timings_ms`
removed, on a fixed set of inputs that walks every route of `classify`.

The inputs are every `cusp_ci` class at p = 2, 3, 5 with exponents
<= 3, plain and certified (at p = 3 and 5, unlike p = 2, f_j^(p-1) is
not f_j, and a complete intersection's delta1 and cofactors read it);
every table row at n <= 4; every `cusp_hyp` class at p = 2, 3, 5
with exponents <= 6, plain and certified; certified E_8^1 at p = 5, an
F-pure nonmember decided under degrevlex; x^2+y^2+z^3+w^5 at p = 3,
plain and certified, an F-pure nonmember decided under the weights
(2, 2, 2, 1), whose remainder is theirs.  A changed byte
anywhere in a report, certified cofactors included, changes its
digest.

Regenerate with `PYTHONPATH=src python tests/test_report_digests.py`
only when a report is meant to change.
"""

import hashlib
import itertools
import json
from pathlib import Path

from fliftlab.catalog import (cusp_ci_admissible, cusp_ci_symmetry_class,
                              cusp_hyp_admissible, cusp_hyp_symmetry_class,
                              enumerate_table_rows, make_cusp_ci,
                              make_cusp_hypersurface, make_rdp)
from fliftlab.criteria import classify
from fliftlab.fp_poly import PolyRing
from fliftlab.report import report_to_dict

GOLDEN = Path(__file__).parent / "golden" / "report_digests.txt"


def digest_inputs():
    """(label, generators, certificates) of every pinned report."""
    ci = sorted({cusp_ci_symmetry_class(t)
                 for t in itertools.product(range(2, 4), repeat=4)
                 if cusp_ci_admissible(*t)})
    for p, t, cert in itertools.product((2, 3, 5), ci, (False, True)):
        yield f"cusp_ci p={p} {t} cert={cert}", make_cusp_ci(p, *t), cert
    for inst in enumerate_table_rows(4):
        params = ",".join(f"{k}={v}" for k, v in inst.params)
        yield f"{inst.row.row_label} p={inst.p} {params}".rstrip(), \
            [inst.poly], False
    hyp = sorted({cusp_hyp_symmetry_class(t)
                  for t in itertools.product(range(2, 7), repeat=3)
                  if cusp_hyp_admissible(*t)})
    for p, t, cert in itertools.product((2, 3, 5), hyp, (False, True)):
        yield f"cusp_hyp p={p} {t} cert={cert}", \
            [make_cusp_hypersurface(p, *t)], cert
    e81 = [make_rdp("E_8^1", 5)]
    yield "E_8^1 p=5 cert=True", e81, True
    weighted = [PolyRing("xyzw", 3).parse("x^2+y^2+z^3+w^5")]
    for cert in (False, True):
        yield f"x^2+y^2+z^3+w^5 p=3 cert={cert}", weighted, cert


def report_digest(gens, certificates) -> str:
    d = report_to_dict(classify(gens, certificates=certificates))
    del d["timings_ms"]
    return hashlib.sha256(json.dumps(d).encode()).hexdigest()


def digest_lines() -> list[str]:
    return [f"{report_digest(gens, cert)}  {label}"
            for label, gens, cert in digest_inputs()]


def test_reports_match_the_pinned_digests():
    want = GOLDEN.read_text().splitlines()
    got = digest_lines()
    assert len(got) == len(want)
    changed = [w.split("  ", 1)[1] for g, w in zip(got, want) if g != w]
    assert not changed, changed


if __name__ == "__main__":
    GOLDEN.write_text("\n".join(digest_lines()) + "\n")
