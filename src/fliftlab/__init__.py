"""fliftlab: decides F-purity and F-liftability of isolated hypersurface
and complete-intersection singularities over prime fields, with
machine-checkable certificates.
"""

from .fp_poly import (AmbientMismatchError, DegreeGuardError, FpPolyError,
                      NotPrimeError, ParseError, Poly, PolyRing,
                      UnknownVariableError, format_poly)
from .groebner import (GREVLEX, GroebnerBasis, ModuleVector,
                       MonomialOrder, buchberger, is_zero_dimensional,
                       module_buchberger, normal_form, quotient_dimension,
                       supported_only_at_origin)
from .frobsplit import (FrobeniusDecomposition, SplittingData, apply_sigma,
                        build_splitting, delta1, frobenius_decompose)
from .criteria import (Certificate, LiftabilityReport, classify,
                       isolated_singularity_check, residual_polynomial)
from .catalog import (ExpectedRecord, FamilySpec, TableInstance,
                      enumerate_table_rows, make_cusp_ci,
                      make_cusp_hypersurface, make_rdp)
from .report import report_from_dict, report_to_dict, report_to_json

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatchError", "Certificate", "DegreeGuardError",
    "ExpectedRecord", "FamilySpec", "FpPolyError", "FrobeniusDecomposition",
    "GREVLEX", "GroebnerBasis", "LiftabilityReport", "ModuleVector",
    "MonomialOrder", "NotPrimeError", "ParseError", "Poly", "PolyRing",
    "SplittingData", "TableInstance", "UnknownVariableError", "apply_sigma",
    "buchberger", "build_splitting", "classify", "delta1",
    "enumerate_table_rows", "format_poly",
    "frobenius_decompose", "isolated_singularity_check", "is_zero_dimensional",
    "make_cusp_ci", "make_cusp_hypersurface", "make_rdp", "module_buchberger",
    "normal_form", "quotient_dimension", "report_from_dict",
    "report_to_dict", "report_to_json", "residual_polynomial",
    "supported_only_at_origin",
]
