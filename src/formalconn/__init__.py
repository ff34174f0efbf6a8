"""formalconn: exact analysis of formal meromorphic connections.

Truncated Laurent arithmetic over Q or cyclotomic fields, parahoric
filtrations of standard lattice chains, fundamental and regular strata,
slope computation, diagonalization to formal types, affine Weyl orbit
equivalence, and global assembly of connections on the projective line.
"""

from .errors import (DuplicatePoints, EmptyComposition, FormalConnError,
                     GcdViolation, IrreducibleStratum, NonsplitField,
                     NotInFiltration, NotRegular, NotSplit, ParseError,
                     PrecisionError, ResidueNonzero, ShapeMismatch,
                     SingularGauge, UnsupportedDepth, ZeroLeading)
from .scalars import format_scalar, get_field, parse_scalar
from .series import (INF, LaurentScalar, OneForm, default_precision, residue,
                     set_default_precision)
from .matrices import LaurentMatrix, pairing
from .parahoric import (LatticeChain, ParahoricContext, filtration_degree,
                        graded_component, standard_chain)
from .strata import (RegularityReport, Stratum, StratumCharPoly, is_fundamental,
                     is_regular, reduce_stratum, split_stratum,
                     stratum_char_poly)
from .torus import (ToralElement, TorusData, delta_kernel_dimension,
                    graded_ad_solve, tame_corestriction)
from .connections import (DiagonalizationResult, FormalConnection,
                          contained_stratum, diagonalize, fundamental_stratum,
                          gauge_transform, slope, split_connection)
from .formal_types import (FormalType, WeylElement, orbit_equivalent,
                           validate_formal_type, weyl_act, weyl_half_sum)
from .moduli import (GlobalConfig, GlobalRationalMatrix, PrincipalPart,
                     assemble_global, check_framing, moment_map,
                     orbit_dimensions, regular_singular_orbit_dimensions)
# No library path uses omodule.  bench/tracing.py wraps its column_echelon
# by name after importing formalconn.cli, so the package loads it until
# the benchmark change of ROADMAP item 5 drops that target and this line.
from . import omodule

__version__ = "0.1.0"

__all__ = [
    "DiagonalizationResult", "DuplicatePoints", "EmptyComposition",
    "FormalConnError", "FormalConnection", "FormalType", "GcdViolation",
    "GlobalConfig", "GlobalRationalMatrix", "INF", "IrreducibleStratum",
    "LatticeChain", "LaurentMatrix", "LaurentScalar", "NonsplitField",
    "NotInFiltration", "NotRegular", "NotSplit", "OneForm",
    "ParahoricContext", "ParseError", "PrecisionError", "PrincipalPart",
    "RegularityReport", "ResidueNonzero", "ShapeMismatch", "SingularGauge",
    "Stratum", "StratumCharPoly", "ToralElement", "TorusData",
    "UnsupportedDepth", "WeylElement", "ZeroLeading", "assemble_global",
    "check_framing", "contained_stratum", "default_precision",
    "delta_kernel_dimension", "diagonalize", "filtration_degree",
    "format_scalar", "fundamental_stratum", "gauge_transform", "get_field",
    "graded_ad_solve", "graded_component", "is_fundamental", "is_regular",
    "moment_map", "omodule", "orbit_dimensions", "orbit_equivalent", "pairing",
    "parse_scalar", "reduce_stratum", "regular_singular_orbit_dimensions",
    "residue", "set_default_precision", "slope", "split_connection",
    "split_stratum", "standard_chain", "stratum_char_poly",
    "tame_corestriction", "validate_formal_type", "weyl_act",
    "weyl_half_sum",
]
