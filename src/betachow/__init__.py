"""Exact-arithmetic toolkit for blow-ups of projective space.

Computes Chow intersection numbers on blow-ups of P^n at points, beta
constants (exact closed forms, section-count estimates, and Autissier-style
lower bounds), local Weil heights over Q, and runs desk-scale searches for
S-integer divisibility and ideal-equality predicates together with
Zariski-degeneracy reports.

Every predicate and verdict is computed in exact rational arithmetic;
floating point appears only when rendering logarithms for humans.
"""

# first: reporting reads it with `from . import __version__`,
# so it must be set before any submodule is imported
__version__ = "0.1.0"

from .primes import FactorizationBoundError, factor, is_prime, vp
from .poly import MultiPoly, hyperplanes_general_position, parse_poly
from .linalg import kernel_basis, rank
from .chow import (
    BlowupConfig,
    CurveClass,
    DivisorClass,
    NefResult,
    config_classes,
    cyclic_config,
    marked_config,
    nef_test,
    top_intersection,
)
from .beta import (
    AutissierInput,
    beta_autissier_lower,
    beta_exact_cyclic,
    beta_numeric_cyclic,
    countinglambda_rhs,
    f_poly,
    g_aut,
)
from .heights import (
    ProjPoint,
    SRing,
    height,
    proximity_counting,
    weil_local,
    weil_subscheme,
)
from .search import (
    SearchBox,
    SolutionSet,
    degeneracy_report,
    run_search,
    search_spec,
    vanishing_forms,
)
