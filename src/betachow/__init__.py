"""Exact-arithmetic toolkit for blow-ups of projective space.

Computes Chow intersection numbers on blow-ups of P^n at points, beta
constants (exact closed forms, section-count estimates, and Autissier-style
lower bounds), local Weil heights over Q, and runs desk-scale searches for
S-integer divisibility and ideal-equality predicates together with
Zariski-degeneracy reports.

Every predicate and verdict is computed in exact rational arithmetic;
floating point appears only when rendering logarithms for humans.
"""

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
    strict_transform,
    top_intersection,
)
from .beta import (
    AutissierInput,
    BetaReport,
    autissier_h0_lower,
    beta_autissier_lower,
    beta_exact_cyclic,
    beta_numeric_cyclic,
    countinglambda_rhs,
    f_poly,
    g_aut,
)
from .heights import (
    ARCH,
    LocalHeight,
    MkConstant,
    Place,
    ProjPoint,
    height,
    make_place_set,
    product_over_places,
    proximity_counting,
    theoremkey_condition,
    weil_local,
    weil_subscheme,
)
from .search import (
    SearchBox,
    SolutionSet,
    SRing,
    degeneracy_report,
    run_search,
    search_spec,
    vanishing_forms,
)
