"""Fixed points of enriched contractions in 2-normed spaces.

The package certifies (b, theta)-enriched contractivity of a self-map, turns
the certificate into the averaged Krasnoselskij iteration with factor
d = theta/(b+1), and drives it to the unique fixed point with a posteriori
stopping and a priori tail bounds, all measured in a 2-norm against a finite
witness set.
"""

from .space import (
    AxiomReport,
    AxiomViolation,
    Box,
    NonFiniteError,
    SpaceElement,
    SpaceKind,
    TwoNormBall,
    TwoNormSpace,
    WitnessSet,
    check_axioms,
    cross2_norm,
    cross2_space,
    gram_norm,
    gram_space,
    seminorm,
    standard_basis,
    two_norm,
    two_norm_batch,
    witness_norms,
    witness_residual,
)
from .mapping import (
    Averaged,
    Iterated,
    PiecewiseTwoSet,
    Reflection,
    ScalarAffine,
    SelfMap,
    SupNormRegion,
    averaged,
    default_piecewise,
    iterated,
)
from .analyzer import (
    EnrichedCertificate,
    NotCertifiableError,
    Provenance,
    ThetaEstimate,
    certify,
    estimate_theta,
    map_slope,
    optimize_b,
    theta_scalar_affine,
)
from .solver import (
    SolveConfig,
    SolveReport,
    SolveStatus,
    Trace,
    TraceRow,
    aposteriori_step_threshold,
    apriori_bound,
    asymptotic_solve,
    detect_cycle,
    krasnoselskij_solve,
    local_ball_solve,
    picard_solve,
)

__version__ = "0.1.0"
