"""Certified Kobayashi/Carathéodory/squeezing-function bounds on Reinhardt
model domains in C^2, with staircase construction, inner smoothing, and
numerical estimators."""

from .domain import (
    LogPoint,
    PointC2,
    RadialProfile,
    ReinhardtDomain,
    boundary_distance_lower,
    domain_from_doc,
    domain_to_doc,
    annulus_model_domain,
)
from .errors import CertificationError, NumericalError, SqueezeError, ValidationError
from .metrics import (
    AffineLogMap,
    Bound,
    Direction,
    LevelModel,
    bound_to_record,
    caratheodory_upper_slices,
    check_sandwich,
    kobayashi_lower_shear,
    shear_normalize,
    squeezing_lower_inclusion,
    squeezing_upper_at_breakpoint,
    squeezing_upper_quotient,
)
from .construct import (
    ConstructionCertificate,
    ConstructionParams,
    LevelRecord,
    MarginSchedule,
    HarmonicSchedule,
    build,
    choose_exponent,
    level_constant,
    verify_model_annulus_inclusion,
)
from .smooth import (
    LeviReport,
    MollifiedProfile,
    SmoothDomain,
    certify_smoothed,
    levi_verify,
    smooth,
)
from .estimate import (
    BallModel,
    DiscCandidate,
    FunctionCandidate,
    OracleResult,
    PolydiscModel,
    caratheodory_lower_search,
    kobayashi_upper_search,
    monomial_disc_oracle,
    reference_metric,
)

__version__ = "0.1.0"
