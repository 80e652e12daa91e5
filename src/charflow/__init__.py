"""Certified ReLU-network surrogates for parametric transport problems."""

from .relu_net import (
    AffineLayer,
    ReluNetwork,
    affine_net,
    compose,
    parallelize,
)
from .lip_interp import (
    GridSpec,
    InterpolantNet,
    SampledFunction,
    hat1d,
    lip_stable_net,
    product_net,
    tensor_hat,
)
from .comp_calculus import (
    CompRep,
    GenericFactor,
    GrowthFunction,
    IdentityFactor,
    LinearFactor,
    MultilinearFactor,
    Regularizer,
    complexity,
    compose_reps,
    gamma_inverse,
    implant,
    s_infinity,
    sum_reps,
)
from .budget import AFFINE, GENERAL, schedule, solution_schedule
from .transport_core import (
    AffineConvection,
    CharNetwork,
    GeneralConvection,
    MacroGrid,
    SolutionNetwork,
    TransportProblem,
    build_char_net,
    build_solution_net,
    lipschitz_certificate,
)
from .oracle import (
    OdeConfig,
    OracleToleranceError,
    rk4_char,
    solution_oracle,
)

__version__ = "0.1.0"
