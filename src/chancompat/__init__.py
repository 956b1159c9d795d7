"""Constructive certification of compatibility, divisibility and
degradability of finite-dimensional quantum channels."""

from .channels import (
    Channel,
    KrausSet,
    StinespringIsometry,
    amplitude_damping,
    apply,
    choi_distance,
    choi_from_kraus,
    complementary,
    completely_depolarizing,
    compose_choi,
    identity,
    isometry_from_kraus,
    kraus_from_choi,
    kraus_from_isometry,
    random_channel,
    random_kraus,
    random_unitary,
    self_complementary_qubit,
    tensor,
    trace_out_pair,
    unitary_channel,
    validate_channel,
)
from .feasibility import FeasibilityReport, SolverConfig, Status, solve
from .analysis import (
    check_antidegradable,
    check_compatibility,
    check_degradable,
    check_divisibility,
    check_family_divisibility,
    check_self_degradable,
    compatibilizer_from_postprocessing,
    compatibilizer_via_antidegradability,
    postprocessing_from_compatibilizer,
    quotient_via_degradability,
    verify_no_catalysis,
)

__version__ = "0.1.0"
