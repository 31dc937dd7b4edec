"""Moreau envelopes, proximal mappings, and minimizer-preservation checks on R^n."""

import logging

from .envelope import (
    ProxBatch,
    ProxResult,
    envelope_gradient,
    moreau_envelope,
    prox_batch,
    prox_map,
    search_radius,
    shift_envelope_via_f,
)
from .functions import (
    CATALOG,
    FunctionSpec,
    KnownMinimizer,
    ProxBoundCertificate,
    QuadShift,
    catalog_function,
    quad_shift,
    validate_certificate,
)
from .minimizers import (
    MinimizerCertificate,
    VerificationReport,
    check_error_bound,
    check_min_transfer,
    check_prox_fixed_point,
    check_strong_transfer,
    estimate_strong_modulus,
    modulus_transform,
    modulus_transform_inv,
    verify_local_min,
)
from .optimize import (
    IterTrace,
    compare_traces,
    envelope_gd_run,
    ppm_gd_runs,
    proximal_point_run,
)
from .parsing import load_function_file, parse_function

# warnings (such as a coarsened grid) reach only handlers the caller adds
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "CATALOG",
    "FunctionSpec",
    "IterTrace",
    "KnownMinimizer",
    "MinimizerCertificate",
    "ProxBatch",
    "ProxBoundCertificate",
    "ProxResult",
    "QuadShift",
    "VerificationReport",
    "catalog_function",
    "check_error_bound",
    "check_min_transfer",
    "check_prox_fixed_point",
    "check_strong_transfer",
    "compare_traces",
    "envelope_gd_run",
    "envelope_gradient",
    "estimate_strong_modulus",
    "load_function_file",
    "modulus_transform",
    "modulus_transform_inv",
    "moreau_envelope",
    "parse_function",
    "ppm_gd_runs",
    "prox_batch",
    "prox_map",
    "proximal_point_run",
    "quad_shift",
    "search_radius",
    "shift_envelope_via_f",
    "validate_certificate",
    "verify_local_min",
]

__version__ = "0.1.0"
