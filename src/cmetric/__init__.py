"""Invariant distances on disk-like complex domains, contraction certificates
for nested domains, and a certified holomorphic fixed-point solver.

The pieces fit together like this: :mod:`~cmetric.metric_core` provides the
Poincare distance on the unit disk; :mod:`~cmetric.domains` extends it to
exact Caratheodory distances on scaled/affine disks, polydisks and their
affine images; :mod:`~cmetric.contraction` certifies that a domain nested
strictly inside another contracts the ambient metric by k = tanh(diameter);
and :mod:`~cmetric.fixed_point` turns that constant into geometric-rate
iteration with certified error bounds.  :mod:`~cmetric.holomaps` supplies the
structurally holomorphic maps everything is checked against, and
:mod:`~cmetric.cli` exposes the lot as the ``cmetric`` command.
"""

from .errors import (
    BoundednessError,
    CapabilityError,
    CmetricError,
    DomainError,
    HypothesisError,
    NonConvergenceError,
    NumericError,
    ParseError,
    StructuralError,
)
from .metric_core import (
    atanh_stable,
    atanh_derivative,
    atanh_second_derivative,
    convexity_margin,
    poincare_distance,
    poincare_distance_many,
)
from .domains import (
    AffineDiskImage,
    AffineImage,
    Domain,
    Point,
    Polydisk,
    SampleStream,
    ScaledDisk,
    UnitDisk,
    as_point,
)
from .holomaps import (
    Affine,
    Compose,
    DiagonalProduct,
    HoloMap,
    Identity,
    ImageBoundReport,
    Mobius,
    Polynomial,
    ScalarScale,
    image_bound,
    random_selfmap,
    schwarz_pick_gap,
)
from .contraction import (
    ContractionCertificate,
    NestingReport,
    contraction_constant,
    diameter,
    verify_nesting,
    witness_lower_bound,
)
from .fixed_point import (
    FixedPointProblem,
    FixedPointResult,
    required_iterations,
    solve,
    step_contraction_check,
    uniqueness_probe,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CmetricError",
    "ParseError",
    "DomainError",
    "StructuralError",
    "CapabilityError",
    "HypothesisError",
    "BoundednessError",
    "NumericError",
    "NonConvergenceError",
    # metric core
    "atanh_stable",
    "atanh_derivative",
    "atanh_second_derivative",
    "convexity_margin",
    "poincare_distance",
    "poincare_distance_many",
    # domains
    "Point",
    "as_point",
    "SampleStream",
    "Domain",
    "UnitDisk",
    "ScaledDisk",
    "AffineDiskImage",
    "Polydisk",
    "AffineImage",
    # holomorphic maps
    "HoloMap",
    "Identity",
    "Mobius",
    "Polynomial",
    "Affine",
    "DiagonalProduct",
    "Compose",
    "ScalarScale",
    "ImageBoundReport",
    "schwarz_pick_gap",
    "image_bound",
    "random_selfmap",
    # contraction
    "ContractionCertificate",
    "NestingReport",
    "diameter",
    "contraction_constant",
    "witness_lower_bound",
    "verify_nesting",
    # fixed point
    "FixedPointProblem",
    "FixedPointResult",
    "required_iterations",
    "step_contraction_check",
    "solve",
    "uniqueness_probe",
]
