"""Toolkit for finite semimetric and b-metric spaces.

Computes structural constants (relaxation, relaxed-polygonal, doubling,
weak doubling), builds chain-metric and snowflake remetrizations, and
constructs certified low-distortion embeddings into Euclidean space.
"""

from .spaces import (
    SemimetricSpace,
    StructuralError,
    ValidationReport,
    validate,
    snowflake,
    example31,
    doubling_not_weak,
    random_bmetric,
    snowflaked_grid,
    euclidean_points,
)
from .constants import ConstantsReport, relaxation_constant, polygonal_constant, constants_report
from .remetrize import Remetrization, FrinkCertificate, chain_metric, frink_verify, epsilon_remetrize
from .doubling import (
    DoublingReport,
    WeakDoublingReport,
    doubling_constant,
    weak_doubling_constant,
    snowflake_doubling_check,
    sandwich_doubling_check,
)
from .embed import (
    Embedding,
    PipelineResult,
    ConverseReport,
    assouad_embed,
    bmetric_assouad_pipeline,
    converse_bound,
)

__version__ = "0.1.0"

__all__ = [
    "SemimetricSpace",
    "StructuralError",
    "ValidationReport",
    "validate",
    "snowflake",
    "example31",
    "doubling_not_weak",
    "random_bmetric",
    "snowflaked_grid",
    "euclidean_points",
    "ConstantsReport",
    "relaxation_constant",
    "polygonal_constant",
    "constants_report",
    "Remetrization",
    "FrinkCertificate",
    "chain_metric",
    "frink_verify",
    "epsilon_remetrize",
    "DoublingReport",
    "WeakDoublingReport",
    "doubling_constant",
    "weak_doubling_constant",
    "snowflake_doubling_check",
    "sandwich_doubling_check",
    "Embedding",
    "PipelineResult",
    "ConverseReport",
    "assouad_embed",
    "bmetric_assouad_pipeline",
    "converse_bound",
    "__version__",
]
