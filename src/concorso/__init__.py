"""Productivity scoring and bias auditing for academic recruitment competitions."""

__version__ = "0.1.0"

from .bias import BiasFinding, BiasKind, aggregate_bias, detect_all
from .corpus import (
    Competition,
    Convention,
    Corpus,
    Gender,
    Publication,
    Rank,
    Researcher,
    load_corpus,
    validate_corpus,
    write_corpus,
)
from .errors import (
    ConcorsoError,
    ConfigError,
    DataError,
    NumericError,
)
from .features import build_design, extract_all, filter_eligible
from .scoring import score_corpus
from .stats import fit_logit, vif
from .synthgen import GenConfig, GroundTruth, LatentWeights, generate, generate_to_dir

__all__ = [
    "BiasFinding",
    "BiasKind",
    "Competition",
    "ConcorsoError",
    "ConfigError",
    "Convention",
    "Corpus",
    "DataError",
    "GenConfig",
    "Gender",
    "GroundTruth",
    "LatentWeights",
    "NumericError",
    "Publication",
    "Rank",
    "Researcher",
    "aggregate_bias",
    "build_design",
    "detect_all",
    "extract_all",
    "filter_eligible",
    "fit_logit",
    "generate",
    "generate_to_dir",
    "load_corpus",
    "score_corpus",
    "validate_corpus",
    "vif",
    "write_corpus",
    "__version__",
]
