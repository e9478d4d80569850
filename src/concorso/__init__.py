"""Productivity scoring and bias auditing for academic recruitment competitions."""

import importlib

__version__ = "0.1.0"

# The submodule that defines each public name. ``import concorso`` imports
# none of them, nor numpy: __getattr__ imports a name's submodule, or a
# submodule read as ``concorso.<submodule>``, the first time it is read.
_SOURCES = {
    "bias": ("BiasFinding", "BiasKind", "aggregate_bias", "detect_all"),
    "corpus": ("Competition", "Convention", "Corpus", "Gender", "Publication", "Rank",
               "Researcher", "load_corpus", "validate_corpus", "write_corpus"),
    "errors": ("ConcorsoError", "ConfigError", "DataError", "NumericError"),
    "features": ("build_design", "extract_all", "filter_eligible"),
    "scoring": ("score_corpus",),
    "stats": ("fit_logit", "vif"),
    "synthgen": ("GenConfig", "GroundTruth", "LatentWeights", "generate", "generate_to_dir"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    """Import the submodule defining a public name on its first use, and
    keep the name in the package, so later reads do not come here."""
    if name in _SOURCES:  # the import binds the submodule in the package
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _SOURCES.keys() | _MODULE_OF.keys())
