"""Exception hierarchy shared across the toolkit.

Three branches map onto the CLI exit-code contract: data errors (exit 1),
numerical errors (exit 2), and configuration errors (exit 3).
"""

from __future__ import annotations


class ConcorsoError(Exception):
    """Base class for all toolkit errors."""


class DataError(ConcorsoError):
    """Input data is malformed, inconsistent, or missing."""


class NumericError(ConcorsoError):
    """A computation cannot produce a meaningful result."""


class ConfigError(ConcorsoError):
    """A run or generator configuration is invalid."""


# corpus loading

class MalformedRecord(DataError):
    """A record in an input file fails to parse; names the line and field."""

    def __init__(self, path, line_no, field, message):
        self.path = str(path)
        self.line_no = line_no
        self.field = field
        super().__init__(f"{self.path}:{line_no}: field '{field}': {message}")


class DanglingReference(DataError):
    """Cross-references that do not resolve; collects every offender."""

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{ref!r} referenced by {src}" for ref, src in self.problems)
        super().__init__(f"unresolved references: {lines}")


class DuplicateId(DataError):
    def __init__(self, entity, dup_id):
        self.entity = entity
        self.dup_id = dup_id
        super().__init__(f"duplicate {entity} id {dup_id!r}")


# scoring

class InvalidByline(NumericError):
    """An empty byline, which cannot carry fractional weights."""


# features

class MissingScore(NumericError):
    """An applicant reached feature extraction without a productivity score."""


# stats

class DegenerateInput(NumericError):
    """Inputs carry no usable variation for the requested statistic."""


class Nonconvergence(NumericError):
    """Iterative fit hit its iteration cap before converging."""


class SeparationDetected(NumericError):
    """Logit outcome is (quasi-)separated; estimates diverge."""


class RankDeficient(NumericError):
    """Design matrix does not have full column rank."""


# synthetic generation

class InfeasibleConfig(ConfigError):
    """Generator configuration cannot produce a valid corpus."""
