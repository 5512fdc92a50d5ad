"""Exception hierarchy shared across the package.

Domain failures (physics says no) and configuration/parse failures are kept
distinct so the CLI can map them to exit codes 1 and 2 respectively.
"""


class MaglogicError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MaglogicError):
    """Invalid configuration value, schema violation or unknown field."""


class ProgramParseError(ConfigError):
    """Broadcast program text could not be parsed."""


class SingularConfigError(MaglogicError):
    """Two sources coincide (or a field point sits on a source)."""


class EnergyBudgetError(MaglogicError):
    """Energy balance came out negative (no ejection possible)."""


class DesignSpaceError(MaglogicError):
    """Lattice too small for the requested unit count, or DoF ceiling exceeded."""


class NoPassingCandidateError(MaglogicError):
    """Screening rejected every enumerated candidate."""
