"""Exception types shared across the package."""


class DressedSpinError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(DressedSpinError):
    """A drive configuration violates one or more invariants.

    Carries every violation at once so callers can report them all.
    Each violation is a ``(code, message)`` pair; codes include
    ``NonPositiveDressingFrequency``, ``DuplicateTuningAxis``,
    ``NegativeAmplitude``, ``ZeroHarmonicTuning``, ``HarmonicTooLarge`` and
    ``NonFiniteValue``.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(f"{code}: {msg}" for code, msg in self.violations))

    def codes(self):
        return tuple(code for code, _ in self.violations)


class ConfigFileError(DressedSpinError):
    """A configuration file or override string could not be parsed."""

    def __init__(self, message, *, source=None, line=None, key=None):
        self.source = source
        self.line = line
        self.key = key
        loc = source or "<config>"
        if line is not None:
            loc += f":{line}"
        if key is not None:
            loc += f": key '{key}'"
        super().__init__(f"{loc}: {message}")


class SeriesNotConverged(DressedSpinError):
    """A truncated series hit its term cap before meeting the tolerance."""


class NoConvergence(DressedSpinError):
    """Step-halving refinement exhausted without meeting the tolerance."""


class UnitarityLost(DressedSpinError):
    """Propagator norm drift exceeded the configured limit."""


class NoOscillation(DressedSpinError):
    """Time series has no distinct spectral line to fit."""


class FitDiverged(DressedSpinError):
    """Nonlinear least-squares fit failed to converge or was rejected."""


class DegenerateData(DressedSpinError):
    """Input data cannot identify the fit parameters."""
