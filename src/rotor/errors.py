"""Exception types shared across the package."""


class RotorError(Exception):
    """Base class for all package-specific failures."""


class InvalidArgument(RotorError, ValueError):
    """Argument of the wrong shape or type; also a ValueError, so callers
    that catch ValueError still catch it."""


class NotUnimodular(RotorError):
    """Integer matrix with determinant other than +1 or -1."""


class NotNilpotent(RotorError):
    """Matrix group outside the classified nilpotent families."""


class NotIsotopicToIdentity(RotorError):
    """Operation needs a word whose linear part is the identity."""


class NewtonDivergence(RotorError):
    """Inverse-branch iteration failed to converge."""


class NonIsolated(RotorError):
    """Index requested at a point where the displacement vanishes nearby."""


class AmbiguousWinding(RotorError):
    """Winding-number sum too far from an integer to trust."""


class NotSigmaEquivariant(RotorError):
    """Map fails to commute with the deck involution of the Klein cover."""


class ConfigError(RotorError):
    """Malformed scenario file; message carries line/field diagnostics."""


class DefectExceeded(RotorError):
    """Averaging finished with an invariance defect above tolerance."""


class ConditionStarStarViolated(RotorError):
    """Linear-part group outside the families the averaging scheme covers."""
