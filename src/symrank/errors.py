"""Shared exception types."""


class FieldMismatchError(ValueError):
    """Arithmetic attempted between quadratic extensions with different discriminants."""


class NoRealRootError(ValueError):
    """Quadratic equation has a negative discriminant."""


class DegenerateEnsembleError(ValueError):
    """f(alpha, beta) == f(beta, alpha): the two-valued ensemble collapses to one matrix."""


class GoodPairError(ValueError):
    """f(a_i, a_i) == 0 for some i, so the pair is not usable."""


class UnsupportedParameterError(ValueError):
    """Parameters outside the supported construction range."""


class ConstructionFailedError(RuntimeError):
    """A checker-verified construction could not be completed."""


class VerificationError(RuntimeError):
    """An exact mathematical invariant failed to hold."""
