"""Exception types shared across the package, and ``at_least``: the one form of a config field's fixed lower bound."""


class TemptError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(TemptError):
    pass


class NegativeVariance(TemptError):
    pass


class NonFiniteValue(TemptError):
    """An op produced NaN or Inf; never propagated silently.

    Base of every non-finite error (activation, loss, gradient), so one
    ``except NonFiniteValue`` covers each source.
    """


class NonFiniteActivation(NonFiniteValue):
    """A NaN or Inf inside the model's forward pass."""


class NonFiniteLoss(NonFiniteValue):
    pass


class NonFiniteGradient(NonFiniteValue):
    pass


class LabelOutOfRange(TemptError):
    pass


class WindowTooLarge(TemptError):
    pass


class InvalidSpec(TemptError):
    pass


class NormalizationDegenerate(TemptError):
    pass


class CorruptTensorFile(TemptError):
    pass


class CorruptWeights(TemptError):
    pass


class VersionMismatch(TemptError):
    pass


class NoAdaptableParams(TemptError):
    pass


class ArchMismatch(TemptError):
    pass


class EmptyClass(TemptError):
    pass


class DivergedLoss(TemptError):
    pass


class LengthMismatch(TemptError):
    pass


class TooFewFrames(TemptError):
    pass


class InvalidRange(TemptError):
    pass


class ConfigError(TemptError):
    pass


def at_least(obj, minimum, *names: str, error: type[TemptError] = InvalidRange) -> None:
    """Raise ``error`` for the first of ``obj``'s fields ``names`` whose value is below ``minimum``."""
    for name in names:
        if getattr(obj, name) < minimum:
            raise error(f"{name} must be >= {minimum}, got {getattr(obj, name)}")
