"""Exception types shared across the package."""


class TemptError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(TemptError):
    pass


class InvalidStride(TemptError):
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


class NonScalarLoss(TemptError):
    pass


class NonFiniteLoss(NonFiniteValue):
    pass


class NonFiniteGradient(NonFiniteValue):
    pass


class LabelOutOfRange(TemptError):
    pass


class EvenWindow(TemptError):
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


class InvalidRange(TemptError):
    pass


class ConfigError(TemptError):
    pass
