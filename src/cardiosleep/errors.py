"""Typed error hierarchy shared across the pipeline."""


class CardiosleepError(Exception):
    """Base class for all pipeline errors."""


# --- file parsing ---------------------------------------------------------

class MalformedHeader(CardiosleepError):
    pass


class UnsupportedVariant(CardiosleepError):
    pass


class TruncatedData(CardiosleepError):
    pass


class UnknownToken(CardiosleepError):
    pass


class MixedScheme(CardiosleepError):
    pass


class ManifestMismatch(CardiosleepError):
    pass


class MissingMetadata(CardiosleepError):
    pass


class MissingMember(CardiosleepError):
    """An npz archive, or its metadata, lacks a member the reader needs."""


# --- signal conditioning --------------------------------------------------

class SignalTooShort(CardiosleepError):
    pass


class FlatSignal(CardiosleepError):
    pass


class TooFewPeaks(CardiosleepError):
    pass


class CutoffAboveNyquist(CardiosleepError):
    pass


class RecordingTooShort(CardiosleepError):
    pass


class InvalidSeries(CardiosleepError):
    """A trace or RR series whose rate or arrays are not finite real numbers
    of the right shape."""


# --- feature extraction ---------------------------------------------------

class LengthMismatch(CardiosleepError):
    pass


class SubjectUnusable(CardiosleepError):
    pass


class EmptyTrainingSet(CardiosleepError):
    pass


# --- cohort ---------------------------------------------------------------

class NegativeAhi(CardiosleepError):
    pass


class EmptyHypnogram(CardiosleepError):
    pass


class EmptyList(CardiosleepError):
    pass


# --- model ----------------------------------------------------------------

class ShapeMismatch(CardiosleepError):
    pass


class NonFiniteInput(CardiosleepError):
    pass


class NonFiniteLoss(CardiosleepError):
    pass


class EmptyDataset(CardiosleepError):
    pass


# --- evaluation -----------------------------------------------------------

class EmptyMatrix(CardiosleepError):
    pass


class DegenerateMarginals(CardiosleepError):
    pass


# --- synthesis / config ---------------------------------------------------

class InvalidProfile(CardiosleepError):
    pass


class ConfigError(CardiosleepError):
    pass
