"""Exception types shared across the library."""


class MotifdiffError(Exception):
    """Base class for every error raised by this package."""


class InputError(MotifdiffError, ValueError):
    """Malformed or out-of-contract caller input."""


class CapacityError(MotifdiffError, ValueError):
    """Input exceeds a documented size bound of an exact algorithm."""


class ContractError(MotifdiffError, ValueError):
    """A value violates one of its documented invariants."""


class GenerationError(MotifdiffError, RuntimeError):
    """Rejection-sampling budget exhausted while building a dataset."""


class NumericalRegimeError(MotifdiffError, RuntimeError):
    """The requested computation lies outside the numerically trustworthy regime."""


class SeriesDivergenceError(NumericalRegimeError):
    """Truncated series evaluation diverged.

    Carries the diagnostic ratio alpha_t * max|<template, W>| / beta_t^2;
    the truncation is only meaningful when that ratio is moderate.
    """

    def __init__(self, message: str, ratio: float | None = None):
        super().__init__(message)
        self.ratio = ratio
