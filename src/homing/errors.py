"""Exception types shared across the package."""


class HomingError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HomingError, ValueError):
    """An argument is out of range or malformed: the caller's input is at
    fault, never the library.  The CLI reports these with exit code 2."""


class ParseError(InputError):
    """A text form (permutation, code, word, partition) is malformed."""


class InvalidMoveError(HomingError):
    """A placement or displacement was attempted on an ineligible value."""


class CapacityError(HomingError):
    """An operation was refused for its size: an exhaustive pass beyond its
    configured cap or beyond int32 ranks, or a per-state search beyond the
    fixed :data:`homing.successors.SEARCH_LIMIT`."""


class CodeShapeError(HomingError):
    """A firing requires a code of the block form ``+^i 0^k -^j`` with k >= 1."""


class WordError(InputError):
    """A firing word or set partition violates its validity conditions."""


class CycleError(HomingError):
    """The placement digraph has a cycle (never expected): a state revisited or never released."""
