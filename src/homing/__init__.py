"""Toolkit for the placement-and-shift ("homing") sorting process.

The package is built from these modules:

- :mod:`homing.perms`      -- permutations, placements, evictions
- :mod:`homing.successors` -- all of S_n as one int8 matrix, ranked in bulk
- :mod:`homing.codes`      -- the {+,-,0} code of a state and its weight
- :mod:`homing.strategies` -- homing strategies and shortest sorts
- :mod:`homing.heights`    -- exhaustive longest-sort tables and worst cases
- :mod:`homing.firings`    -- constructive enumeration of the worst cases
- :mod:`homing.counting`   -- counting recurrences and growth tables
- :mod:`homing.verify`     -- executable invariant suites
- :mod:`homing.cli`        -- the ``homing`` command-line tool
- :mod:`homing.atomic`     -- atomic file writes for ``--out`` and table saves
- :mod:`homing.errors`     -- the exception types shared across the package
"""

from .perms import (
    DisplacementMove,
    Perm,
    all_perms,
    as_perm,
    displace,
    displacement_successors,
    format_perm,
    identity,
    lis_length,
    parse_perm,
    place,
    place_at,
    placeable_values,
    placement_successors,
    rank,
    reverse,
    reverse_complement,
    rotation,
    stage,
    swap_ends,
    unrank,
)
from .codes import StripStep, code_of, parse_code, strip_trace, weight
from .errors import (
    CapacityError,
    CodeShapeError,
    CycleError,
    HomingError,
    InputError,
    InvalidMoveError,
    ParseError,
    WordError,
)

__all__ = [
    "CapacityError",
    "CodeShapeError",
    "CycleError",
    "DisplacementMove",
    "HomingError",
    "InputError",
    "InvalidMoveError",
    "ParseError",
    "Perm",
    "StripStep",
    "WordError",
    "all_perms",
    "as_perm",
    "code_of",
    "displace",
    "displacement_successors",
    "format_perm",
    "identity",
    "lis_length",
    "parse_code",
    "parse_perm",
    "place",
    "place_at",
    "placeable_values",
    "placement_successors",
    "rank",
    "reverse",
    "reverse_complement",
    "rotation",
    "stage",
    "strip_trace",
    "swap_ends",
    "unrank",
    "weight",
]
