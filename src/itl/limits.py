"""Bounds on the exhaustive enumerations and on the random model generator.

The environment variable ``ITL_MAX_ENUM`` overrides both defaults; an
explicit argument overrides the environment.  A bound from either must be a
nonnegative integer, as must the bounds that only an argument sets (the
number of maps listed, the depth of a distinguishing search).
"""

import os

from .errors import InvalidBoundError

ENV_VAR = "ITL_MAX_ENUM"

# frame_valid enumerates 2**(points * atoms) valuations; the bound caps the
# exponent.
DEFAULT_VALUATION_BOUND = 20

# p-morphism search enumerates total maps between point sets; the bound caps
# the number of points on either side.
DEFAULT_SEARCH_BOUND = 7

# gen_random_model builds about moments * (atoms + 1) objects, random_tree one
# per moment; the bound caps both and keeps ``itl gen``'s peak RSS under 1 GB.
GEN_SIZE_BOUND = 200_000


def nonnegative(value, name: str) -> int:
    """The value, if it is a nonnegative integer (not a bool); else
    InvalidBoundError naming the bound."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise InvalidBoundError(f"{name} must be a nonnegative integer, got {value!r}")
    return value


def resolve(explicit: int | None, default: int) -> int:
    if explicit is not None:
        return nonnegative(explicit, "the enumeration bound")
    env = os.environ.get(ENV_VAR)
    if env is not None:
        if not env.strip().isdecimal():
            raise InvalidBoundError(
                f"{ENV_VAR} must be a nonnegative integer, got {env!r}")
        return int(env)
    return default
