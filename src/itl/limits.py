"""Enumeration bounds for the exhaustive operations.

The environment variable ``ITL_MAX_ENUM`` overrides both defaults; an
explicit argument overrides the environment.  A bound from either must be a
nonnegative integer.
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


def resolve(explicit: int | None, default: int) -> int:
    if explicit is not None:
        if isinstance(explicit, bool) or not isinstance(explicit, int) or explicit < 0:
            raise InvalidBoundError(
                f"the enumeration bound must be a nonnegative integer, got {explicit!r}")
        return explicit
    env = os.environ.get(ENV_VAR)
    if env is not None:
        if not env.strip().isdecimal():
            raise InvalidBoundError(
                f"{ENV_VAR} must be a nonnegative integer, got {env!r}")
        return int(env)
    return default
