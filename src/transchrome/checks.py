"""Input checks and caps shared by the layers.

This module imports nothing of the package but ``errors``, so a layer that
only needs a primality test, a power bound or the group-order cap does not
load another layer for it.
"""

from __future__ import annotations

import os

from .errors import BadParameters, NotPrime, ResourceLimit

# Trial division up to sqrt(PRIME_CAP) takes about 0.1 s.
PRIME_CAP = 10 ** 12
DEFAULT_MAX_ELEMENTS = 10 ** 6
ENV_MAX_ELEMENTS = "TRANSCHROME_MAX_ELEMENTS"


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p: int):
    """Raise NotPrime unless p is prime; above PRIME_CAP, where trial
    division would run for seconds, raise ResourceLimit instead."""
    if p > PRIME_CAP:
        raise ResourceLimit("p = %d exceeds the primality-test cap %d" % (p, PRIME_CAP))
    if not is_prime(p):
        raise NotPrime("%r is not prime" % (p,))


def power_exceeds(p: int, e: int, cap: int) -> bool:
    """p**e > cap for p >= 2, without forming p**e when e is large."""
    return e > cap.bit_length() or p ** e > cap


def max_group_elements() -> int:
    """Group-order cap for closures; override with TRANSCHROME_MAX_ELEMENTS.

    Raises BadParameters when the variable is set but is not a positive
    integer.
    """
    raw = os.environ.get(ENV_MAX_ELEMENTS)
    if raw is None:
        return DEFAULT_MAX_ELEMENTS
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value <= 0:
        raise BadParameters(
            "%s must be a positive integer, got %r" % (ENV_MAX_ELEMENTS, raw)
        )
    return value
