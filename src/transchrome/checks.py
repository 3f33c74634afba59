"""Input checks, caps and the record base shared by the layers.

This module imports nothing of the package but ``errors``, so a layer that
only needs a primality test, a power bound, the integer-string limit or
``Record`` does not load another layer for it.  The caps on work sit with
the code whose work they bound; the group-order cap, for one, is
``perm.MAX_ELEMENTS``, checked where group elements are listed.
"""

from __future__ import annotations

import sys
from operator import attrgetter

from .errors import NotPrime, ResourceLimit

# Trial division up to sqrt(PRIME_CAP) takes about 0.1 s.
PRIME_CAP = 10 ** 12


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


def digit_limit() -> int:
    """The interpreter's integer-string limit, its default when unlimited."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


class Record:
    """Base of the layers' frozen records: equality, hash, repr and pickling
    on the fields that ``_fields`` names, in its order, and no assignment or
    deletion once built.  A subclass names at least two fields and writes
    out its ``__init__``, which checks its arguments and hands them to
    ``_set_fields``; nothing is compiled at import."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._getter = attrgetter(*cls._fields)  # the field values as a tuple

    def _set_fields(self, *values):
        """Set the fields, in the order of ``_fields``."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._getter(self) == other._getter(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._getter(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields
        ))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __reduce__(self):
        return type(self), self._getter(self)
