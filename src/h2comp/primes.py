"""Small prime utilities shared by the symbol and lattice modules.

Nothing here is clever: a bytearray sieve, the first d primes, and
factorization of integers whose prime divisors are restricted to a
known finite list.  Symbol coefficients are indexed against the
increasing sequence of primes 2, 3, 5, ..., so these helpers are on
the hot path of every boundary evaluation.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = ["first_primes", "primes_up_to"]


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit, by sieve of Eratosthenes."""
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [n for n in range(2, limit + 1) if sieve[n]]


@lru_cache(maxsize=None)
def first_primes(d: int) -> tuple[int, ...]:
    """The first d primes as a tuple (2, 3, 5, ...)."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d == 0:
        return ()
    # p_d < d (ln d + ln ln d) for d >= 6; pad generously for small d.
    bound = 16
    while True:
        ps = primes_up_to(bound)
        if len(ps) >= d:
            return tuple(ps[:d])
        bound *= 2


def exponents_over(n: int, primes: tuple[int, ...]) -> tuple[int, ...]:
    """Exponent vector of n over the given primes.

    Raises ValueError when n has a prime divisor outside the list: the
    caller is working on a finite-dimensional polytorus and an integer
    that does not factor over it has no character value.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    out = [0] * len(primes)
    rem = n
    for i, p in enumerate(primes):
        while rem % p == 0:
            rem //= p
            out[i] += 1
    if rem != 1:
        raise ValueError(f"{n} has a prime factor outside the first {len(primes)} primes")
    return tuple(out)


def dimension_needed(ns) -> int:
    """Number of leading primes required to factor every n in ns."""
    d = 0
    for n in ns:
        rem = int(n)
        if rem < 1:
            raise ValueError("supports contain positive integers only")
        k = 0
        while rem != 1:
            p = first_primes(k + 1)[k]
            if rem % p == 0:
                while rem % p == 0:
                    rem //= p
                d = max(d, k + 1)
            k += 1
            if k > 64:
                raise ValueError(f"{n} needs more than 64 primes; not supported")
    return d
