"""Prime sieve and label-capacity checks.

The labelings of complete graphs, windmills and books draw their primes
from a shared extendable sieve, and ``tpl bounds`` sweeps it; the search
engines sieve their own conflict masks and do not use it.  Nothing needs
primes beyond a small multiple of the largest label in play, so a bytearray
Eratosthenes sieve grown on demand is plenty; no sublinear prime-counting
machinery is warranted.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import chain, compress, islice
from typing import NamedTuple, Optional

from .errors import InvalidParameterError, NoPrimeError


class PrimeTable:
    """Extendable sieve of Eratosthenes; ``nth(1) == 2``.

    Growth re-sieves from scratch, which is cheap at the sizes this package
    uses.  Extend the table on a single thread before sharing it; lookups
    never mutate unless the query outgrows the current limit.
    """

    def __init__(self, limit: int = 1 << 12):
        self._grow(max(4, limit))

    def _grow(self, new_limit: int) -> None:
        flags = bytearray([1]) * (new_limit + 1)
        flags[0] = flags[1] = 0
        for p in range(2, math.isqrt(new_limit) + 1):
            if flags[p]:
                flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
        self.flags = flags
        self.limit = new_limit
        self.primes = list(compress(range(new_limit + 1), flags))

    def ensure_limit(self, x: int) -> None:
        if x > self.limit:
            self._grow(max(x, 2 * self.limit))

    def ensure_count(self, count: int) -> None:
        """Grow until at least ``count`` primes are available."""
        while len(self.primes) < count:
            if count < 6:
                guess = 16
            else:
                # p_i < i (ln i + ln ln i) for i >= 6
                guess = int(count * (math.log(count) + math.log(math.log(count)))) + 8
            self.ensure_limit(max(guess, 2 * self.limit))

    def nth(self, index: int) -> int:
        if index < 1:
            raise InvalidParameterError("prime indices start at 1")
        self.ensure_count(index)
        return self.primes[index - 1]

    def count_leq(self, x: float) -> int:
        if x < 2:
            return 0
        xi = math.floor(x)
        self.ensure_limit(xi)
        return bisect_right(self.primes, xi)

    def largest_leq(self, x: int) -> int:
        if x < 2:
            raise NoPrimeError(f"no prime at or below {x}")
        self.ensure_limit(x)
        return self.primes[bisect_right(self.primes, x) - 1]


_shared: Optional[PrimeTable] = None


def shared_table() -> PrimeTable:
    """Process-wide prime table, built on first use."""
    global _shared
    if _shared is None:
        _shared = PrimeTable()
    return _shared


def reset_shared_table() -> None:
    """Drop the shared table so the next use sieves afresh."""
    global _shared
    _shared = None


def nth_prime(index: int) -> int:
    """The index-th prime, 1-based: ``nth_prime(1) == 2``."""
    return shared_table().nth(index)


def largest_prime_leq(x: int) -> int:
    """Largest prime ``<= x``; by Bertrand's postulate ``> x/2`` for x >= 4."""
    return shared_table().largest_leq(x)


def prime_count(x: float) -> int:
    """Number of primes less than or equal to ``x``."""
    if x < 0:
        raise InvalidParameterError("prime_count expects x >= 0")
    return shared_table().count_leq(x)


class CapacityReport(NamedTuple):
    """Outcome of the label-capacity sweep.

    ``failure`` carries the first ``(n, description)`` counterexample; it is
    ``None`` when every order up to ``n_max`` passes both bounds.
    """

    ok: bool
    n_max: int
    failure: Optional[tuple[int, str]] = None


def check_label_capacity_bounds(n_max: int) -> CapacityReport:
    """Verify the two prime-capacity bounds used by the clique labelings.

    For every ``4 <= n <= n_max`` this checks that the (n-1)st prime fits
    below the block of edge labels reserved on a clique of order n, i.e.
    ``p_{n-1} <= (n^2 - n - 2) / 2``, and that the (2n-3)rd prime fits below
    the cycle labels on a pair of cliques, i.e. ``p_{2n-3} < n^2 - n``.
    """
    if n_max < 4:
        raise InvalidParameterError("capacity check starts at order 4")
    table = shared_table()
    table.ensure_count(2 * n_max - 3)
    primes = table.primes  # p_i is primes[i - 1]
    for n in range(4, n_max + 1):
        if primes[n - 2] > (n * n - n - 2) // 2:
            return CapacityReport(False, n_max, (n, "p[n-1] <= (n^2-n-2)/2"))
        if primes[2 * n - 4] >= n * n - n:
            return CapacityReport(False, n_max, (n, "p[2n-3] < n^2-n"))
    return CapacityReport(True, n_max)


def check_prime_counting_bounds(limit: int) -> tuple[bool, bool]:
    """Sweep ``x <= limit`` for ``pi(x) > x / ln x`` (``x >= 17``) and for
    Bertrand's ``largest prime <= x`` exceeding ``x / 2`` (``x >= 4``).

    Both the prime count and the largest prime are constant on each prime
    gap while ``x / ln x`` grows, so only the last ``x`` of each gap is
    checked.  Returns ``(pi_ok, bertrand_ok)``.
    """
    if limit < 2:
        raise InvalidParameterError("prime-counting check starts at x = 2")
    table = shared_table()
    table.ensure_limit(limit)
    count = bisect_right(table.primes, limit)
    # the gap of each prime ends below the next one; the last gap ends at limit
    nexts = chain(islice(table.primes, 1, count), (limit + 1,))
    pi_ok = bertrand_ok = True
    for i, (p, q) in enumerate(zip(table.primes, nexts), 1):
        x = q - 1
        if x >= 17 and i <= x / math.log(x):
            pi_ok = False
        if x >= 4 and 2 * p <= x:
            bertrand_ok = False
    return pi_ok, bertrand_ok
