"""Run configuration shared by every layer of the package.

A configuration fixes the prime p > 3, the residue degree f, the truncation
depth M (group = full group mod p^M-th powers, ring coefficients mod p), the
optional rescaling depth N with 1 <= N < M used by the integer- and
residue-scaled filtrations, the group case, and the seed for every sampled
check.  The group model of a config owns its ring, tables and algebra.
"""

from __future__ import annotations

import dataclasses

from .errors import ConfigError

CASES = ("GL2", "QUAT")
# entries each of the two caches (gf's fields, groups' models with their
# rings and algebras) holds, least recently used first out; a run uses few
CACHED_CONFIGS = 32


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending, by trial division; [] for
    n < 2, so n is prime exactly when this is [n]."""
    fs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            fs.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        fs.append(n)
    return fs


class BoundedMemo(dict):
    """Values by key, least recently used first out once their sizes,
    size(value) each, sum to more than limit; a value larger than limit
    alone is returned and not kept.  get_or_build stores what build
    returns, so a build that raises stores nothing."""

    def __init__(self, limit: int, size):
        super().__init__()
        self.limit = limit
        self.size = size
        self.entries = 0

    def get_or_build(self, key, build):
        value = self.pop(key, None)  # put back below as the most recent
        if value is None:
            value = build()
            self.entries += self.size(value)
        self[key] = value
        while self.entries > self.limit:
            self.entries -= self.size(self.pop(next(iter(self))))
        return value


@dataclasses.dataclass(frozen=True)
class PrimeConfig:
    p: int
    f: int
    M: int
    case: str
    N: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.f < 1:
            raise ConfigError("f must be >= 1")
        # field elements are int16 indices (gf.GF).  Refused before the trial
        # division, which at p near 2^61 runs for hours, and before any size
        # of the group is formed; f >= 15 alone reaches the bound
        if self.f >= 15 or self.p**self.f >= 2**15:
            raise ConfigError(f"q = p^f must be below 2^15 (field elements are "
                              f"int16 indices), got p = {self.p}, f = {self.f}")
        # the quaternion ring lives over F_(p^(2f)); refused here, before a
        # module's field F_(p^f) builds its q x q tables (2 GB each near
        # the bound)
        if self.case == "QUAT" and self.p ** (2 * self.f) >= 2**15:
            raise ConfigError(f"q = p^(2f) must be below 2^15 for QUAT, whose quaternion ring "
                              f"lives over F_(p^(2f)) (field elements are int16 indices), "
                              f"got p = {self.p}, f = {self.f}")
        if prime_factors(self.p) != [self.p] or self.p <= 3:
            raise ConfigError(f"p must be a prime > 3, got {self.p}")
        if self.M < 1:
            raise ConfigError("M must be >= 1")
        if self.case not in CASES:
            raise ConfigError(f"case must be one of {CASES}")
        if self.N is not None and not (1 <= self.N < self.M):
            raise ConfigError("N must satisfy 1 <= N < M")

    @property
    def dim(self) -> int:
        """Dimension of the group: 3f generators."""
        return 3 * self.f

    def header(self) -> dict:
        return {
            "p": self.p,
            "f": self.f,
            "M": self.M,
            "N": self.N,
            "case": self.case,
            "seed": self.seed,
        }
