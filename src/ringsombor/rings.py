"""Finite commutative rings with unity and the number theory behind them.

Every element of a finite commutative ring with unity is either a unit or a
zero-divisor, with 0 counted among the zero-divisors.  That partition is all
the downstream graph constructions need, so rings here expose exactly: the
unit mask, the unit count, whether 2 is a unit, whether the ring is local,
and the parameters the row builders read.  Elements are addressed by an
integer index in 0..order-1 with index 0 the ring zero.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache


class NonLocalRingError(ValueError):
    """A local-ring-only operation was applied to a ring with more than one
    maximal ideal."""


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit (sieve of Eratosthenes)."""
    if limit < 2:
        return []
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
    return [i for i, flag in enumerate(sieve) if flag]


@dataclass(frozen=True)
class Modulus:
    """A positive integer n >= 2 with its prime factorization attached.

    factors is a tuple of (prime, exponent) pairs with primes strictly
    ascending and every exponent >= 1; the product reconstructs n.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"modulus must be >= 2, got {self.n}")
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError(f"bad factorization for {self.n}: {self.factors}")
            last = p
            prod *= p**e
        if prod != self.n:
            raise ValueError(f"factorization of {self.n} multiplies to {prod}")

    @property
    def is_prime_power(self) -> bool:
        return len(self.factors) == 1


# Primes below this bound are divided out by trial division.  A cofactor left
# below its square has no factor below the bound, so it is 1 or a prime.
_TRIAL_BOUND = 1000
_TRIAL_PRIMES = tuple(primes_up_to(_TRIAL_BOUND))

# Miller-Rabin on the first 13 prime bases is proven exact below PSI_13, the
# least composite that is a strong probable prime to all of them (Sorenson and
# Webster, 2017).  The first 12 bases stop at 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981


def _passes_miller_rabin(m: int) -> bool:
    """Strong probable-prime test of an odd m > 41 on every base in _MR_BASES.

    False is a proof that m is composite.  True is a proof that m is prime
    below PSI_13; at or above it no primality is claimed and ValueError is
    raised instead.
    """
    s = ((m - 1) & (1 - m)).bit_length() - 1
    d = (m - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    if m >= PSI_13:
        raise ValueError(
            f"{m} is a strong probable prime to the bases 2..41, which proves "
            f"primality only below {PSI_13}"
        )
    return True


def is_prime(n: int) -> bool:
    """Exact primality: trial division by the primes below 1000, then
    deterministic Miller-Rabin.  Raises ValueError for an n >= PSI_13 that
    no base proves composite."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return False
    return n < _TRIAL_BOUND**2 or _passes_miller_rabin(n)


# Squarings _rho_divisor may spend on one cofactor, over every c.  The
# radicands of Z_1300000000529's unit graph take about 1.8 million.
RHO_STEPS = 1 << 22


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n that is not a square: Brent's
    variant of Pollard rho on x -> x^2 + c, taking the gcd once per batch of
    128 steps, with c = 1, 2, ... until a run does not end on n itself.
    Raises ValueError rather than start a round that could take the
    squarings past RHO_STEPS."""
    steps = 0  # the most squarings the rounds so far could take
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > RHO_STEPS:
                raise ValueError(f"Pollard rho found no factor of {n} "
                                 f"within {RHO_STEPS} squarings")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: step again from its start, one gcd a step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _prime_factors(m: int) -> dict[int, int]:
    """Exact prime factorization {prime: exponent} of m >= 1.

    Trial division by the primes below _TRIAL_BOUND, then each cofactor is
    split as an exact square, declared prime by is_prime's Miller-Rabin
    test, or split by Pollard rho.  Raises ValueError where is_prime does,
    or where rho does not split a cofactor within RHO_STEPS squarings.
    """
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors[p] = e
    pending = [(m, 1)]  # (cofactor, multiplicity)
    while pending:
        r, mult = pending.pop()
        if r == 1:
            continue
        root = math.isqrt(r)
        if root * root == r:
            pending.append((root, 2 * mult))
        elif r < _TRIAL_BOUND**2 or _passes_miller_rabin(r):
            factors[r] = factors.get(r, 0) + mult
        else:
            d = _rho_divisor(r)
            pending += [(d, mult), (r // d, mult)]
    return factors


def _modulus(n: int) -> Modulus:
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    return Modulus(n, tuple(sorted(_prime_factors(n).items())))


@lru_cache(maxsize=None)
def factorize(n: int) -> Modulus:
    """Full prime factorization, primes ascending (see _prime_factors)."""
    return _modulus(n)


def moduli(max_n: int) -> Iterator[Modulus]:
    """The factorization of every n with 2 <= n <= max_n, ascending, without
    entering factorize's cache: a sweep looks at every n but builds rings,
    which factorize through the cache, for few of them."""
    return map(_modulus, range(2, max_n + 1))


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler totient via the multiplicative formula over the factorization."""
    if n < 1:
        raise ValueError(f"euler_phi requires n >= 1, got {n}")
    if n == 1:
        return 1
    out = n
    for p, _ in factorize(n).factors:
        out //= p
        out *= p - 1
    return out


# Modulus family tags.  Classification precedence: even first, then the exact
# odd shapes, else the catch-all.
EVEN = "even"
ODD_PRIME_POWER = "ppow"
ODD_PQ = "pq"
ODD_P2Q = "p2q"
OTHER_ODD = "other"


@dataclass(frozen=True)
class ModulusFamily:
    """Which closed-form family a modulus n falls into.

    For ODD_PRIME_POWER, p and alpha are set (n = p**alpha).  For ODD_PQ,
    p < q are the two primes.  For ODD_P2Q, p is the squared prime and q the
    other one; p > q is admitted but lies outside the usual hypothesis and
    in_hypothesis turns False.
    """

    kind: str
    p: int = 0
    q: int = 0
    alpha: int = 0

    @property
    def in_hypothesis(self) -> bool:
        if self.kind == ODD_P2Q:
            return self.p < self.q
        return True


def classify(n: int | Modulus) -> ModulusFamily:
    """The unique family tag for n (total and deterministic for n >= 2)."""
    mod = n if isinstance(n, Modulus) else factorize(n)
    if mod.n % 2 == 0:
        return ModulusFamily(EVEN)
    factors = mod.factors
    if len(factors) == 1:
        p, a = factors[0]
        return ModulusFamily(ODD_PRIME_POWER, p=p, alpha=a)
    if len(factors) == 2:
        (p1, e1), (p2, e2) = factors
        if e1 == 1 and e2 == 1:
            return ModulusFamily(ODD_PQ, p=p1, q=p2)
        if sorted((e1, e2)) == [1, 2]:
            squared, other = (p1, p2) if e1 == 2 else (p2, p1)
            return ModulusFamily(ODD_P2Q, p=squared, q=other)
    return ModulusFamily(OTHER_ODD)


@dataclass(frozen=True)
class LocalRingSpec:
    """The three parameters of a finite local ring that the local closed
    forms consume: order, number of units, and whether 1+1 is a unit.

    The non-units form the maximal ideal, so q = order / (order - units) is
    the size of the residue field.  A finite local ring exists only when q
    is a prime power, the order is a power of q, and 2 is a unit exactly
    when q is odd."""

    order: int
    unit_count: int
    two_is_unit: bool

    def __post_init__(self):
        if not 1 <= self.unit_count < self.order:
            raise ValueError(
                f"unit count {self.unit_count} out of range for order {self.order}"
            )
        ideal = self.order - self.unit_count
        if self.order % ideal != 0:
            raise ValueError(
                f"non-unit count {ideal} does not divide order {self.order}"
            )
        q = self.order // ideal
        rest = self.order
        while rest % q == 0:
            rest //= q
        if rest != 1 or not factorize(q).is_prime_power:
            raise ValueError(
                f"order {self.order} is not a power of a prime-power residue field size {q}"
            )
        if self.two_is_unit != (q % 2 == 1):
            raise ValueError(
                f"two_is_unit={self.two_is_unit}, but 2 is a unit exactly when "
                f"the residue field size {q} is odd"
            )


_ZD_TO_BITS = bytes.maketrans(b"\x00\x01", b"10")


class FiniteRing:
    """Base class of the two ring kinds, ZnRing and TruncatedPolyRing.

    Each fixes an element indexing 0..order-1 (index 0 is the ring zero) and
    provides the unit mask on it (unit_mask, bit v set iff element v is a
    unit).  The graph builders reject any other subclass with TypeError.
    """

    order: int

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class ZnRing(FiniteRing):
    """Integers modulo n; the element index is the residue."""

    def __init__(self, n: int):
        self.modulus = factorize(n)
        self.n = n
        self.order = n

    @property
    def unit_count(self) -> int:
        return euler_phi(self.n)

    @property
    def two_is_unit(self) -> bool:
        return self.n % 2 == 1

    @property
    def is_local(self) -> bool:
        return self.modulus.is_prime_power

    @property
    def name(self) -> str:
        return f"Z_{self.n}"

    def unit_mask(self) -> int:
        # Mark multiples of each prime factor (the zero-divisors), then read
        # the complement off as a bitmask.
        marks = bytearray(self.n)
        for p, _ in self.modulus.factors:
            marks[0::p] = b"\x01" * len(range(0, self.n, p))
        return int(marks.translate(_ZD_TO_BITS)[::-1], 2)


class TruncatedPolyRing(FiniteRing):
    """F_p[x]/(x^k): polynomials over the prime field with x^k = 0.

    The element index encodes the coefficient tuple in base p with the
    constant coefficient as the most significant digit, so lexicographic
    coefficient order coincides with numeric index order.  An element is a
    unit exactly when its constant coefficient is nonzero.
    """

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise ValueError(f"coefficient modulus must be prime, got {p}")
        if k < 1:
            raise ValueError(f"truncation degree must be >= 1, got {k}")
        self.p = p
        self.k = k
        self.order = p**k
        self.lead = p ** (k - 1)  # index weight of the constant coefficient

    @property
    def unit_count(self) -> int:
        return self.order - self.lead

    @property
    def two_is_unit(self) -> bool:
        return self.p != 2

    @property
    def is_local(self) -> bool:
        return True

    @property
    def name(self) -> str:
        return f"F_{self.p}[x]/(x^{self.k})"

    def unit_mask(self) -> int:
        return ((1 << self.order) - 1) ^ ((1 << self.lead) - 1)


def z_prime_power(p: int, alpha: int) -> ZnRing:
    """The local ring Z_{p^alpha}."""
    if not is_prime(p):
        raise ValueError(f"expected a prime, got {p}")
    if alpha < 1:
        raise ValueError(f"exponent must be >= 1, got {alpha}")
    return ZnRing(p**alpha)


def to_local_spec(ring: FiniteRing) -> LocalRingSpec:
    """Abstract a concrete local ring to the parameters the local closed
    forms need.  Rejects rings with more than one maximal ideal."""
    if not ring.is_local:
        raise NonLocalRingError(f"{ring.name} is not local")
    return LocalRingSpec(ring.order, ring.unit_count, ring.two_is_unit)
