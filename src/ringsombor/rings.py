"""Finite commutative rings with unity and the number theory behind them.

Every element of a finite commutative ring with unity is either a unit or a
zero-divisor, with 0 counted among the zero-divisors.  That partition is all
the downstream graph constructions need, so rings here expose exactly: the
unit mask, the local factors (and the unit count, whether 2 is a unit and
whether the ring is local, all read off them), and the parameters the row
builders read.  Elements are addressed by an integer index in 0..order-1
with index 0 the ring zero.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Callable, Iterator
from functools import lru_cache


def primes_up_to(limit: int) -> list[int]:
    """All primes <= limit (sieve of Eratosthenes over the odd numbers)."""
    if limit < 2:
        return []
    sieve = bytearray(b"\x01") * ((limit + 1) // 2)  # sieve[i] stands for 2i + 1
    sieve[0] = 0
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1  # its odd multiples from p^2 are p apart in the sieve
            sieve[p * p // 2 :: p] = bytes(len(range(p * p // 2, len(sieve), p)))
    return [2, *itertools.compress(range(1, limit + 1, 2), sieve)]


class Modulus(namedtuple("Modulus", "n factors")):
    """A positive integer n >= 2 with its prime factorization attached.

    factors is a tuple of (prime, exponent) pairs with primes strictly
    ascending and every exponent >= 1; the product reconstructs n.
    """

    __slots__ = ()

    def __new__(cls, n: int, factors: tuple[tuple[int, int], ...]):
        if n < 2:
            raise ValueError(f"modulus must be >= 2, got {n}")
        prod = 1
        last = 1
        for p, e in factors:
            if p <= last or e < 1:
                raise ValueError(f"bad factorization for {n}: {factors}")
            last = p
            prod *= p**e
        if prod != n:
            raise ValueError(f"factorization of {n} multiplies to {prod}")
        return tuple.__new__(cls, (n, factors))

    @property
    def is_prime_power(self) -> bool:
        return len(self.factors) == 1


# Primes below this bound are divided out by trial division.  A cofactor left
# below its square has no factor below the bound, so it is 1 or a prime.  From
# that square on, one gcd with their product finds the primes that divide m.
_TRIAL_BOUND = 1000
_TRIAL_SQUARE = _TRIAL_BOUND**2
_TRIAL_PRIMES = tuple(primes_up_to(_TRIAL_BOUND))
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)

# Miller-Rabin on the first k prime bases is proven exact below psi_k, the
# least odd composite that is a strong probable prime to all of them (OEIS
# A014233; psi_12 and psi_13 from Sorenson and Webster, 2017).  _PSI lists
# psi_1 .. psi_13, and an m takes the first k bases for the least psi_k > m.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PSI_13 = 3317044064679887385961981
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321,
    3825123056546413051, 3825123056546413051, 3825123056546413051,
    318665857834031151167461, PSI_13,
)


def _strong_probable_prime(m: int, bases) -> bool:
    """Whether the odd m is a strong probable prime to every base in bases,
    each below m; False is a proof that m is composite."""
    s = ((m - 1) & (1 - m)).bit_length() - 1
    d = (m - 1) >> s
    for a in bases:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _passes_miller_rabin(m: int) -> bool:
    """Strong probable-prime test of an odd m > 41 on the first k bases of
    _MR_BASES, for the least psi_k above m (all 13 from PSI_13 on).

    False is a proof that m is composite.  True is a proof that m is prime
    below PSI_13; at or above it no primality is claimed and ValueError is
    raised instead.
    """
    if not _strong_probable_prime(m, _MR_BASES[:bisect_right(_PSI, m) + 1]):
        return False
    if m >= PSI_13:
        raise ValueError(
            f"{m} is a strong probable prime to the bases 2..41, which proves "
            f"primality only below {PSI_13}"
        )
    return True


# Entries each of the lru caches (is_prime, factorize, euler_phi and
# radicals.radical_normalize) keeps: far more than one sweep or batch of
# closed queries looks up, so a long-lived process stays bounded.
CACHE_SIZE = 1 << 16


@lru_cache(maxsize=CACHE_SIZE)
def is_prime(n: int) -> bool:
    """Exact primality: trial division by the primes below 1000
    (_trial_divide), then deterministic Miller-Rabin.  Raises ValueError for
    an n >= PSI_13 that no base proves composite.  Cached, and factorize's
    rule for _split_cofactor (_prime_part_divisor) proves its parts prime
    through it, so each prime is proven once per process, whether factorize
    or a family check meets it first."""
    if n < 2:
        return False
    factors, r = _trial_divide(n)
    return not factors and (r < _TRIAL_SQUARE or _passes_miller_rabin(r))


# Squarings _rho_divisor may spend on one cofactor, over every c.  The
# radicands of Z_1300000000529's unit graph take about 1.8 million.
RHO_STEPS = 1 << 22

# Bits of the largest non-square part _split_cofactor tests and splits, for
# factorize and radical_normalize alike.  A Miller-Rabin base or a rho
# squaring costs more the longer the part, so RHO_STEPS alone does not bound
# the time.  The bound sits just above the 307-bit cofactor of Z_{3^100}'s
# unit-graph radicands, which still runs rho to the end of its budget.
FACTOR_BITS = 320


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


def _primes_dividing(g: int) -> Iterator[int]:
    """The primes below _TRIAL_BOUND that divide g, a divisor of
    _TRIAL_PRODUCT, ascending."""
    for p in _TRIAL_PRIMES:
        if g == 1:
            return
        if g % p == 0:
            g //= p
            yield p


def _trial_divide(m: int) -> tuple[dict[int, int], int]:
    """The primes below _TRIAL_BOUND that divide m >= 1, as {prime:
    exponent}, and the cofactor r they leave.  r is 1, a prime, or has no
    prime factor below _TRIAL_BOUND.  From _TRIAL_SQUARE on, one gcd with
    _TRIAL_PRODUCT picks the primes to divide by; the division stops once
    p * p > r either way."""
    factors: dict[int, int] = {}
    if m < _TRIAL_SQUARE:
        primes = _TRIAL_PRIMES
    else:
        primes = _primes_dividing(math.gcd(m, _TRIAL_PRODUCT))
    for p in primes:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors[p] = e
    return factors, m


def _split_cofactor(r: int, factors: dict[int, int],
                    part_divisor: Callable[[int], int]) -> dict[int, int]:
    """factors with a _trial_divide cofactor r added as parts, pairwise
    coprime, each to the power it divides r.  A square part is read by its
    root at twice the power.  Any other part x is refused above FACTOR_BITS
    bits, then read by the caller's rule part_divisor(x): x takes it whole,
    a proper divisor splits it there, and 1 hands it to _rho_divisor.  A
    part taken whole that meets a y in factors is refined by their gcd g
    into g, x // g and y // g, which for primes only merges equal ones.
    Raises ValueError above FACTOR_BITS, where part_divisor does, or where
    rho does not split a part within RHO_STEPS squarings."""
    pending = [(r, 1)]  # (part, multiplicity)
    while pending:
        x, mult = pending.pop()
        if x == 1:
            continue
        root = math.isqrt(x)
        if root * root == x:
            pending.append((root, 2 * mult))
            continue
        if x.bit_length() > FACTOR_BITS:
            raise ValueError(f"a {x.bit_length()}-bit cofactor is left to factor, "
                             f"above the {FACTOR_BITS}-bit bound")
        d = part_divisor(x)
        if d == 1:
            d = _rho_divisor(x)
        if d != x:
            pending += [(d, mult), (x // d, mult)]
            continue
        for y, other in factors.items():
            g = math.gcd(x, y)
            if g > 1:
                del factors[y]
                pending += [(g, mult + other), (x // g, mult), (y // g, other)]
                break
        else:
            factors[x] = mult
    return factors


def _prime_part_divisor(x: int) -> int:
    """factorize's rule for _split_cofactor: a part is taken whole below
    _TRIAL_SQUARE, where it is a prime, or when is_prime proves it one."""
    return x if x < _TRIAL_SQUARE or is_prime(x) else 1


def _modulus(n: int) -> Modulus:
    """Exact prime factorization of n >= 2: _trial_divide, then
    _split_cofactor on the cofactor it leaves, by _prime_part_divisor."""
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    factors, r = _trial_divide(n)
    return Modulus(n, tuple(sorted(_split_cofactor(r, factors, _prime_part_divisor).items())))


@lru_cache(maxsize=CACHE_SIZE)
def factorize(n: int) -> Modulus:
    """Full prime factorization, primes ascending (see _modulus)."""
    return _modulus(n)


@lru_cache(maxsize=CACHE_SIZE)
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


class ModulusFamily(namedtuple("ModulusFamily", "kind p q alpha", defaults=(0, 0, 0))):
    """Which closed-form family a modulus n falls into.

    For ODD_PRIME_POWER, p and alpha are set (n = p**alpha).  For ODD_PQ,
    p < q are the two primes.  For ODD_P2Q, p is the squared prime and q the
    other one; p > q is admitted but lies outside the usual hypothesis and
    in_hypothesis turns False.
    """

    __slots__ = ()

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


_ZD_TO_BITS = bytes.maketrans(b"\x00\x01", b"10")

# Most decimal digits a ring order may have: reports write the order, and
# Python converts an int of at most 4300 digits to text
# (sys.int_info.default_max_str_digits).
MAX_ORDER_DIGITS = 4300
_MAX_ORDER = 10**MAX_ORDER_DIGITS - 1


def _bounded_order(p: int, e: int = 1) -> int:
    """p**e, or ValueError if that has more than MAX_ORDER_DIGITS digits,
    raised before the power is computed when p's bit length and e alone
    show it."""
    # p**e >= 2**((p.bit_length() - 1) * e), and past that test it has
    # fewer than twice _MAX_ORDER's bits
    if (p.bit_length() - 1) * e < _MAX_ORDER.bit_length() and (order := p**e) <= _MAX_ORDER:
        return order
    raise ValueError(f"a ring order has at most {MAX_ORDER_DIGITS} digits; this one has "
                     f"about {math.floor(e * math.log10(p)) + 1}")


class FiniteRing:
    """Base class of the two ring kinds, ZnRing and TruncatedPolyRing.

    Each fixes an element indexing 0..order-1 (index 0 is the ring zero) and
    provides the unit mask on it (unit_mask, bit v set iff element v is a
    unit).  The graph builders reject any other subclass with TypeError.

    local_factors holds one (q, s) pair per local factor of the ring: the
    size q of its residue field and the size s of its maximal ideal, a power
    of q.  An element is a unit iff its residue in each field is nonzero.
    """

    order: int
    local_factors: tuple[tuple[int, int], ...]

    @property
    def unit_count(self) -> int:
        return math.prod((q - 1) * s for q, s in self.local_factors)

    @property
    def two_is_unit(self) -> bool:
        return all(q % 2 for q, _ in self.local_factors)

    @property
    def is_local(self) -> bool:
        return len(self.local_factors) == 1

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class ZnRing(FiniteRing):
    """Integers modulo n; the element index is the residue."""

    def __init__(self, n: int):
        self.modulus = factorize(_bounded_order(n))
        self.n = n
        self.order = n
        self.local_factors = tuple((p, p ** (e - 1)) for p, e in self.modulus.factors)

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
        self.order = _bounded_order(p, k)
        self.lead = p ** (k - 1)  # index weight of the constant coefficient
        self.local_factors = ((p, self.lead),)

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
    return ZnRing(_bounded_order(p, alpha))

