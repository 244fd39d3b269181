"""Exact sums of rational multiples of integer square roots.

A value is a finite map {square-free radicand s: rational coefficient c}
denoting sum(c * sqrt(s)).  Square roots of distinct square-free integers are
linearly independent over the rationals, so the canonical map makes equality
testing exact: two values are equal iff their term maps are identical.  The
rational part of a value lives under radicand 1.  Each coefficient has one
canonical type: an int when it is integral, a Fraction otherwise, so the
closed forms, whose coefficients lie in (1/2)Z, run on ints.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from functools import cache, lru_cache

from . import rings
from .rings import _TRIAL_BOUND, CACHE_SIZE, _trial_divide

# The base-2 Wieferich primes, p with 2^(p-1) = 1 (mod p^2), below
# 6.7*10^15: Dorais and Klyve, "A Wieferich prime search up to 6.7x10^15",
# J. Integer Sequences 14 (2011), art. 11.9.2, found only these two.  If a
# prime p has p^2 dividing an r with 2^(r-1) = 1 (mod r), the order of 2 mod
# p^2 divides r - 1 and p(p - 1), and p does not divide r - 1, so it
# divides p - 1: p is a Wieferich prime.  Below SQUARE_FREE_PROOF_BELOW such
# a p is below 6.7*10^15, so an r there that 1093 and 3511 do not divide,
# and that passes the base-2 strong test, is square-free, prime or not.
WIEFERICH_PRIMES = (1093, 3511)
SQUARE_FREE_PROOF_BELOW = 6_700_000_000_000_000**2

# A part below _GCD_PROOF_BELOW = (2^16)^3 with no prime factor below 2^16
# is, when not a square, 1, a prime or two distinct primes: three of them
# would make at least (2^16)^3 (_small_prime_part).
_GCD_PROOF_PRIMES_BELOW = 1 << 16
_GCD_PROOF_BELOW = _GCD_PROOF_PRIMES_BELOW**3


@lru_cache(maxsize=CACHE_SIZE)
def radical_normalize(m: int) -> tuple[int, int]:
    """Write sqrt(m) = c*sqrt(s) with s square-free; returns (c, s).

    c = prod p^(e // 2) and s = prod p^(e % 2) over the primes p^e that
    rings._trial_divide takes out of m.  The cofactor r it leaves goes into
    c as isqrt(r) when r is a square, and is otherwise split into
    square-free parts by rings._split_cofactor, the splitter factorize
    uses, with _square_free_part_divisor as its rule.  Raises ValueError
    when a non-square part has more than rings.FACTOR_BITS bits, when a
    part at or above SQUARE_FREE_PROOF_BELOW needs a primality proof beyond
    rings.PSI_13, or when rho needs more than rings.RHO_STEPS squarings on
    one part.
    """
    if m < 1:
        raise ValueError(f"radicand must be positive, got {m}")
    factors, r = _trial_divide(m)
    c, s = 1, 1
    root = math.isqrt(r)
    if root * root == r:
        c *= root
    else:
        rings._split_cofactor(r, factors, _square_free_part_divisor)
    for p, e in factors.items():
        c *= p ** (e // 2)
        if e & 1:
            s *= p
    return c, s


def _square_free_part_divisor(x: int) -> int:
    """radical_normalize's rule for rings._split_cofactor, on a part x that
    is not a square and has no prime factor below _TRIAL_BOUND.  A
    WIEFERICH_PRIMES factor is split off first.  Then x is taken whole if
    it passes the base-2 strong test, except at or above
    SQUARE_FREE_PROOF_BELOW, where rings.is_prime decides: it raises on a
    probable prime there, past rings.PSI_13, so only a composite goes on.
    A part at or above _GCD_PROOF_BELOW goes to rho (1).  Any other is
    split without rho: the product d of its small prime factors
    (_small_prime_part) is square-free, so x is split there, and d = 1
    proves x square-free, so x is taken whole."""
    for p in WIEFERICH_PRIMES:
        if x % p == 0:
            return p
    if (rings._strong_probable_prime(x, (2,)) if x < SQUARE_FREE_PROOF_BELOW
            else rings.is_prime(x)):
        return x
    if x >= _GCD_PROOF_BELOW:
        return 1
    d = _small_prime_part(x)
    return d if d > 1 else x


# Primes per product in _gcd_proof_chunks: a part reads only the chunks whose
# least prime p has p^3 <= it, and each chunk read costs a gcd call.
_GCD_PROOF_CHUNK = 256


@cache
def _gcd_proof_chunks() -> tuple[tuple[int, int], ...]:
    """(least prime, product) for each run of _GCD_PROOF_CHUNK consecutive
    primes from _TRIAL_BOUND up to _GCD_PROOF_PRIMES_BELOW, ascending;
    built at the first part that needs them."""
    primes = rings.primes_up_to(_GCD_PROOF_PRIMES_BELOW)
    primes = primes[bisect_left(primes, _TRIAL_BOUND):]
    return tuple((primes[i], math.prod(primes[i:i + _GCD_PROOF_CHUNK]))
                 for i in range(0, len(primes), _GCD_PROOF_CHUNK))


def _small_prime_part(x: int) -> int:
    """The square-free product of the primes in the chunks of
    _gcd_proof_chunks that divide x, a part below _GCD_PROOF_BELOW with no
    prime factor below _TRIAL_BOUND: one gcd per chunk, read while the
    chunk's least prime p has p^3 <= x.  When it is 1, x has no prime
    factor below the first chunk left unread (65537 once all are read) and
    is below that prime's cube, so x, if not a square, is 1, a prime or two
    distinct primes."""
    d = 1
    for least, product in _gcd_proof_chunks():
        if least**3 > x:
            break
        d *= math.gcd(x, product)
    return d


def _canon(c):
    """The canonical type of a rational c: an int when integral."""
    return c.numerator if c.denominator == 1 else c


def _add_term(terms: dict, s: int, c) -> None:
    """Add c*sqrt(s) to terms, a canonical map with s square-free: the sum
    is stored in its canonical type, and a zero sum drops s."""
    acc = terms.get(s, 0) + c
    if acc:
        terms[s] = _canon(acc)
    else:
        terms.pop(s, None)


class RadicalSum:
    """Immutable exact value sum(c * sqrt(s)); supports +, -, *, ==.

    The constructor accepts any {radicand: coefficient} mapping: radicands
    are normalized to square-free form, like terms merged, zero coefficients
    dropped.  The empty sum is zero.  A coefficient is stored as an int
    when integral and as a Fraction otherwise, so values built from
    Fraction(4, 2) and from 2 are the same value, hash and text.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        tidy: dict[int, int | Fraction] = {}
        if terms:
            for s, c in terms.items():
                if not isinstance(c, (int, Fraction)):
                    c = Fraction(c)
                if not c:
                    continue
                cc, ss = radical_normalize(s)
                _add_term(tidy, ss, c * cc)
        self._terms = tidy

    @classmethod
    def from_rational(cls, value) -> "RadicalSum":
        return cls({1: value})

    @classmethod
    def sqrt(cls, m: int) -> "RadicalSum":
        """The exact value sqrt(m) for integer m >= 0."""
        if m < 0:
            raise ValueError(f"radicand must be nonnegative, got {m}")
        if m == 0:
            return cls()
        return cls({m: 1})

    def terms(self) -> tuple[tuple[int, int | Fraction], ...]:
        """(radicand, coefficient) pairs, radicands ascending; each
        coefficient an int when integral, else a Fraction."""
        return tuple((s, self._terms[s]) for s in sorted(self._terms))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def as_rational(self) -> Fraction:
        """The value as a Fraction; raises if any irrational term remains."""
        extra = [s for s in self._terms if s != 1]
        if extra:
            raise ValueError(f"irrational radicands {extra} present")
        return Fraction(self._terms.get(1, 0))

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for s, c in other._terms.items():
            _add_term(out, s, c)
        return _wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return _wrap({s: -c for s, c in self._terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return RadicalSum()
            return _wrap({s: _canon(c * other) for s, c in self._terms.items()})
        if isinstance(other, RadicalSum):
            out: dict[int, int | Fraction] = {}
            for s1, c1 in self._terms.items():
                for s2, c2 in other._terms.items():
                    g = math.gcd(s1, s2)
                    _add_term(out, (s1 // g) * (s2 // g), c1 * c2 * g)
            return _wrap(out)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RadicalSum.from_rational(other)
        if not isinstance(other, RadicalSum):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def to_float(self) -> float:
        """Double-precision evaluation; off by at most a few ulp per term."""
        total = sum(float(self._terms[s]) * math.sqrt(s) for s in sorted(self._terms))
        if not math.isfinite(total):
            raise OverflowError("RadicalSum beyond the float range")
        return total

    def render(self) -> str:
        """Canonical text: terms ascending by radicand, each c*sqrt(s), the
        radicand-1 term printed as a bare rational, '0' when empty."""
        if not self._terms:
            return "0"
        parts = []
        for s in sorted(self._terms):
            c = self._terms[s]
            parts.append(str(c) if s == 1 else f"{c}*sqrt({s})")
        return " + ".join(parts)

    @classmethod
    def parse(cls, text: str) -> "RadicalSum":
        """Exact inverse of render on canonical text."""
        t = text.strip()
        if t == "0":
            return cls()
        terms: dict[int, Fraction] = {}
        for token in t.split(" + "):
            token = token.strip()
            s, coeff_text = 1, token
            if "*sqrt(" in token:
                coeff_text, rest = token.split("*sqrt(", 1)
                if not rest.endswith(")"):
                    raise ValueError(f"malformed radical term {token!r}")
                s = int(rest[:-1])
                if s < 2 or radical_normalize(s)[0] != 1:
                    raise ValueError(f"radicand {s} not square-free and > 1")
            try:
                c = Fraction(coeff_text)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {token!r}") from None
            if c == 0:
                raise ValueError("zero coefficient in canonical text")
            if s in terms:
                raise ValueError(f"duplicate radicand {s}")
            terms[s] = c
        return cls(terms)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RadicalSum({self.render()!r})"


def _coerce(value):
    if isinstance(value, RadicalSum):
        return value
    if isinstance(value, (int, Fraction)):
        return RadicalSum.from_rational(value)
    return None


def _wrap(terms: dict[int, int | Fraction]) -> RadicalSum:
    # Internal fast path: terms already canonical.
    out = RadicalSum.__new__(RadicalSum)
    out._terms = terms
    return out


def rational_sqrt(value) -> RadicalSum:
    """Exact square root of a nonnegative rational: sqrt(n/d) = sqrt(n*d)/d."""
    v = Fraction(value)
    if v < 0:
        raise ValueError(f"cannot take the square root of {v}")
    if v == 0:
        return RadicalSum()
    c, s = radical_normalize(v.numerator * v.denominator)
    return RadicalSum({s: Fraction(c, v.denominator)})
