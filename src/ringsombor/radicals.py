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
from fractions import Fraction
from functools import lru_cache

from . import rings
from .rings import _TRIAL_BOUND, CACHE_SIZE, _factor_cofactor, _trial_divide

# A cofactor of _trial_divide below this, when not a square, is 1, a prime or
# two distinct primes: it has no prime factor below _TRIAL_BOUND, so three of
# them would make at least _TRIAL_BOUND**3.
_SQUARE_FREE_BELOW = _TRIAL_BOUND**3

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


@lru_cache(maxsize=CACHE_SIZE)
def radical_normalize(m: int) -> tuple[int, int]:
    """Write sqrt(m) = c*sqrt(s) with s square-free; returns (c, s).

    c = prod p^(e // 2) and s = prod p^(e % 2) over the primes p^e that
    rings._trial_divide takes out of m.  The cofactor r it leaves goes into
    c as isqrt(r) when r is a square, into s whole when it is below
    _SQUARE_FREE_BELOW, is split into square-free parts when it is below
    SQUARE_FREE_PROOF_BELOW (_square_free_parts), and otherwise is factored
    (rings._factor_cofactor).  Raises ValueError when that factoring needs a
    primality proof beyond rings.PSI_13, when rho needs more than
    rings.RHO_STEPS squarings on one cofactor or part, or when a non-square
    cofactor has more than rings.FACTOR_BITS bits.
    """
    if m < 1:
        raise ValueError(f"radicand must be positive, got {m}")
    factors, r = _trial_divide(m)
    c, s = 1, 1
    root = math.isqrt(r)
    if root * root == r:
        c *= root
    elif r < _SQUARE_FREE_BELOW:
        s *= r
    elif r < SQUARE_FREE_PROOF_BELOW:
        _square_free_parts(r, factors)
    else:
        _factor_cofactor(r, factors)
    for p, e in factors.items():
        c *= p ** (e // 2)
        if e & 1:
            s *= p
    return c, s


def _square_free_parts(r: int, factors: dict[int, int]) -> None:
    """Add r, below SQUARE_FREE_PROOF_BELOW, to factors as square-free parts,
    each to the power it divides r, pairwise coprime and coprime to the
    primes already in factors.  The WIEFERICH_PRIMES are divided out; then
    a square part is taken by its root at twice the power, a part that
    passes the base-2 strong test is taken whole, and any other part is
    split by rings._rho_divisor.  Two parts taken whole may share a prime,
    so a part x that meets a y in factors is refined by their gcd g into g,
    x // g and y // g."""
    for p in WIEFERICH_PRIMES:
        while r % p == 0:
            r //= p
            factors[p] = factors.get(p, 0) + 1
    pending = [(r, 1)]  # (part, multiplicity)
    while pending:
        x, mult = pending.pop()
        if x == 1:
            continue
        root = math.isqrt(x)
        if root * root == x:
            pending.append((root, 2 * mult))
        elif not rings._strong_probable_prime(x, (2,)):
            d = rings._rho_divisor(x)
            pending += [(d, mult), (x // d, mult)]
        else:
            for y, other in factors.items():
                g = math.gcd(x, y)
                if g > 1:
                    del factors[y]
                    pending += [(g, mult + other), (x // g, mult), (y // g, other)]
                    break
            else:
                factors[x] = mult


def _canon(c):
    """The canonical type of a rational c: an int when integral."""
    return c.numerator if c.denominator == 1 else c


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
                acc = tidy.get(ss, 0) + c * cc
                if acc:
                    tidy[ss] = _canon(acc)
                elif ss in tidy:
                    del tidy[ss]
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
            acc = out.get(s, 0) + c
            if acc:
                out[s] = _canon(acc)
            elif s in out:
                del out[s]
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
                    s = (s1 // g) * (s2 // g)
                    acc = out.get(s, 0) + c1 * c2 * g
                    if acc:
                        out[s] = _canon(acc)
                    elif s in out:
                        del out[s]
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
        return sum(float(self._terms[s]) * math.sqrt(s) for s in sorted(self._terms))

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
