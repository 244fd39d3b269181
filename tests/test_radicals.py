import itertools
import math
import pickle
import random
import time
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsombor import cli, radicals, rings
from ringsombor.radicals import (
    SQUARE_FREE_PROOF_BELOW,
    WIEFERICH_PRIMES,
    RadicalSum,
    radical_normalize,
    rational_sqrt,
)
from ringsombor.rings import PSI_13, _trial_divide, factorize, is_prime, primes_up_to


def squarefree_by_trial(s):
    # independent square-free check
    d = 2
    while d * d <= s:
        if s % (d * d) == 0:
            return False
        d += 1
    return True


def normalize_by_trial(m):
    # independent reference: plain trial division up to sqrt of the cofactor
    c, s, d = 1, 1, 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        c *= d ** (e // 2)
        s *= d ** (e % 2)
        d += 1 if d == 2 else 2
    return c, s * m


class TestNormalize:
    def test_examples(self):
        assert radical_normalize(18) == (3, 2)
        assert radical_normalize(85) == (1, 85)
        assert radical_normalize(7**2 * 2**4 * 3) == (28, 3)

    def test_edges(self):
        assert radical_normalize(1) == (1, 1)
        assert radical_normalize(25) == (5, 1)
        assert radical_normalize(2) == (1, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            radical_normalize(0)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=500)
    def test_canonical(self, m):
        c, s = radical_normalize(m)
        assert c * c * s == m
        assert squarefree_by_trial(s)

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=60, deadline=None)
    def test_matches_trial_division(self, m):
        assert radical_normalize(m) == normalize_by_trial(m)

    @pytest.mark.parametrize("m, expected", [
        ((10**9 + 7) ** 2 * (10**6 + 3), (10**9 + 7, 10**6 + 3)),
        ((10**12 + 39) ** 2 * (10**8 + 7), (10**12 + 39, 10**8 + 7)),
        ((10**9 + 7) ** 2 * (10**9 + 9) * (10**6 + 3) ** 3,
         ((10**9 + 7) * (10**6 + 3), (10**9 + 9) * (10**6 + 3))),
    ])
    def test_built_from_large_primes(self, m, expected):
        start = time.perf_counter()
        assert radical_normalize(m) == expected
        assert time.perf_counter() - start < 1.0

    def test_strong_pseudoprime_cofactor_is_split(self):
        # 399165290221 * 798330580441 is a strong pseudoprime to every base
        # up to 37; read as a prime it would leave the square inside s
        p, q = 399165290221, 798330580441
        assert radical_normalize(p * p * q) == (p, q)

    def test_large_square_times_two(self):
        # the shape the complement-identity cross term produces
        k = 199 * 66 * 132
        assert radical_normalize(2 * k * k) == (k, 2)


# primes above the trial-division bound of 1000, read off a sieve
BIG_PRIMES = [p for p in primes_up_to(40000) if p > 1000]


@pytest.fixture
def no_factoring(monkeypatch):
    """Make Miller-Rabin, the base-2 strong test and Pollard rho raise, so a
    radicand that reaches them fails; radical_normalize's cache is bypassed
    through __wrapped__."""
    def refuse(m):
        raise AssertionError(f"factoring reached for {m}")
    monkeypatch.setattr(rings, "_passes_miller_rabin", refuse)
    monkeypatch.setattr(rings, "_strong_probable_prime", refuse)
    monkeypatch.setattr(rings, "_rho_divisor", refuse)
    is_prime.cache_clear()  # so that no cached answer stands in for a test
    return radical_normalize.__wrapped__


class TestSquarePart:
    # radical_normalize reads the trial-division cofactor r without
    # factoring it when r is a square; every non-square r goes through
    # rings._split_cofactor, where a prime or two distinct primes is taken
    # whole by a base-2 test or a gcd proof without rho

    @pytest.mark.parametrize("p, q", [
        (1009, 1013), (10007, 39989), (999983, 1000003), (10**9 + 7, 10**9 + 9),
        (2**89 - 1, 10**12 + 39),
    ])
    @pytest.mark.parametrize("k, c_k, s_k", [
        (1, 1, 1), (2, 1, 2), (3 * 5, 1, 15), (2 * 7**2 * 11, 7, 22),
    ])
    def test_square_cofactor_is_not_factored(self, no_factoring, p, q, k, c_k, s_k):
        t = p * q
        assert no_factoring(t * t * k) == (t * c_k, s_k)

    def test_prime_or_two_prime_cofactor_split_without_rho(self, monkeypatch):
        split = refuse_rho_below_the_bound(monkeypatch)
        normalize = radical_normalize.__wrapped__
        rng = random.Random(1000)
        for _ in range(200):
            p, q = sorted(rng.sample(BIG_PRIMES, 2))
            if p * q < 10**9:
                assert normalize(p * q) == (1, p * q)
                assert normalize(12 * p * q) == (2, 3 * p * q)
        assert normalize(999999937 * 98) == (7, 2 * 999999937)  # a prime cofactor
        assert split == []

    def test_p2q_cofactor_split_into_its_square_part(self):
        # p^2 q in (10^9, 10^12) with p, q above 1000: not a square, so the
        # square part comes from splitting it
        rng = random.Random(10**12)
        cases = [(1009, 1013), (1013, 1009), (39989, 1009), (9973, 10007)]
        cases += [tuple(rng.sample(BIG_PRIMES, 2)) for _ in range(40)]
        for p, q in cases:
            if 10**9 < p * p * q < 10**12:
                assert radical_normalize.__wrapped__(p * p * q) == (p, q)
                assert radical_normalize.__wrapped__(6 * p * p * q) == (p, 6 * q)

    def test_square_cofactor_past_psi_13_is_exact(self):
        # the root of a square cofactor goes into c unfactored, so one at or
        # above PSI_13 is answered; factorize still needs its primes and
        # raises on the probable prime PSI_13
        assert radical_normalize((2**89 - 1) ** 2 * 3) == (2**89 - 1, 3)
        assert radical_normalize(PSI_13**2 * 12) == (2 * PSI_13, 3)
        with pytest.raises(ValueError, match=str(PSI_13)):
            factorize(PSI_13**2)


def normalize_by_factorize(m):
    """The reference c = prod p^(e // 2), s = prod p^(e % 2) over the proven
    primes of m."""
    factors = factorize(m).factors if m > 1 else ()
    return (math.prod(p ** (e // 2) for p, e in factors),
            math.prod(p ** (e % 2) for p, e in factors))


class TestSquareFreeParts:
    # a cofactor r that is not a square is split into square-free parts, not
    # into primes; only a part at or above SQUARE_FREE_PROOF_BELOW needs a
    # primality proof

    def test_bound(self):
        assert SQUARE_FREE_PROOF_BELOW == 6_700_000_000_000_000**2
        assert PSI_13 < SQUARE_FREE_PROOF_BELOW < 4.5e31
        assert WIEFERICH_PRIMES == (1093, 3511)
        for p in WIEFERICH_PRIMES:
            assert pow(2, p - 1, p * p) == 1

    def test_agrees_with_factorize_below_psi_13(self):
        # log-uniform m, and m = a^2 * b, below PSI_13
        rng = random.Random(3317)
        samples = []
        for _ in range(400):
            samples.append(int(math.exp(rng.uniform(math.log(10**9), math.log(PSI_13)))))
            a = rng.randrange(2, 10**rng.randrange(2, 10))
            samples.append(a * a * rng.randrange(1, PSI_13 // (a * a)))
        for m in samples:
            assert radical_normalize.__wrapped__(m) == normalize_by_factorize(m), m

    @pytest.mark.parametrize("w, r", [(1093, 4733), (1093, 21841), (3511, 1969111),
                                      (3511, 6553 * 13807)])
    @pytest.mark.parametrize("k", [1, 6, 1093 * 3511])
    def test_wieferich_square_is_divided_out(self, w, r, k):
        # w^2 * r is a strong probable prime to base 2, so taken whole it
        # would leave the square w^2 under the radical
        assert rings._strong_probable_prime(w * w * r, (2,))
        m = k * w * w * r
        assert radical_normalize.__wrapped__(m) == normalize_by_factorize(m) == (w, k * r)

    @pytest.mark.parametrize("p, q, t", [(1013, 1657, 25301), (1021, 3061, 4421)])
    def test_two_whole_parts_that_share_a_prime(self, monkeypatch, p, q, t):
        # p*q and p*t are strong pseudoprimes to base 2, so each is taken
        # whole; a rho that splits p^2*q*t into them leaves the two parts to
        # be refined by their gcd p.  p^2*q*t is below 2^48, where gcd
        # proofs split it instead, into parts refined the same way; with that
        # bound lowered to 0, rho splits it
        a, b = p * q, p * t
        assert rings._strong_probable_prime(a, (2,)) and rings._strong_probable_prime(b, (2,))
        expected = (p, q * t)
        assert radical_normalize.__wrapped__(a * b) == normalize_by_factorize(a * b) == expected
        split = []
        real = rings._rho_divisor
        monkeypatch.setattr(rings, "_rho_divisor",
                            lambda n: split.append(n) or (a if n == a * b else real(n)))
        monkeypatch.setattr(radicals, "_GCD_PROOF_BELOW", 0)
        assert radical_normalize.__wrapped__(a * b) == expected
        assert split == [a * b]

    def test_probable_prime_past_psi_13_goes_under_the_radical(self, monkeypatch):
        # 3380000000569400000023981, the unit-graph radicand of the prime
        # modulus 1300000000111, is above PSI_13 and a strong probable prime
        # to every base up to 41: factorize cannot prove it prime, but one
        # base-2 test proves it square-free
        r = 3380000000569400000023981
        with pytest.raises(ValueError, match=str(PSI_13)):
            factorize(r)
        tested = []
        real = rings._strong_probable_prime
        monkeypatch.setattr(rings, "_strong_probable_prime",
                            lambda m, bases: tested.append((m, bases)) or real(m, bases))
        assert radical_normalize.__wrapped__(4 * r) == (2, r)
        assert tested == [(r, (2,))]

    def test_above_the_bound_still_needs_a_proof(self):
        # the unit-graph radicand of the prime modulus 5000000000001449 is a
        # probable prime above SQUARE_FREE_PROOF_BELOW, so it raises as before
        r = 50000000000028950000000004190513
        assert r > SQUARE_FREE_PROOF_BELOW
        with pytest.raises(ValueError, match=str(PSI_13)):
            radical_normalize.__wrapped__(r)

    def test_cofactor_above_the_bound_is_split_by_rho(self):
        # the unit-graph radicand (n-1)^2 + (n-2)^2 of the prime modulus
        # n = 105853083852596953 leaves, after 5, a composite cofactor above
        # SQUARE_FREE_PROOF_BELOW; rho splits it into 58677793 and a
        # probable prime between PSI_13 and the bound, which needs only the
        # base-2 test, not a primality proof
        n = 105853083852596953
        m = (n - 1) ** 2 + (n - 2) ** 2
        assert m == 22409750722209842944549021414186705
        r = 4481950144441968588909804282837341
        assert _trial_divide(m) == ({5: 1}, r) and r >= SQUARE_FREE_PROOF_BELOW
        part = 76382391281178018895663037
        assert r == part * 58677793 and PSI_13 < part < SQUARE_FREE_PROOF_BELOW
        assert rings._strong_probable_prime(part, rings._MR_BASES)
        with pytest.raises(ValueError, match=str(PSI_13)):
            factorize(part)
        assert radical_normalize.__wrapped__(m) == (1, m)

    def test_cofactor_above_the_bits_bound_refused_before_any_test(self, no_factoring):
        # a 321-bit cofactor is refused before the base-2 test or rho, with
        # the message rings._split_cofactor gives factorize too
        r = next(m for m in itertools.count((1 << rings.FACTOR_BITS) + 1, 2)
                 if math.gcd(m, rings._TRIAL_PRODUCT) == 1)
        assert r.bit_length() == rings.FACTOR_BITS + 1 and math.isqrt(r) ** 2 != r
        with pytest.raises(ValueError, match="a 321-bit cofactor is left to factor, "
                                             "above the 320-bit bound"):
            no_factoring(12 * r)


def refuse_rho_below_the_bound(monkeypatch):
    """Make rings._rho_divisor raise on any number below 2^48; returns the
    record of the numbers at or above it that it splits."""
    split = []
    real = rings._rho_divisor

    def rho(n):
        if n < radicals._GCD_PROOF_BELOW:
            raise AssertionError(f"rho reached on {n}, below 2^48")
        split.append(n)
        return real(n)

    monkeypatch.setattr(rings, "_rho_divisor", rho)
    return split


# the primes the witnesses below are built from: those below 2^17 read off
# the sieve, and known primes above it named outright
SIEVED = set(primes_up_to(1 << 17))
LARGE_PRIMES = (10**6 + 3, 10**9 + 7, 10**9 + 9, 10**12 + 39, 2**61 - 1)


class TestBuiltFromKnownPrimes:
    # radical_normalize and factorize share one splitter, so neither is a
    # witness for the other: here m is built from known primes, and (c, s)
    # and the factorization are read off that construction.  The cases take
    # each route of the radicand rule, and reach rho only at or above 2^48

    @pytest.mark.parametrize("primes, rho", [
        ({1093: 2, 4733: 1, 3: 1}, False),
        ({3511: 3, 10**9 + 7: 1}, False),
        ({1009: 1, 1013: 1, 1019: 1, 2: 1}, False),
        ({65521: 2, 65537: 1}, False),
        ({10**9 + 7: 2, 10**9 + 9: 1}, True),
        ({2**61 - 1: 1, 10**6 + 3: 2, 5: 1}, True),
        ({10**12 + 39: 1, 65537: 1, 3: 2}, True),
        ({1013: 1, 1657: 1, 7: 3}, False),
        ({1013: 2, 1657: 1, 25301: 1}, False),
    ], ids=[
        "wieferich-square-that-passes-base-2", "wieferich-cube",
        "gcd-proof-three-primes", "gcd-proof-p2q-below-2^48",
        "rho-p2q-above-2^48", "rho-mersenne-prime-times-a-square", "rho-two-primes-above-2^48",
        "two-primes-that-pass-base-2", "two-base-2-pseudoprimes-sharing-a-prime",
    ])
    def test_matches_the_construction(self, monkeypatch, primes, rho):
        assert all(p in SIEVED or p in LARGE_PRIMES for p in primes)
        m = math.prod(p**e for p, e in primes.items())
        expected = (math.prod(p ** (e // 2) for p, e in primes.items()),
                    math.prod(p ** (e % 2) for p, e in primes.items()))
        split = refuse_rho_below_the_bound(monkeypatch)
        assert radical_normalize.__wrapped__(m) == expected
        assert bool(split) == rho
        monkeypatch.undo()
        assert rings.factorize.__wrapped__(m).factors == tuple(sorted(primes.items()))


def prime_from(start):
    return next(m for m in itertools.count(start | 1, 2) if is_prime(m))


def semiprimes(rng):
    # p * q with 2^16 <= p < q
    out = []
    while len(out) < 30:
        p = prime_from(rng.randrange(1 << 16, 1 << 24))
        q = prime_from(rng.randrange(p + 1, max(p + 2, (1 << 48) // p)))
        if 10**9 <= p * q < 1 << 48:
            out.append(p * q)
    return out


def p2q_across_2_16(rng):
    # p^2 * q with 1000 < p < 2^16 <= q, after 65521^2 * 65537: the largest
    # prime below 2^16, squared, times the least above it
    out = [65521**2 * 65537]
    while len(out) < 30:
        p = rng.choice(MID_PRIMES)
        q = prime_from(rng.randrange(1 << 16, (1 << 48) // (p * p)))
        if 10**9 <= p * p * q < 1 << 48:
            out.append(p * p * q)
    return out


def smooth_square_free(rng):
    # products of distinct primes in (1000, 2^16)
    out = []
    while len(out) < 30:
        m = math.prod(rng.sample(MID_PRIMES, rng.choice((3, 4))))
        if 10**9 <= m < 1 << 48:
            out.append(m)
    return out


def with_a_wieferich_prime(rng):
    # w^e * p * q with w = 1093 or 3511, 1000 < p < 2^16 and q > p
    out = []
    while len(out) < 30:
        m = rng.choice(WIEFERICH_PRIMES) ** rng.randint(1, 3) * rng.choice(MID_PRIMES)
        top = (1 << 48) // m
        if top > 1 << 17:
            m *= prime_from(rng.randrange(1 << 16, top))
            if 10**9 <= m < 1 << 48:
                out.append(m)
    return out


# primes strictly between the trial bound and 2^16
MID_PRIMES = [p for p in primes_up_to(1 << 16) if p > 1000]


class TestGcdProof:
    # a cofactor part below 2^48 that is composite and not a square is split
    # by its gcds with products of the primes from 1000 to 2^16, never by rho

    def test_bound(self):
        assert radicals._GCD_PROOF_BELOW == 2**48 == radicals._GCD_PROOF_PRIMES_BELOW**3
        chunks = radicals._gcd_proof_chunks()
        assert math.prod(product for _, product in chunks) == math.prod(MID_PRIMES)
        assert [least for least, _ in chunks] == MID_PRIMES[::radicals._GCD_PROOF_CHUNK]

    def test_chunks_match_a_reference_built_inline(self):
        # the primes from 1000 to 2^16 by odd trial division, in runs of 256
        primes = [p for p in range(1001, 1 << 16, 2)
                  if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]
        expected = [(primes[i], math.prod(primes[i:i + 256])) for i in range(0, len(primes), 256)]
        assert len(expected) == 25
        assert list(radicals._gcd_proof_chunks()) == expected

    @pytest.mark.parametrize("cofactors", [semiprimes, p2q_across_2_16, smooth_square_free,
                                           with_a_wieferich_prime])
    @pytest.mark.parametrize("k", [1, 6])
    def test_agrees_with_factorize_without_rho(self, monkeypatch, cofactors, k):
        ms = [k * r for r in cofactors(random.Random(cofactors.__name__))]
        expected = [normalize_by_factorize(m) for m in ms]
        split = refuse_rho_below_the_bound(monkeypatch)
        assert [radical_normalize.__wrapped__(m) for m in ms] == expected
        assert split == []

    @pytest.mark.parametrize("p, q", [(65521, 65537), (1009, 65537), (65519, 65543),
                                      (1093, 100003)])
    def test_p2q_below_the_bound(self, monkeypatch, p, q):
        # the square of a prime below 2^16 times one above it: 65521^2 * 65537
        # is just below 2^48, and 1093 is a Wieferich prime
        m = p * p * q
        assert 10**9 <= m < 1 << 48
        split = refuse_rho_below_the_bound(monkeypatch)
        assert radical_normalize.__wrapped__(m) == (p, q)
        assert radical_normalize.__wrapped__(30 * m) == (p, 30 * q)
        assert split == []

    def test_p2q_above_the_bound_is_split_by_rho(self, monkeypatch):
        # 65537^2 * 65539 is just above 2^48, so rho splits it as before
        m = 65537**2 * 65539
        assert m >= 1 << 48
        split = refuse_rho_below_the_bound(monkeypatch)
        assert radical_normalize.__wrapped__(m) == (65537, 65539) == normalize_by_factorize(m)
        assert m in split

    @pytest.mark.parametrize("n, graph", [(20842763, "unit"), (33107647, "total"),
                                          (12343727, "unit"), (188362373, "unit"),
                                          (34214857, "unit")])
    def test_panel_radicands_need_no_rho(self, monkeypatch, capsys, n, graph):
        # closed queries whose radicands leave cofactors of 40 to 48 bits,
        # each two primes above 2^17, which rho used to split
        radicands = []
        real = radicals.radical_normalize
        monkeypatch.setattr(radicals, "radical_normalize", lambda m: radicands.append(m) or real(m))
        assert cli.main(["compute", "--ring", "zn", "--n", str(n), "--graph", graph,
                         "--mode", "closed"]) == 0
        capsys.readouterr()
        monkeypatch.undo()
        expected = [normalize_by_factorize(m) for m in radicands]
        assert any(2**39 <= _trial_divide(m)[1] < 2**48 for m in radicands)

        def refuse(m):
            raise AssertionError(f"rho reached on {m}")

        monkeypatch.setattr(rings, "_rho_divisor", refuse)
        assert [radical_normalize.__wrapped__(m) for m in radicands] == expected


def rsums(max_terms=4):
    radicand = st.integers(min_value=1, max_value=400)
    coeff = st.fractions(min_value=-50, max_value=50, max_denominator=12)
    return st.dictionaries(radicand, coeff, max_size=max_terms).map(RadicalSum)


class TestArithmetic:
    def test_add_like_terms(self):
        two_rt2 = RadicalSum.sqrt(2) * 2
        three_rt2 = RadicalSum.sqrt(2) * 3
        assert two_rt2 + three_rt2 == RadicalSum.sqrt(2) * 5

    def test_normalization_on_add(self):
        assert RadicalSum.sqrt(8) + RadicalSum.sqrt(2) == RadicalSum.sqrt(2) * 3

    def test_distinct_radicands_stay_apart(self):
        a = RadicalSum.sqrt(2) * 218 + RadicalSum.sqrt(85) * 16
        b = RadicalSum.sqrt(2) * 218 + RadicalSum.sqrt(86) * 16
        assert a == a
        assert a != b

    def test_cancellation(self):
        v = RadicalSum.sqrt(3) - RadicalSum.sqrt(3)
        assert v.is_zero
        assert v == 0

    def test_mul_combines_radicands(self):
        assert RadicalSum.sqrt(6) * RadicalSum.sqrt(10) == RadicalSum.sqrt(15) * 2
        assert RadicalSum.sqrt(2) * RadicalSum.sqrt(2) == 2

    def test_scalar_ops(self):
        v = RadicalSum.sqrt(5) * Fraction(3, 2)
        assert v + v == RadicalSum.sqrt(5) * 3
        assert v * 0 == RadicalSum()
        assert 2 * v == RadicalSum.sqrt(5) * 3

    def test_sum_builtin(self):
        parts = [RadicalSum.sqrt(2), RadicalSum.sqrt(8), RadicalSum.from_rational(1)]
        assert sum(parts) == RadicalSum({2: 3, 1: 1})

    @given(rsums(), rsums(), rsums())
    @settings(max_examples=200)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + RadicalSum() == a
        assert a - a == RadicalSum()

    @given(rsums(), st.fractions(min_value=-20, max_value=20, max_denominator=9))
    @settings(max_examples=200)
    def test_scale_distributes(self, a, c):
        assert (a + a) * c == a * c + a * c

    def test_as_rational(self):
        assert RadicalSum.from_rational(Fraction(7, 3)).as_rational() == Fraction(7, 3)
        assert RadicalSum().as_rational() == 0
        with pytest.raises(ValueError):
            (RadicalSum.sqrt(2)).as_rational()

    def test_hashable(self):
        assert hash(RadicalSum.sqrt(8)) == hash(RadicalSum.sqrt(2) * 2)

    def test_pickle_round_trip(self):
        v = RadicalSum({2: Fraction(33, 2), 1: 20})
        assert pickle.loads(pickle.dumps(v)) == v


def canonical_types(v):
    # every coefficient an int when integral, a Fraction otherwise
    return all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
               for _, c in v.terms())


class TestCoefficientType:
    def test_integral_coefficients_are_ints(self):
        half = RadicalSum({2: Fraction(1, 2)})
        values = [
            RadicalSum({2: Fraction(4, 2), 3: Fraction(3, 2), 1: Fraction(-6, 3)}),
            half + half, half * 2, half * Fraction(4, 3) * 3, half - half * 3,
            half * RadicalSum({2: 4, 6: Fraction(1, 3)}), RadicalSum.sqrt(8) * Fraction(1, 2),
            RadicalSum.from_rational(Fraction(6, 3)), rational_sqrt(Fraction(9, 4)),
            rational_sqrt(8), RadicalSum.parse("-3/2 + 4*sqrt(2)"), RadicalSum({5: True}),
        ]
        for v in values:
            assert canonical_types(v), v.terms()
        assert (half + half).terms() == ((2, 1),)
        assert type((half + half).terms()[0][1]) is int
        assert type(RadicalSum({3: Fraction(3, 2)}).terms()[0][1]) is Fraction

    def test_as_rational_is_a_fraction(self):
        for v in (RadicalSum(), RadicalSum.from_rational(2), RadicalSum.from_rational(Fraction(7, 2))):
            assert type(v.as_rational()) is Fraction
        assert RadicalSum.from_rational(Fraction(4, 2)).as_rational() == Fraction(2)

    def test_fraction_and_int_built_values_coincide(self):
        a = RadicalSum({2: Fraction(4, 2), 1: Fraction(10, 5)})
        b = RadicalSum({2: 2, 1: 2})
        assert a == b and hash(a) == hash(b)
        assert a.render() == b.render() == "2 + 2*sqrt(2)"
        assert a.terms() == b.terms()
        assert [type(c) for _, c in a.terms()] == [int, int]

    @given(st.dictionaries(st.integers(min_value=1, max_value=400),
                           st.fractions(min_value=-50, max_value=50, max_denominator=6),
                           max_size=5))
    @settings(max_examples=300)
    def test_fraction_or_int_terms_give_one_value(self, terms):
        as_fractions = RadicalSum({s: Fraction(c) for s, c in terms.items()})
        as_ints = RadicalSum({s: c.numerator if c.denominator == 1 else c
                              for s, c in terms.items()})
        assert as_fractions == as_ints
        assert hash(as_fractions) == hash(as_ints)
        assert as_fractions.render() == as_ints.render()
        assert canonical_types(as_fractions) and canonical_types(as_ints)
        assert canonical_types(as_fractions * as_ints + as_ints)


class TestToFloat:
    def test_five_sqrt_two(self):
        v = RadicalSum.sqrt(2) * 5
        assert abs(v.to_float() - 7.0710678118654755) < 1e-12

    def test_zero(self):
        assert RadicalSum().to_float() == 0.0

    def test_beyond_the_float_range_raises(self):
        # each coefficient is a finite double; the sums are not
        assert math.isfinite(RadicalSum({2: 2 ** 1023}).to_float())
        for value in (RadicalSum({2: 3 * 2 ** 1022}),
                      RadicalSum({2: 3 * 2 ** 1022, 3: -3 * 2 ** 1022})):
            with pytest.raises(OverflowError):
                value.to_float()

    def test_mixed_sum_high_precision(self):
        # oracle: 50-digit decimal evaluation of 218*sqrt(2) + 16*sqrt(85)
        getcontext().prec = 50
        expected = 218 * Decimal(2).sqrt() + 16 * Decimal(85).sqrt()
        v = RadicalSum.sqrt(2) * 218 + RadicalSum.sqrt(85) * 16
        assert abs(v.to_float() - float(expected)) < 1e-9


class TestRationalSqrt:
    def test_perfect_square_fraction(self):
        assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)

    def test_integer(self):
        assert rational_sqrt(200) == RadicalSum.sqrt(2) * 10

    def test_half(self):
        assert rational_sqrt(Fraction(1, 2)) == RadicalSum({2: Fraction(1, 2)})

    def test_zero_and_negative(self):
        assert rational_sqrt(0) == RadicalSum()
        with pytest.raises(ValueError):
            rational_sqrt(-1)

    @given(st.fractions(min_value=0, max_value=300, max_denominator=40))
    @settings(max_examples=200)
    def test_square_recovers(self, v):
        root = rational_sqrt(v)
        assert root * root == RadicalSum.from_rational(v)


class TestText:
    def test_render_examples(self):
        assert RadicalSum().render() == "0"
        assert (RadicalSum.from_rational(20) + RadicalSum.sqrt(2) * 12).render() == "20 + 12*sqrt(2)"
        assert (RadicalSum.sqrt(5) * 54).render() == "54*sqrt(5)"
        assert RadicalSum({2: Fraction(33, 2)}).render() == "33/2*sqrt(2)"
        assert (RadicalSum.sqrt(2) * -1).render() == "-1*sqrt(2)"

    def test_radicands_ascend(self):
        v = RadicalSum.sqrt(85) * 16 + RadicalSum.sqrt(2) * 218
        assert v.render() == "218*sqrt(2) + 16*sqrt(85)"

    def test_parse_inverse(self):
        for text in ("0", "20 + 12*sqrt(2)", "-3/2 + 1/2*sqrt(3) + 7*sqrt(10)"):
            assert RadicalSum.parse(text).render() == text

    def test_parse_rejects_junk(self):
        for bad in ("", "sqrt", "1*sqrt(8)", "2*sqrt(2) + 3*sqrt(2)", "0*sqrt(2)", "1*sqrt(2",
                    "1/0", "1/0*sqrt(2)"):
            with pytest.raises(ValueError):
                RadicalSum.parse(bad)

    def test_round_trip_fuzz(self):
        rng = random.Random(20240817)
        squarefree = [s for s in range(1, 200) if radical_normalize(s)[0] == 1]
        for _ in range(2000):
            terms = {}
            for s in rng.sample(squarefree, rng.randint(0, 5)):
                num = rng.randint(-10**6, 10**6)
                den = rng.randint(1, 1000)
                if num:
                    terms[s] = Fraction(num, den)
            v = RadicalSum(terms)
            assert RadicalSum.parse(v.render()) == v

    @given(rsums())
    @settings(max_examples=300)
    def test_round_trip_property(self, v):
        assert RadicalSum.parse(v.render()) == v
