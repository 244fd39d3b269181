import bisect
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import definitional
from ringsombor.graphs import TOTAL, UNIT, predicted_degrees, row_source
from ringsombor.radicals import radical_normalize
from ringsombor.rings import (
    CACHE_SIZE,
    EVEN,
    FACTOR_BITS,
    MAX_ORDER_DIGITS,
    ODD_P2Q,
    ODD_PQ,
    ODD_PRIME_POWER,
    OTHER_ODD,
    PSI_13,
    Modulus,
    ModulusFamily,
    TruncatedPolyRing,
    ZnRing,
    classify,
    euler_phi,
    factorize,
    is_prime,
    primes_up_to,
    z_prime_power,
)
from ringsombor import rings
from ringsombor.rings import _passes_miller_rabin, _prime_part_divisor, _split_cofactor


FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_k, the least odd composite that is a strong probable prime to each of
# the first k prime bases (OEIS A014233; Sorenson and Webster, 2017)
PSI = {
    1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751, 5: 2152302898747,
    6: 3474749660383, 7: 341550071728321, 8: 341550071728321,
    9: 3825123056546413051, 10: 3825123056546413051, 11: 3825123056546413051,
    12: 318665857834031151167461, 13: 3317044064679887385961981,
}


def strong_probable_prime(m, bases=FIRST_13_PRIMES):
    # independent reference: the textbook strong test, every base tried;
    # with all 13 bases it is exact for odd m below psi_13
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def phi_by_counting(n):
    # independent oracle: literal gcd count
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def totient_table(limit):
    # independent oracle: sieve over smallest prime factors, no factorize()
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


class TestEulerPhi:
    def test_small_values(self):
        assert euler_phi(1) == 1
        assert euler_phi(7) == 6
        assert euler_phi(45) == 24
        assert phi_by_counting(45) == 24

    def test_matches_gcd_counting(self):
        for n in range(1, 501):
            assert euler_phi(n) == phi_by_counting(n)

    def test_matches_sieve_to_ten_thousand(self):
        table = totient_table(10_000)
        for n in range(2, 10_001):
            assert euler_phi(n) == table[n]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            euler_phi(0)


class TestFactorize:
    def test_examples(self):
        assert factorize(2).factors == ((2, 1),)
        assert factorize(45).factors == ((3, 2), (5, 1))
        assert factorize(9999).factors == ((3, 2), (11, 1), (101, 1))

    def test_rejects_small(self):
        for n in (-3, 0, 1):
            with pytest.raises(ValueError):
                factorize(n)

    def test_remultiply_range(self):
        for n in range(2, 2000):
            m = factorize(n)
            prod = 1
            for p, e in m.factors:
                assert is_prime(p)
                prod *= p**e
            assert prod == n

    @given(st.integers(min_value=2, max_value=10**6))
    @settings(max_examples=300)
    def test_remultiply_sampled(self, n):
        prod = 1
        last = 1
        for p, e in factorize(n).factors:
            assert p > last and e >= 1
            last = p
            prod *= p**e
        assert prod == n

    def test_mersenne_61_is_prime_and_fast(self):
        start = time.perf_counter()
        assert factorize(2**61 - 1).factors == ((2**61 - 1, 1),)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("p, q", [
        (998244353, 1000000007),  # near 10^9
        (999999999989, 1000000000039),  # near 10^12
    ])
    def test_two_large_primes_round_trip(self, p, q):
        assert is_prime(p) and is_prime(q)
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    def test_repeated_large_primes_round_trip(self):
        p, q = 998244353, 1000000007
        assert factorize(p**2 * q).factors == ((p, 2), (q, 1))
        assert factorize(p**3 * q**2 * 3**5).factors == ((3, 5), (p, 3), (q, 2))


# the largest FACTOR_BITS-bit number with no prime factor below 1000, as a
# cofactor of rings._trial_divide has
TOP_COFACTOR = next(m for m in range((1 << FACTOR_BITS) - 1, 0, -2)
                    if math.gcd(m, rings._TRIAL_PRODUCT) == 1)


@pytest.fixture
def primality_calls(monkeypatch):
    """Record each number given to Miller-Rabin, which declares it prime,
    and make rho raise; is_prime's cache is cleared before and after, so
    no cached answer hides a call and no fake one outlives the test."""
    calls = []

    def rho(m):
        raise AssertionError(f"rho reached on {m}")

    monkeypatch.setattr(rings, "_passes_miller_rabin", lambda m: calls.append(m) or True)
    monkeypatch.setattr(rings, "_rho_divisor", rho)
    is_prime.cache_clear()
    yield calls
    is_prime.cache_clear()


class TestFactorBound:
    def test_cofactor_above_the_bound_refused(self, primality_calls):
        assert FACTOR_BITS == 320
        r = (1 << FACTOR_BITS) + 1
        with pytest.raises(ValueError, match=f"a {FACTOR_BITS + 1}-bit cofactor"):
            _split_cofactor(r, {}, _prime_part_divisor)
        assert primality_calls == []

    def test_cofactor_at_the_bound_tested(self, primality_calls):
        r = TOP_COFACTOR
        assert r.bit_length() == FACTOR_BITS
        assert _split_cofactor(r, {}, _prime_part_divisor) == {r: 1}
        assert primality_calls == [r]

    def test_square_above_the_bound_read_by_its_root(self, primality_calls):
        root = TOP_COFACTOR
        assert _split_cofactor(root * root, {}, _prime_part_divisor) == {root: 2}
        assert primality_calls == [root]


class Exponent(int):
    """An exponent that fails the test if any power is raised to it."""

    def __rpow__(self, base, mod=None):
        raise AssertionError(f"{base} ** {int(self)} computed")


class TestOrderBound:
    # 3^9012 has 4300 digits and 3^9013 has 4301; 3^9013's order passes the
    # bit-length test and is refused by its value
    def test_largest_order_accepted(self):
        assert len(str(TruncatedPolyRing(3, 9012).order)) == MAX_ORDER_DIGITS
        assert len(str(z_prime_power(3, 9012).order)) == MAX_ORDER_DIGITS

    @pytest.mark.parametrize("make", [TruncatedPolyRing, z_prime_power])
    def test_order_one_digit_longer_refused(self, make):
        with pytest.raises(ValueError, match="a ring order has at most 4300 digits; "
                                             "this one has about 4301"):
            make(3, 9013)

    def test_zn_above_the_bound_refused(self, monkeypatch):
        calls = []
        monkeypatch.setattr(rings, "factorize", calls.append)
        with pytest.raises(ValueError, match="about 4301"):
            ZnRing(10**MAX_ORDER_DIGITS)
        assert calls == []

    @pytest.mark.parametrize("make", [TruncatedPolyRing, z_prime_power])
    def test_huge_exponent_refused_before_the_power(self, make):
        with pytest.raises(ValueError, match="this one has about 477121255$"):
            make(3, Exponent(10**9))


class TestModulus:
    def test_rejects_n_below_two(self):
        for n in (1, 0, -4):
            with pytest.raises(ValueError, match="modulus must be >= 2"):
                Modulus(n, ())

    @pytest.mark.parametrize("n,factors", [
        (12, ((2, 1), (3, 1))),
        (9, ((3, 1), (3, 1))),
        (15, ((5, 1), (3, 1))),
        (2, ((2, 1), (3, 0))),
    ], ids=["short-product", "repeated-prime", "descending", "zero-exponent"])
    def test_rejects_a_bad_factorization(self, n, factors):
        with pytest.raises(ValueError):
            Modulus(n, factors)

    def test_fields_are_read_only(self):
        mod = factorize(45)
        with pytest.raises(AttributeError):
            mod.n = 46
        with pytest.raises(AttributeError):
            classify(45).kind = EVEN

    def test_repr_and_asdict(self):
        assert repr(factorize(45)) == "Modulus(n=45, factors=((3, 2), (5, 1)))"
        assert factorize(45)._asdict() == {"n": 45, "factors": ((3, 2), (5, 1))}
        assert repr(classify(45)) == "ModulusFamily(kind='p2q', p=3, q=5, alpha=0)"
        assert ModulusFamily(EVEN) == ModulusFamily(EVEN, 0, 0, 0)


class TestCaches:
    @pytest.mark.parametrize("fn", [is_prime, factorize, euler_phi, radical_normalize],
                             ids=lambda fn: fn.__name__)
    def test_bounded(self, fn):
        fn.cache_clear()
        try:
            for m in range(2, CACHE_SIZE + 100):
                fn(m)
            info = fn.cache_info()
            assert info.maxsize == CACHE_SIZE
            assert info.currsize == CACHE_SIZE
            assert fn(CACHE_SIZE + 99) == fn.__wrapped__(CACHE_SIZE + 99)
        finally:
            for cached in (is_prime, factorize, euler_phi, radical_normalize):
                cached.cache_clear()


class TestClassify:
    def test_even(self):
        assert classify(8).kind == EVEN
        assert classify(2).kind == EVEN
        assert classify(6).kind == EVEN  # even wins over pq shape

    def test_odd_prime_power(self):
        fam = classify(9)
        assert (fam.kind, fam.p, fam.alpha) == (ODD_PRIME_POWER, 3, 2)
        fam = classify(3)
        assert (fam.kind, fam.p, fam.alpha) == (ODD_PRIME_POWER, 3, 1)

    def test_pq(self):
        fam = classify(15)
        assert (fam.kind, fam.p, fam.q) == (ODD_PQ, 3, 5)
        assert fam.in_hypothesis

    def test_p2q_in_hypothesis(self):
        fam = classify(45)
        assert (fam.kind, fam.p, fam.q) == (ODD_P2Q, 3, 5)
        assert fam.in_hypothesis

    def test_p2q_out_of_hypothesis(self):
        fam = classify(75)  # 75 = 5^2 * 3, squared prime above the other
        assert (fam.kind, fam.p, fam.q) == (ODD_P2Q, 5, 3)
        assert not fam.in_hypothesis

    def test_other_odd(self):
        assert classify(105).kind == OTHER_ODD  # 3*5*7
        assert classify(225).kind == OTHER_ODD  # 3^2*5^2
        assert classify(135).kind == OTHER_ODD  # 3^3*5

    def test_total_and_deterministic(self):
        for n in range(2, 600):
            fam = classify(n)
            assert fam.kind in (EVEN, ODD_PRIME_POWER, ODD_PQ, ODD_P2Q, OTHER_ODD)
            assert fam == classify(n)


def assert_ring_matches_witness(ring, witness):
    # the ring facts that src reads besides the unit mask, against the
    # witness's tables: 1+1 is read off the addition table, local means the
    # non-units are closed under addition, and each vertex class of the
    # witness's pair-loop graphs has its predicted degree.  The local
    # factors multiply out to the order; a local witness's non-units are its
    # maximal ideal, so they give s and order // s gives q
    assert ring.order == witness.order
    assert math.prod(q * s for q, s in ring.local_factors) == witness.order
    if witness.is_local:
        nonunits = witness.order - witness.unit_count
        assert ring.local_factors == ((witness.order // nonunits, nonunits),)
    assert ring.unit_count == witness.unit_count
    assert ring.two_is_unit == witness.two_is_unit
    assert ring.is_local == witness.is_local
    for kind in (TOTAL, UNIT):
        d_zero, d_unit = predicted_degrees(ring, kind)
        degrees = witness.graph(kind == UNIT).degrees
        assert all(d == (d_unit if witness.units[v] else d_zero) for v, d in enumerate(degrees))


class TestZnRing:
    def test_is_unit_examples(self):
        # 4 * 4 = 1 mod 15, while 5 * 3 = 0, so 5 has no inverse
        mask, witness = ZnRing(15).unit_mask(), definitional.zn(15)
        assert (mask >> 4) & 1 and witness.mul[4][4] == witness.one
        assert not (mask >> 5) & 1 and not witness.units[5]

    def test_is_unit_matches_inverse_search(self):
        for n in range(2, 201):
            assert ZnRing(n).unit_mask() == definitional.zn(n).unit_mask

    def test_unit_count(self):
        assert ZnRing(9).unit_count == 6
        assert ZnRing(2).unit_count == 1

    def test_unit_zero_divisor_partition(self):
        # every non-unit of the witness divides zero (0 included)
        for n in range(2, 120):
            w = definitional.zn(n)
            zero_divisors = [x for x in range(n) if any(
                w.mul[x][y] == w.zero for y in range(n) if y != w.zero)]
            assert ZnRing(n).unit_count + len(zero_divisors) == n
            assert not any(w.units[x] for x in zero_divisors)

    def test_matches_definition(self):
        for n in range(2, 201):
            assert_ring_matches_witness(ZnRing(n), definitional.zn(n))

    def test_unit_mask_agrees_with_is_unit(self):
        # bit x of the mask is set exactly when the witness finds an inverse
        # of x, and the mask's population is the ring's unit count
        for n in (2, 3, 12, 45, 97, 210):
            ring, witness = ZnRing(n), definitional.zn(n)
            mask = ring.unit_mask()
            for x in range(n):
                assert bool((mask >> x) & 1) == witness.units[x]
            assert mask >> n == 0
            assert bin(mask).count("1") == ring.unit_count

    def test_two_is_unit(self):
        assert not ZnRing(8).two_is_unit
        assert ZnRing(9).two_is_unit


class TestTruncatedPolyRing:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            TruncatedPolyRing(4, 2)
        with pytest.raises(ValueError):
            TruncatedPolyRing(3, 0)

    def test_lexicographic_index_order(self):
        # the witness numbers coefficient tuples in product order, constant
        # term first: unit masks and graphs agree only under that indexing
        ring, witness = TruncatedPolyRing(5, 3), definitional.truncated(definitional.zn(5), 3)
        assert ring.unit_mask() == witness.unit_mask
        assert row_source(ring, UNIT).rows_of(range(ring.order)) == witness.graph(True).rows

    def test_unit_iff_inverse_exists(self):
        for p, k in ((2, 2), (2, 3), (3, 2), (5, 1), (3, 3)):
            w = definitional.truncated(definitional.zn(p), k)
            assert TruncatedPolyRing(p, k).unit_mask() == w.unit_mask

    def test_one_plus_x_is_unit(self):
        # 1 + x is the tuple (1, 1), index 1*3 + 1 in F_3[x]/(x^2); 1 - x
        # (index 1*3 + 2) is its inverse
        w = definitional.truncated(definitional.zn(3), 2)
        assert w.mul[4][5] == w.one == 3
        assert (TruncatedPolyRing(3, 2).unit_mask() >> 4) & 1

    def test_unit_count(self):
        assert TruncatedPolyRing(3, 2).unit_count == 6
        assert TruncatedPolyRing(2, 3).unit_count == 4

    def test_nonunits_closed_under_addition(self):
        # F_2[x]/(x^9) is left out: its 512-element product table takes 2 s
        for p, k in ((2, 2), (2, 3), (3, 2), (3, 5), (5, 3), (7, 3)):
            assert definitional.truncated(definitional.zn(p), k).is_local
            assert TruncatedPolyRing(p, k).is_local

    @pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
    def test_matches_definition(self, p, k):
        witness = definitional.truncated(definitional.zn(p), k)
        assert_ring_matches_witness(TruncatedPolyRing(p, k), witness)

    def test_two_is_unit(self):
        assert not TruncatedPolyRing(2, 2).two_is_unit
        assert TruncatedPolyRing(3, 2).two_is_unit


class TestLocalFactors:
    def test_examples(self):
        assert ZnRing(8).local_factors == ((2, 4),)
        assert ZnRing(360).local_factors == ((2, 4), (3, 3), (5, 1))
        assert TruncatedPolyRing(3, 2).local_factors == ((3, 3),)

    def test_z_prime_power(self):
        assert z_prime_power(3, 2).n == 9
        with pytest.raises(ValueError):
            z_prime_power(6, 2)
        with pytest.raises(ValueError):
            z_prime_power(3, 0)


class TestPrimes:
    def test_primes_up_to(self):
        assert primes_up_to(1) == []
        assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_primes_up_to_against_a_plain_sieve(self):
        # a sieve over every integer, each prime crossing out its multiples
        top = 65537
        marked = bytearray(top + 1)
        reference = []
        for k in range(2, top + 1):
            if not marked[k]:
                reference.append(k)
                for m in range(k * k, top + 1, k):
                    marked[m] = 1
        for limit in [*range(3001), 65535, 65536, 65537]:
            assert primes_up_to(limit) == reference[:bisect.bisect_right(reference, limit)], limit

    def test_is_prime_against_sieve(self):
        table = set(primes_up_to(3000))
        rng = random.Random(7)
        for n in [rng.randrange(2, 3000) for _ in range(300)]:
            assert is_prime(n) == (n in table)

    def test_is_prime_against_sieve_past_trial_division(self):
        # every n in a window above 10^6, where Miller-Rabin decides
        table = set(primes_up_to(1_010_000))
        for n in range(990_000, 1_010_000):
            assert is_prime(n) == (n in table)

    @pytest.mark.parametrize("n", [
        3215031751,  # strong pseudoprime to the bases 2, 3, 5, 7
        3825123056546413051,  # ... to every base up to 23
        318665857834031151167461,  # ... to every base up to 37
    ])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not is_prime(n)

    def test_unproven_probable_prime_raises(self):
        # PSI_13 is composite but a strong probable prime to every base up
        # to 41; above it no answer is proven, so none is given
        assert PSI_13 == 3317044064679887385961981
        with pytest.raises(ValueError, match=str(PSI_13)):
            is_prime(PSI_13)
        with pytest.raises(ValueError, match=str(PSI_13)):
            factorize(PSI_13)

    def test_above_bound(self):
        # a witness base proves compositeness at any size; a prime above the
        # bound is not proven, so it raises like PSI_13
        assert not is_prime(2000000000003 * 2000000000123)
        with pytest.raises(ValueError, match=str(PSI_13)):
            is_prime(2**89 - 1)


class TestMillerRabinBases:
    # an m takes the first k prime bases for the least psi_k above it

    @pytest.mark.parametrize("k", range(2, 13))
    def test_each_psi_is_composite(self, k):
        # psi_k passes the first k bases, so only the bases chosen for its
        # size beyond those can show it composite
        psi = PSI[k]
        assert psi >= 10**6
        assert strong_probable_prime(psi, FIRST_13_PRIMES[:k])
        assert not _passes_miller_rabin(psi)
        assert not is_prime(psi)

    def test_psi_13_still_raises(self):
        assert PSI[13] == PSI_13
        with pytest.raises(ValueError, match=str(PSI_13)):
            _passes_miller_rabin(PSI_13)

    def test_primes_in_each_band_pass(self):
        # the first, the last and one random prime of each band between
        # consecutive distinct psi's above 10^6
        rng = random.Random(13)
        edges = sorted({10**6, *(psi for psi in PSI.values() if psi > 10**6)})
        for lo, hi in zip(edges, edges[1:]):
            starts = (lo + 1, rng.randrange(lo, hi))
            found = [next(m for m in range(s | 1, hi, 2) if strong_probable_prime(m))
                     for s in starts]
            found.append(next(m for m in range((hi - 2) | 1, lo, -2)
                              if strong_probable_prime(m)))
            for p in found:
                assert lo < p < hi
                assert _passes_miller_rabin(p), (lo, hi, p)
                assert is_prime(p)

    def test_size_chosen_bases_agree_with_all_13(self):
        # odd m from 10^6 to 10^24, every decade equally often
        rng = random.Random(2017)
        primes = 0
        for _ in range(2000):
            e = rng.randrange(6, 24)
            m = rng.randrange(10**e, 10 ** (e + 1)) | 1
            expected = strong_probable_prime(m)
            assert _passes_miller_rabin(m) == expected, m
            primes += expected
        assert primes > 50
