from fractions import Fraction

import pytest

import definitional as defn
from held import held_graph, sombor_bruteforce
from ringsombor import closed_forms as cf
from ringsombor import rings
from ringsombor.closed_forms import (
    CORRECTED,
    ERRATA,
    LOCAL,
    PGTQ,
    PRINTED,
    UNIQUE,
    NotInFamilyError,
    assemble_partition_sum,
    complement_identity_residual,
    ring_forms,
    so_complete,
    so_regular,
    so_total_even,
    so_total_local,
    so_total_prime_power,
    so_unit_even,
    so_unit_local,
    so_unit_prime_power,
    total_p2q_partition,
    total_pq_partition,
    unit_p2q_partition,
    unit_pq_partition,
)
from ringsombor.graphs import TOTAL, UNIT, degree_pair, edge_partition_of
from ringsombor.radicals import RadicalSum
from ringsombor.rings import (
    ODD_P2Q,
    ODD_PRIME_POWER,
    OTHER_ODD,
    TruncatedPolyRing,
    ZnRing,
    euler_phi,
    factorize,
    primes_up_to,
)
from ringsombor.sombor import degree_pair_counts, sombor_of


def rt2(x):
    return RadicalSum({2: Fraction(x)})


def oracle(ring, kind):
    g, _ = held_graph(ring, kind)
    return sombor_bruteforce(g)


def closed(ring, kind, variant=UNIQUE):
    """The value ring_forms gives the ring's graph in the named variant."""
    _, forms = ring_forms(ring, kind)
    return next(value for v, value, _ in forms if v == variant)


class TestTotalEven:
    def test_values(self):
        assert so_total_even(2) == RadicalSum()
        assert so_total_even(4) == rt2(2)
        assert so_total_even(8) == rt2(36)

    def test_oracle_agreement(self):
        for n in range(2, 60, 2):
            assert so_total_even(n) == oracle(ZnRing(n), TOTAL)

    def test_rejects_odd(self):
        with pytest.raises(NotInFamilyError):
            so_total_even(9)


class TestTotalPrimePower:
    def test_values(self):
        assert so_total_prime_power(3, 1) == RadicalSum.sqrt(2)
        assert so_total_prime_power(3, 2) == rt2(33)
        assert so_total_prime_power(5, 1) == rt2(2)

    def test_degenerate_primes_match_oracle(self):
        for p in primes_up_to(97):
            if p != 2:
                assert so_total_prime_power(p, 1) == oracle(ZnRing(p), TOTAL)

    def test_higher_powers_match_oracle(self):
        for p, a in ((3, 2), (3, 3), (5, 2), (7, 2), (3, 4)):
            assert so_total_prime_power(p, a) == oracle(ZnRing(p**a), TOTAL)

    def test_rejects_even_or_composite(self):
        with pytest.raises(NotInFamilyError):
            so_total_prime_power(2, 3)
        with pytest.raises(NotInFamilyError):
            so_total_prime_power(9, 1)
        with pytest.raises(NotInFamilyError):
            so_total_prime_power(3, 0)


class TestTotalPQ:
    def test_partition_3_5(self):
        part = total_pq_partition(3, 5)
        assert (part.alpha, part.beta, part.gamma) == (13, 16, 20)
        assert part.total == 49

    def test_partition_3_7(self):
        part = total_pq_partition(3, 7)
        assert (part.alpha, part.beta, part.total) == (24, 24, 90)
        assert part.gamma == 42

    def test_value_3_5(self):
        assert closed(ZnRing(15), TOTAL) == RadicalSum({2: 218, 85: 16})

    def test_oracle_agreement(self):
        for p, q in ((3, 5), (3, 7), (3, 11), (5, 7), (5, 11), (7, 11)):
            ring = ZnRing(p * q)
            g, units = held_graph(ring, TOTAL)
            assert total_pq_partition(p, q) == edge_partition_of(degree_pair_counts(g, units))
            assert closed(ring, TOTAL) == sombor_bruteforce(g)

    def test_requires_ordered_odd_primes(self):
        with pytest.raises(NotInFamilyError):
            total_pq_partition(5, 3)
        with pytest.raises(NotInFamilyError):
            total_pq_partition(3, 3)
        with pytest.raises(NotInFamilyError):
            total_pq_partition(2, 5)


class TestTotalP2Q:
    def test_partition_3_5(self):
        part = total_p2q_partition(3, 5)
        # oracle-confirmed on Z_45: the five clique/bipartite blocks give
        # 66 + 15 + 3 + 36 + 18 = 138 zero-zero edges
        assert (part.alpha, part.beta, part.gamma) == (138, 144, 180)
        assert part.total == 462

    def test_oracle_agreement(self):
        for p, q in ((3, 5), (3, 7), (5, 3), (3, 11)):
            ring = ZnRing(p * p * q)
            g, units = held_graph(ring, TOTAL)
            assert total_p2q_partition(p, q) == edge_partition_of(degree_pair_counts(g, units))
            assert closed(ring, TOTAL) == sombor_bruteforce(g)

    def test_admits_swapped_primes(self):
        part = total_p2q_partition(5, 3)  # 75, squared prime above the other
        assert part.total == 5 * 7 * 74 // 2

    def test_rejects_equal_or_even(self):
        with pytest.raises(NotInFamilyError):
            total_p2q_partition(3, 3)
        with pytest.raises(NotInFamilyError):
            total_p2q_partition(2, 5)


class TestUnitEven:
    def test_values(self):
        assert so_unit_even(2) == RadicalSum.sqrt(2)
        assert so_unit_even(4) == rt2(8)
        assert so_unit_even(8) == rt2(64)

    def test_oracle_agreement(self):
        for n in range(2, 60, 2):
            assert so_unit_even(n) == oracle(ZnRing(n), UNIT)

    def test_rejects_odd(self):
        with pytest.raises(NotInFamilyError):
            so_unit_even(15)


class TestUnitPrimePower:
    def test_corrected_values(self):
        assert so_unit_prime_power(5, 1) == RadicalSum({1: 20, 2: 12})
        assert so_unit_prime_power(3, 2) == RadicalSum({61: 18, 2: 30})

    def test_printed_value_z5(self):
        assert so_unit_prime_power(5, 1, PRINTED) == RadicalSum({1: 20, 2: Fraction(33, 2)})

    def test_variants_disagree_everywhere_sampled(self):
        for p, a in ((3, 1), (5, 1), (3, 2), (7, 1), (3, 3)):
            assert so_unit_prime_power(p, a, PRINTED) != so_unit_prime_power(p, a, CORRECTED)

    def test_corrected_matches_oracle(self):
        for p, a in ((3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (5, 2)):
            assert so_unit_prime_power(p, a) == oracle(ZnRing(p**a), UNIT)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            so_unit_prime_power(3, 1, "fixed")


class TestUnitPQ:
    def test_partition_3_5(self):
        part = unit_pq_partition(3, 5)
        assert (part.alpha, part.beta, part.gamma) == (8, 40, 8)
        assert part.total == 56

    def test_partition_3_7(self):
        part = unit_pq_partition(3, 7)
        assert (part.alpha, part.beta, part.gamma) == (12, 84, 24)
        assert part.total == 120

    def test_value_3_5(self):
        assert closed(ZnRing(15), UNIT) == RadicalSum({2: 120, 113: 40})

    def test_oracle_agreement(self):
        for p, q in ((3, 5), (3, 7), (5, 7), (3, 11)):
            ring = ZnRing(p * q)
            g, units = held_graph(ring, UNIT)
            assert unit_pq_partition(p, q) == edge_partition_of(degree_pair_counts(g, units))
            assert closed(ring, UNIT) == sombor_bruteforce(g)

    def test_factors_nothing(self, monkeypatch):
        # phi(pq) = (p-1)(q-1) is read off the primes given: rho cannot split
        # the product of the first primes above 2^61 and 2^62 in its budget
        def no_rho(x):
            raise AssertionError("unit_pq_partition factored p*q")

        monkeypatch.setattr(rings, "_rho_divisor", no_rho)
        p, q = 2305843009213693967, 4611686018427388039
        assert unit_pq_partition(p, q).total == (p * q - 1) * (p - 1) * (q - 1) // 2


class TestUnitP2Q:
    def test_edge_counts_3_5(self):
        assert unit_p2q_partition(3, 5, CORRECTED).total == 528
        assert unit_p2q_partition(3, 5, PRINTED).total == 1584

    def test_alpha_beta_shared(self):
        printed = unit_p2q_partition(3, 5, PRINTED)
        corrected = unit_p2q_partition(3, 5, CORRECTED)
        assert (printed.alpha, printed.beta) == (corrected.alpha, corrected.beta) == (72, 360)

    def test_corrected_matches_oracle(self):
        for p, q in ((3, 5), (3, 7), (5, 3)):
            ring = ZnRing(p * p * q)
            g, units = held_graph(ring, UNIT)
            assert unit_p2q_partition(p, q) == edge_partition_of(degree_pair_counts(g, units))
            assert closed(ring, UNIT, CORRECTED) == sombor_bruteforce(g)

    def test_printed_disagrees_at_3_5(self):
        assert closed(ZnRing(45), UNIT, PRINTED) != closed(ZnRing(45), UNIT, CORRECTED)


ODD_PRIMES = [3, 5, 7, 11, 13]


class TestErrataAsPolynomials:
    # the first two printed statements of ERRATA against the corrected
    # forms, as exact polynomials in the ring's parameters on a grid

    @pytest.mark.parametrize("alpha", range(1, 6))
    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_prime_power_unit_bracket(self, p, alpha):
        # printed minus corrected is (n - phi)(phi - 1)^2 / sqrt(2), never 0
        n = p ** alpha
        phi = euler_phi(n)
        gap = so_unit_prime_power(p, alpha, PRINTED) - so_unit_prime_power(p, alpha, CORRECTED)
        assert gap == rt2(Fraction((n - phi) * (phi - 1) ** 2, 2))
        assert not gap.is_zero

    @pytest.mark.parametrize("p, q", [(p, q) for p in ODD_PRIMES for q in ODD_PRIMES if p != q])
    def test_p2q_unit_edge_count(self, p, q):
        # the printed partition keeps the corrected alpha and beta, and its
        # edge count is p times the handshake count phi(n)(n - 1)/2
        n = p * p * q
        printed = unit_p2q_partition(p, q, PRINTED)
        corrected = unit_p2q_partition(p, q, CORRECTED)
        assert (printed.alpha, printed.beta) == (corrected.alpha, corrected.beta)
        assert corrected.total == euler_phi(n) * (n - 1) // 2
        assert printed.total == p * corrected.total


# GF(p^k) as Z_p[x] over an irreducible x^k + ... + monic[0]
F4, F8, F9 = defn.field(2, (1, 1)), defn.field(2, (1, 1, 0)), defn.field(3, (1, 0))
LOCAL_WITNESSES = [
    F4, F8, F9, defn.field(2, (1, 1, 0, 0)),
    defn.truncated(F4, 2), defn.truncated(F8, 2), defn.truncated(F4, 3), defn.truncated(F9, 2),
    defn.truncated(defn.zn(4), 2), defn.square_zero(defn.zn(2)),
]


class TestLocalForms:
    def test_total_values(self):
        assert so_total_local(2, 4) == rt2(36)
        assert so_total_local(3, 3) == rt2(33)
        assert so_total_local(2, 2) == rt2(2)

    def test_total_oracle_agreement(self):
        for ring in (ZnRing(8), ZnRing(9), ZnRing(27), TruncatedPolyRing(2, 2),
                     TruncatedPolyRing(3, 2), TruncatedPolyRing(5, 2)):
            [(q, s)] = ring.local_factors
            assert so_total_local(q, s) == oracle(ring, TOTAL)

    def test_unit_values(self):
        assert so_unit_local(2, 4) == rt2(64)
        assert so_unit_local(3, 3) == RadicalSum({61: 18, 2: 30})
        assert so_unit_local(3, 3, PRINTED) == RadicalSum({5: 54})

    @pytest.mark.parametrize("alpha", range(1, 6))
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    @pytest.mark.parametrize("kind", [TOTAL, UNIT])
    def test_prime_power_forms_are_the_local_forms(self, kind, p, alpha):
        # Z_{p^alpha} is local with residue field F_p and an ideal of
        # p^(alpha-1) elements; only its printed unit bracket is its own, and
        # it names a statement distinct from the corrected and the local
        # printed forms, so ERRATA keeps two printed statements apart
        s = p ** (alpha - 1)
        if kind == TOTAL:
            assert so_total_prime_power(p, alpha) == so_total_local(p, s)
            return
        assert so_unit_prime_power(p, alpha) == so_unit_local(p, s)
        printed = so_unit_prime_power(p, alpha, PRINTED)
        assert printed != so_unit_local(p, s, CORRECTED)
        assert printed != so_unit_local(p, s, PRINTED)

    @pytest.mark.parametrize("alpha", range(1, 6))
    @pytest.mark.parametrize("p", ODD_PRIMES)
    def test_prime_power_forms_check_their_inputs_once(self, monkeypatch, p, alpha):
        # the Z_{p^alpha} forms check (p, alpha) themselves and evaluate the
        # local bodies with no second check of (p, p^(alpha-1))
        s = p ** (alpha - 1)
        expected = [so_total_local(p, s), so_unit_local(p, s),
                    so_unit_prime_power(p, alpha, PRINTED)]

        def refuse(q, s):
            raise AssertionError("a Z_{p^alpha} form reached _check_local_factor")

        monkeypatch.setattr(cf, "_check_local_factor", refuse)
        assert [so_total_prime_power(p, alpha), so_unit_prime_power(p, alpha, CORRECTED),
                so_unit_prime_power(p, alpha, PRINTED)] == expected

    def test_unit_oracle_agreement(self):
        for ring in (ZnRing(8), ZnRing(9), ZnRing(25), TruncatedPolyRing(2, 3),
                     TruncatedPolyRing(3, 2), TruncatedPolyRing(7, 1)):
            [(q, s)] = ring.local_factors
            assert so_unit_local(q, s) == oracle(ring, UNIT)

    @pytest.mark.parametrize("kind", [TOTAL, UNIT])
    @pytest.mark.parametrize("ring", LOCAL_WITNESSES, ids=lambda ring: ring.name)
    def test_definitional_local_rings(self, ring, kind):
        # over the even residue fields F_4, F_8 and F_16, 2 is not a unit and
        # yet the unit and non-unit counts differ, so a form that swaps them
        # shows; F_2[x,y]/(x,y)^2 is local with ideals that are not a chain.
        # The non-units are the maximal ideal: s of them, and q = order // s
        assert ring.is_local
        s = ring.order - ring.unit_count
        table = degree_pair_counts(ring.graph(kind == UNIT), ring.unit_mask)
        form = so_total_local if kind == TOTAL else so_unit_local
        assert form(ring.order // s, s) == sombor_of(table)

    def test_printed_coincides_at_z3(self):
        # the one place the printed two-is-unit case happens to agree
        assert so_unit_local(3, 1, PRINTED) == so_unit_local(3, 1, CORRECTED)

    def test_rejects_impossible_factors(self):
        # q must be a prime power >= 2 and s a power of q, s >= 1
        for q, s in ((6, 1), (1, 1), (25, 5), (4, 2), (3, 0)):
            with pytest.raises(NotInFamilyError):
                so_total_local(q, s)
            with pytest.raises(NotInFamilyError):
                so_unit_local(q, s)


class TestRegularAndIdentity:
    def test_complete(self):
        assert so_complete(4) == rt2(18)
        assert so_complete(1) == RadicalSum()

    def test_regular(self):
        assert so_regular(5, 2) == rt2(10)
        assert so_regular(7, 0) == RadicalSum()
        with pytest.raises(ValueError):
            so_regular(5, 5)

    def test_residual_examples(self):
        assert complement_identity_residual(5, 2).is_zero
        assert complement_identity_residual(6, 3).is_zero
        assert complement_identity_residual(4, 3).is_zero
        assert complement_identity_residual(10, 0).is_zero

    def test_residual_rejects_infeasible(self):
        with pytest.raises(ValueError):
            complement_identity_residual(5, 3)  # odd total degree


class TestAssemblyPattern:
    def test_pq_never_hand_expanded(self):
        p, q = 5, 7
        n = p * q
        part = total_pq_partition(p, q)
        d_zero, d_unit = degree_pair(TOTAL, n, euler_phi(n), True)
        _, [(_, value, closed_part)] = ring_forms(ZnRing(n), TOTAL)
        assert closed_part == part
        assert value == assemble_partition_sum(part, d_zero, d_unit)

    def test_unit_p2q_variant_flows_through_pattern(self):
        p, q = 3, 7
        n = p * p * q
        d_zero, d_unit = degree_pair(UNIT, n, euler_phi(n), True)
        forms = list(ring_forms(ZnRing(n), UNIT)[1])
        assert [v for v, _, _ in forms] == [CORRECTED, PRINTED]
        for variant, value, closed_part in forms:
            part = unit_p2q_partition(p, q, variant)
            assert closed_part == part
            assert value == assemble_partition_sum(part, d_zero, d_unit)

    def test_partition_consistency_small_sweep(self):
        for p, q in ((3, 5), (3, 7), (5, 7), (3, 11), (5, 11), (7, 11), (3, 13)):
            if p * p * q <= 10**5:
                for fn in (total_p2q_partition, unit_p2q_partition):
                    part = fn(p, q)
                    assert part.alpha >= 0 and part.beta >= 0 and part.gamma >= 0
                    assert part.alpha + part.beta + part.gamma == part.total
            part = total_pq_partition(p, q)
            assert part.alpha + part.beta + part.gamma == part.total


class TestRingForms:
    @pytest.mark.parametrize("n, kind, name, variants", [
        (15, TOTAL, "total_pq_partition", 1),
        (15, UNIT, "unit_pq_partition", 1),
        (45, TOTAL, "total_p2q_partition", 1),
        (45, UNIT, "unit_p2q_partition", 2),
        (75, UNIT, "unit_p2q_partition", 2),
    ])
    def test_partition_made_once_per_variant(self, monkeypatch, n, kind, name, variants):
        calls = []
        real = getattr(cf, name)
        monkeypatch.setattr(cf, name, lambda *args: calls.append(args) or real(*args))
        forms = list(ring_forms(ZnRing(n), kind)[1])
        assert len(forms) == len(calls) == variants
        assert [part for _, _, part in forms] == [real(*args) for args in calls]

    @pytest.mark.parametrize("pair", [(CORRECTED,), (PRINTED,), (PRINTED, CORRECTED)])
    def test_pair_names_the_variants_each_evaluated_as_read(self, monkeypatch, pair):
        # Z_45's unit graph has a corrected/printed pair: pair picks and
        # orders its variants, and ring_forms evaluates those and no other
        calls = []
        real = cf.unit_p2q_partition
        monkeypatch.setattr(cf, "unit_p2q_partition",
                            lambda *args: calls.append(args[-1]) or real(*args))
        _, forms = ring_forms(ZnRing(45), UNIT, pair=pair)
        assert [v for v, _, _ in forms] == list(pair) == calls

    def test_pair_rule(self):
        # a corrected/printed pair for the unit graph of an odd prime power,
        # of a p^2*q modulus and of a local ring over an odd residue field;
        # one unique form for every other case in a family
        assert set(ERRATA) == {ODD_PRIME_POWER, ODD_P2Q, LOCAL}
        cases = [(ZnRing(n), False) for n in range(2, 3001)]
        for mod in map(factorize, range(2, 3001)):
            if mod.is_prime_power:
                cases += [(ZnRing(mod.n), True), (TruncatedPolyRing(*mod.factors[0]), True)]
        for ring, use_local in cases:
            for kind in (TOTAL, UNIT):
                tag, forms = ring_forms(ring, kind, use_local)
                family = tag.removesuffix(PGTQ)
                odd_field = ring.local_factors[0][0] % 2
                if family == OTHER_ODD:
                    expected = []
                elif kind == UNIT and (family in (ODD_PRIME_POWER, ODD_P2Q)
                                       or family == LOCAL and odd_field):
                    expected = [CORRECTED, PRINTED]
                else:
                    expected = [UNIQUE]
                assert [v for v, _, _ in forms] == expected, (ring.name, kind)


class TestIntegerCoefficients:
    # every closed form is a sum of count * sqrt(d1^2 + d2^2) with counts in
    # (1/2)Z, so its coefficients are ints or halves of odd ints
    def test_closed_forms_lie_in_half_integers(self):
        values = [so_total_even(12), so_unit_even(30), so_total_prime_power(3, 3),
                  closed(ZnRing(35), TOTAL), closed(ZnRing(63), TOTAL),
                  closed(ZnRing(33), UNIT), closed(ZnRing(75), UNIT, CORRECTED),
                  so_total_local(5, 5),
                  so_unit_local(2, 8), so_regular(7, 3)]
        values += [so_unit_prime_power(7, 2, v) for v in (PRINTED, CORRECTED)]
        halves = 0
        for v in values:
            for _, c in v.terms():
                assert type(c) is int or (type(c) is Fraction and c.denominator == 2)
                halves += type(c) is Fraction
        assert halves > 0

    def test_oracle_value_has_int_coefficients(self):
        for ring in (ZnRing(45), TruncatedPolyRing(3, 3)):
            for kind in (TOTAL, UNIT):
                v = oracle(ring, kind)
                assert v.terms() and all(type(c) is int for _, c in v.terms())
