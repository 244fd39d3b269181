"""Constant-time Sombor values for each covered ring-graph family, and
ring_forms, the dispatch that gives a ring every form that applies to it.

Each function evaluates a published closed form exactly, as a RadicalSum.
Three of the printed statements disagree with brute force (ERRATA); those
carry a printed/corrected variant pair, and the corrected side is always
rebuilt from the degree rules plus an edge partition, never free-invented.
Inputs outside a family are rejected rather than computed.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from .graphs import UNIT, EdgePartition, predicted_degrees
from .radicals import RadicalSum, rational_sqrt
from .rings import (
    EVEN,
    ODD_P2Q,
    ODD_PQ,
    ODD_PRIME_POWER,
    TruncatedPolyRing,
    classify,
    euler_phi,
    factorize,
    is_prime,
)

PRINTED = "printed"
CORRECTED = "corrected"
UNIQUE = "unique"
VARIANTS = (PRINTED, CORRECTED)


class NotInFamilyError(ValueError):
    """Input outside the family a closed form is stated for."""


def _check_variant(variant: str):
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def _odd_prime(p: int, label: str):
    if not is_prime(p) or p == 2:
        raise NotInFamilyError(f"{label} must be an odd prime, got {p}")


def _distinct_odd_primes(p: int, q: int, ordered: bool):
    _odd_prime(p, "p")
    _odd_prime(q, "q")
    if p == q:
        raise NotInFamilyError(f"primes must be distinct, got p = q = {p}")
    if ordered and p > q:
        raise NotInFamilyError(f"need p < q, got p={p}, q={q}")


def _over_sqrt2(x) -> RadicalSum:
    """x / sqrt(2) in canonical form, (x/2)*sqrt(2), for an integer x."""
    half, odd = divmod(x, 2)
    return RadicalSum({2: Fraction(x, 2) if odd else half})


def sombor_edge_term(count: int, d1: int, d2: int) -> RadicalSum:
    """Contribution of `count` edges whose endpoints have degrees d1, d2.
    g = gcd(d1, d2) leaves the root whole, sqrt(d1^2 + d2^2) =
    g*sqrt(a^2 + b^2), so equal degrees normalize only the radicand 2."""
    g = math.gcd(d1, d2) or 1
    a, b = d1 // g, d2 // g
    return RadicalSum.sqrt(a * a + b * b) * (count * g)


def assemble_partition_sum(part: EdgePartition, d_zero: int, d_unit: int) -> RadicalSum:
    """The shared three-term pattern: alpha edges at (d_zero, d_zero), beta
    at (d_zero, d_unit), gamma at (d_unit, d_unit).  Every partition-based
    closed form goes through here so the pattern is expanded once."""
    return (
        sombor_edge_term(part.alpha, d_zero, d_zero)
        + sombor_edge_term(part.beta, d_zero, d_unit)
        + sombor_edge_term(part.gamma, d_unit, d_unit)
    )


# ----------------------------------------------------------------------
# Total graph of Z_n


def so_total_even(n: int) -> RadicalSum:
    """n even: the total graph is (n - phi(n) - 1)-regular on n vertices."""
    if n < 2 or n % 2:
        raise NotInFamilyError(f"n must be even and >= 2, got {n}")
    d = n - euler_phi(n) - 1
    return _over_sqrt2(n * d * d)

def so_total_prime_power(p: int, alpha: int) -> RadicalSum:
    """n = p^alpha, p odd: zero-divisors form a clique, units attach to it."""
    _odd_prime(p, "p")
    if alpha < 1:
        raise NotInFamilyError(f"alpha must be >= 1, got {alpha}")
    n = p**alpha
    phi = n - n // p
    nz = n - phi
    return _over_sqrt2(phi * nz * nz) + _over_sqrt2((nz - 1) ** 2 * nz)


def total_pq_partition(p: int, q: int) -> EdgePartition:
    """Edge partition of the total graph of Z_pq, p < q odd primes."""
    _distinct_odd_primes(p, q, ordered=True)
    alpha = (p * (p - 1) + q * (q - 1)) // 2
    beta = 2 * (p - 1) * (q - 1)
    edges = (p * q - 1) * (p + q - 1) // 2
    return EdgePartition(alpha, beta, edges - alpha - beta)


def total_p2q_partition(p: int, q: int) -> EdgePartition:
    """Edge partition of the total graph of Z_{p^2 q}; p is the squared
    prime.  p > q is admitted (the formulas evaluate the same way), callers
    flag it as outside the usual p < q hypothesis."""
    _distinct_odd_primes(p, q, ordered=False)
    alpha = (
        p * (q - 1) * (p * (q - 1) - 1) // 2
        + p * (p - 1) * (p * (p - 1) - 1) // 2
        + p * (p - 1) // 2
        + p * p * (q - 1)
        + p * p * (p - 1)
    )
    beta = 2 * p * p * (p - 1) * (q - 1)
    edges = p * (p + q - 1) * (p * p * q - 1) // 2
    return EdgePartition(alpha, beta, edges - alpha - beta)


# ----------------------------------------------------------------------
# Unit graph of Z_n


def so_unit_even(n: int) -> RadicalSum:
    """n even: the unit graph is phi(n)-regular on n vertices."""
    if n < 2 or n % 2:
        raise NotInFamilyError(f"n must be even and >= 2, got {n}")
    phi = euler_phi(n)
    return _over_sqrt2(n * phi * phi)


def so_unit_prime_power(p: int, alpha: int, variant: str = CORRECTED) -> RadicalSum:
    """n = p^alpha, p odd.

    The printed statement's unit-unit bracket is phi*(phi-1) - (n-phi); the
    corrected bracket phi*(phi-1) - (n-phi)*phi is twice the unit-unit edge
    count implied by the degree rules, which is what brute force confirms.
    """
    _check_variant(variant)
    _odd_prime(p, "p")
    if alpha < 1:
        raise NotInFamilyError(f"alpha must be >= 1, got {alpha}")
    n = p**alpha
    phi = n - n // p
    nz = n - phi
    head = sombor_edge_term(phi * nz, phi, phi - 1)
    if variant == PRINTED:
        bracket = phi * (phi - 1) - nz
    else:
        bracket = phi * (phi - 1) - nz * phi
    return head + _over_sqrt2(bracket * (phi - 1))


def unit_pq_partition(p: int, q: int) -> EdgePartition:
    """Edge partition of the unit graph of Z_pq, p < q odd primes."""
    _distinct_odd_primes(p, q, ordered=True)
    alpha = (p - 1) * (q - 1)
    beta = (p - 1) * (q - 1) * (p + q - 3)
    edges = (p * q - 1) * euler_phi(p * q) // 2
    return EdgePartition(alpha, beta, edges - alpha - beta)


def unit_p2q_partition(p: int, q: int, variant: str = CORRECTED) -> EdgePartition:
    """Edge partition of the unit graph of Z_{p^2 q}; p is the squared prime.

    alpha and beta agree across variants.  The printed edge count keeps a
    spurious extra factor p; the corrected count phi(p^2 q)*(p^2 q - 1)/2 is
    forced by the handshake identity with degrees phi and phi-1.
    """
    _check_variant(variant)
    _distinct_odd_primes(p, q, ordered=False)
    alpha = p * p * (p - 1) * (q - 1)
    beta = alpha * (p + q - 3)
    if variant == PRINTED:
        edges = p * p * (p - 1) * (q - 1) * (p * p * q - 1) // 2
    else:
        edges = p * (p - 1) * (q - 1) * (p * p * q - 1) // 2
    return EdgePartition(alpha, beta, edges - alpha - beta)


# ----------------------------------------------------------------------
# Any finite local ring


def _check_local_factor(q: int, s: int):
    """Reject (q, s) unless q is a prime power and s a power of q: the
    residue field size and maximal ideal size of a finite local ring."""
    if q < 2 or s < 1:
        raise NotInFamilyError(f"need q >= 2 and s >= 1, got q={q}, s={s}")
    rest = s
    while rest % q == 0:
        rest //= q
    if rest != 1 or not factorize(q).is_prime_power:
        raise NotInFamilyError(f"need a prime power q and a power s of q, got q={q}, s={s}")


def so_total_local(q: int, s: int) -> RadicalSum:
    """Total graph of a finite local ring with residue field F_q and a
    maximal ideal of s elements: n = q*s elements, u = (q-1)*s units."""
    _check_local_factor(q, s)
    n, u, nz = q * s, (q - 1) * s, s
    if q % 2 == 0:
        return _over_sqrt2(n * (nz - 1) ** 2)
    return _over_sqrt2(nz * (nz - 1) ** 2) + _over_sqrt2(u * nz * nz)


def so_unit_local(q: int, s: int, variant: str = CORRECTED) -> RadicalSum:
    """Unit graph of a finite local ring with residue field F_q and a
    maximal ideal of s elements.

    The 2-not-a-unit case (q even) has a single agreed statement.  In the
    2-is-a-unit case the printed expression pairs degree u with n-u under
    the root; the corrected form uses degrees u and u-1 plus the unit-unit
    clique count, mirroring the prime-power correction.
    """
    _check_variant(variant)
    _check_local_factor(q, s)
    n, u, nz = q * s, (q - 1) * s, s
    if q % 2 == 0:
        return _over_sqrt2(n * u * u)
    if variant == PRINTED:
        return sombor_edge_term(u * nz, u, nz)
    head = sombor_edge_term(u * nz, u, u - 1)
    bracket = u * (u - 1) - nz * u
    return head + _over_sqrt2(bracket * (u - 1))


# ----------------------------------------------------------------------
# Regular graphs and the complement identity


def so_regular(n: int, k: int) -> RadicalSum:
    """Any k-regular graph on n vertices: n*k^2 / sqrt(2)."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"degree {k} out of range for {n} vertices")
    return _over_sqrt2(n * k * k)


def so_complete(n: int) -> RadicalSum:
    """The complete graph: the (n-1)-regular case."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    return so_regular(n, n - 1)


def complement_identity_residual(n: int, k: int) -> RadicalSum:
    """so_complete(n) minus the squared-sum expansion for a k-regular graph
    and its (n-k-1)-regular complement; exactly zero when the identity
    (sqrt(SO(G)) + sqrt(SO(complement)))^2 = SO(K_n) holds.

    Requires that a k-regular graph on n vertices exists (n*k even).
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got {n}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"degree {k} out of range for {n} vertices")
    if (n * k) % 2:
        raise ValueError(f"no {k}-regular graph on {n} vertices (odd degree sum)")
    so_g = so_regular(n, k)
    so_gc = so_regular(n, n - k - 1)
    cross = rational_sqrt((so_g * so_gc).as_rational()) * 2
    return so_complete(n) - so_g - so_gc - cross


# ----------------------------------------------------------------------
# Family dispatch and errata

# The family tag of a ring evaluated by the local-ring forms, and the tag
# suffix of a p^2*q modulus whose squared prime is the larger one, outside
# the theorems' p < q hypothesis.
LOCAL = "local"
PGTQ = "_pgtq"

FORMULA_UNIT_PPOW = "unit-graph odd-prime-power unit-unit bracket"
FORMULA_UNIT_P2Q_EDGES = "unit-graph p^2*q edge count"
FORMULA_UNIT_LOCAL = "unit-graph local-ring two-is-unit case"

# The printed statements that brute force refutes, by the family whose
# printed variant evaluates them: (formula label, printed expression).
ERRATA = {
    ODD_PRIME_POWER: (
        FORMULA_UNIT_PPOW,
        "phi*(n-phi)*sqrt(phi^2 + (phi-1)^2)"
        " + (phi*(phi-1) - (n-phi))*(phi-1)/sqrt(2)",
    ),
    ODD_P2Q: (FORMULA_UNIT_P2Q_EDGES, "|E| = p^2*(p-1)*(q-1)*(p^2*q - 1)/2"),
    LOCAL: (FORMULA_UNIT_LOCAL, "|U|*(n-|U|)*sqrt(|U|^2 + (n-|U|)^2)"),
}


def ring_forms(ring, kind: str, use_local_forms: bool = False) -> tuple[str, Iterator]:
    """The ring's family tag and an iterator over every closed form that
    applies to it, as (variant, value, edge partition or None) triples; none
    for a ring outside every family.  F_p[x]/(x^k), and any local ring under
    use_local_forms, takes the local-ring formulas; Z_n takes its modulus
    family's.  A corrected/printed pair, corrected first, comes exactly for
    the unit graph of a ring where 2 is a unit, in a family of ERRATA; every
    other case has one unique form.  The tag is found at the call, and each
    form is evaluated only when it is read, so a caller that reads one
    evaluates one.  A pq or p^2*q form is its edge partition, made once a
    variant, and its value is assembled from it with the predicted degrees."""
    unit = kind == UNIT
    if use_local_forms or isinstance(ring, TruncatedPolyRing):
        if not ring.is_local:
            raise NotInFamilyError(f"{ring.name} is not local")
        family = tag = LOCAL
        [args] = ring.local_factors
        form = so_unit_local if unit else so_total_local
    else:
        fam = classify(ring.order)
        family, args = fam.kind, (fam.p, fam.q)
        tag = family if fam.in_hypothesis else family + PGTQ
        if family == EVEN:
            form, args = (so_unit_even if unit else so_total_even), (ring.order,)
        elif family == ODD_PRIME_POWER:
            form, args = (so_unit_prime_power if unit else so_total_prime_power), (fam.p, fam.alpha)
        elif family == ODD_PQ:
            form = unit_pq_partition if unit else total_pq_partition
        elif family == ODD_P2Q:
            form = unit_p2q_partition if unit else total_p2q_partition
        else:
            return tag, iter(())
    if unit and ring.two_is_unit and family in ERRATA:
        outputs = ((v, form(*args, v)) for v in (CORRECTED, PRINTED))
    else:
        outputs = ((v, form(*args)) for v in (UNIQUE,))
    if family not in (ODD_PQ, ODD_P2Q):
        return tag, ((v, value, None) for v, value in outputs)
    degrees = predicted_degrees(ring, kind)
    return tag, ((v, assemble_partition_sum(part, *degrees), part) for v, part in outputs)
