"""Sombor index of total and unit graphs of finite commutative rings.

Exact brute-force evaluation (RadicalSum arithmetic), constant-time closed
forms per ring family, and a verification layer that plays the two against
each other and reports every discrepancy in the printed formulas.
"""

from .closed_forms import (
    CORRECTED,
    PRINTED,
    UNIQUE,
    NotInFamilyError,
    assemble_partition_sum,
    complement_identity_residual,
    so_complete,
    so_regular,
    so_total_even,
    so_total_local,
    so_total_prime_power,
    so_unit_even,
    so_unit_local,
    so_unit_prime_power,
    sombor_edge_term,
    total_p2q_partition,
    total_pq_partition,
    unit_p2q_partition,
    unit_pq_partition,
)
from .graphs import (
    TOTAL,
    UNIT,
    EdgePartition,
    Graph,
    degree_pair,
    edge_partition_of,
    predicted_degrees,
    write_edge_list,
)
from .radicals import RadicalSum, radical_normalize, rational_sqrt
from .rings import (
    EVEN,
    ODD_P2Q,
    ODD_PQ,
    ODD_PRIME_POWER,
    OTHER_ODD,
    FiniteRing,
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
from .sombor import degree_pair_counts, sombor_of
from .verify import (
    DEFAULT_CEILING,
    CaseResult,
    CeilingExceededError,
    EmptySweepError,
    ErrataEntry,
    IdentityCase,
    StructureResult,
    SweepResult,
    VariantResult,
    canonical_csv_body,
    canonical_json_body,
    check_structure,
    errata_report,
    identity_sweep,
    regular_circulant,
    structure_sweep,
    sweep,
    sweep_cases,
    verify_case,
)

__version__ = "0.1.0"
