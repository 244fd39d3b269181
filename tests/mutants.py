"""Mutation gate: every listed mutant of src/ringsombor must fail the suite.

    python tests/mutants.py

Each mutant is one exact-string replacement that must match exactly once in
its file under src/ringsombor, and names the tests that kill it.  The
unmutated suite runs first and must pass.  Then the mutants run concurrently,
on at most os.cpu_count() workers, and their verdicts print in list order.
Each mutant is applied to a fresh copy of src/ and tests/ in its own
temporary directory, where `pytest -x -q` runs its named tests first; if
they fail, the mutant is killed.  If they pass, the whole suite runs as
well, its test files in name order with the slow acceptance file last, so a
kill comes early.  A kill there flags the mutant's test list as stale, and
only a whole suite that passes makes the mutant a survivor, so naming tests
never weakens the gate.
Exits 0 when the baseline passes and every mutant is killed, else 1.

A mutant joins the list once a test kills it.  Equivalent mutants, which no
test can kill because they change no behaviour, stay out: flipping the
oracle's choice of the smaller unit side (`<= n` to `> n`) is one, since
the edges across the split are the same counted from either side.  So is
cutting a chunk's Z_n window to n + len - 1 bits instead of n + len, since
the chunk's last row reads at most bit n + len - 2 of it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ringsombor"

# name: (file in src/ringsombor, original, mutant, node ids of tests that kill
# it, relative to tests/)
MUTANTS = {
    "A so_total_local, 2 not a unit: degree nz-1 read as u-1": (
        "closed_forms.py",
        "so_regular(n, nz - 1)",
        "so_regular(n, u - 1)",
        ("test_closed_forms.py::TestLocalForms::test_definitional_local_rings[F_4-total]",),
    ),
    "B so_unit_local, 2 not a unit: degree u read as nz": (
        "closed_forms.py",
        "so_regular(n, u)",
        "so_regular(n, nz)",
        ("test_closed_forms.py::TestLocalForms::test_definitional_local_rings[F_4-unit]",),
    ),
    "C degree_pair: the total graph's degrees swapped": (
        "graphs.py",
        "return (d, d + 1) if two_is_unit else (d, d)",
        "return (d + 1, d) if two_is_unit else (d, d)",
        ("test_cli.py::TestCompute::test_both_modes_agree_z15",),
    ),
    "E VariantResult.match ignores partition_match": (
        "verify.py",
        "if self.partition_match is False:",
        "if False:",
        ("test_cli.py::TestVerdict::test_wrong_partition_with_the_right_value_fails",),
    ),
    "G FiniteRing.two_is_unit: 2 a unit when any residue field is odd": (
        "rings.py",
        "return all(q % 2 for q, _ in self.local_factors)",
        "return any(q % 2 for q, _ in self.local_factors)",
        ("test_rings.py::TestZnRing::test_matches_definition",),
    ),
    "I SweepFold.add counts failed variants as printed mismatches and errata": (
        "verify.py",
        "                failed += 1\n                continue\n",
        "                failed += 1\n",
        ("test_cli.py::TestVerdict::test_failure_is_counted_and_is_no_erratum",),
    ),
    "J local forms: an ideal size s = q^k * r let through": (
        "closed_forms.py",
        "if rest != 1 or not factorize(q).is_prime_power:",
        "if not factorize(q).is_prime_power:",
        ("test_closed_forms.py::TestLocalForms::test_rejects_impossible_factors",),
    ),
    "K degree_pair_counts, rule 1: the edges across added to a side's own": (
        "sombor.py",
        "- across) // 2",
        "+ across) // 2",
        ("test_cli.py::TestCompute::test_both_modes_agree_z15",),
    ),
    "L degree_pair_counts, first pass: the smaller side's neighbours on its own side": (
        "sombor.py",
        "sides[1 - few]",
        "sides[few]",
        ("test_cli.py::TestCompute::test_both_modes_agree_z15",),
    ),
    "N check_structure, partition test: the rows need not be disjoint": (
        "verify.py",
        "not t & u and t | u == lift ^ (1 << x)",
        "t | u == lift ^ (1 << x)",
        ("test_verify.py::TestStructureChunks::test_one_flipped_unit_bit_is_flagged[26-1]",),
    ),
    "O check_structure, partition: unit degree n - d, not n - 1 - d": (
        "verify.py",
        "[n - 1 - d for d in t_degrees]",
        "[n - d for d in t_degrees]",
        ("test_cli.py::TestStructureCommand::test_range_sweep",),
    ),
    "P check_structure, partition: the clique read off the total rows": (
        "verify.py",
        "compress(u_rows, zeros)",
        "compress(t_rows, zeros)",
        ("test_cli.py::TestStructureCommand::test_range_sweep",),
    ),
    "Q _ZnSumRows, windowed chunk: the window cut to n + len - 2 bits": (
        "graphs.py",
        "_full_mask(n + size)",
        "_full_mask(n + size - 2)",
        ("test_graphs.py::TestRowsAgainstDefinition::test_chunked_rows_match_definition[n29-1]",),
    ),
    "R _ZnSumRows: the self-bit flags read from the odd bits of D": (
        "graphs.py",
        "[::-2]",
        "[-2::-2]",
        ("test_graphs.py::TestRowsAgainstDefinition::test_chunked_rows_match_definition[n29-1]",),
    ),
    "S _PolySumRows: a block's own-block flag inverted": (
        "graphs.py",
        "bool((row >> (c * lead)) & 1)",
        "not (row >> (c * lead)) & 1",
        ("test_cli.py::TestCompute::test_json_format",),
    ),
    "T _passes_miller_rabin: psi_10 and psi_11 read as psi_12": (
        "rings.py",
        "3825123056546413051, 3825123056546413051, 3825123056546413051,",
        "3825123056546413051, 318665857834031151167461, 318665857834031151167461,",
        ("test_rings.py::TestPrimes::test_strong_pseudoprimes_are_composite[3825123056546413051]",),
    ),
    "V radical_normalize: a square cofactor's root put into s": (
        "radicals.py",
        "c *= root",
        "s *= root",
        ("test_radicals.py::TestSquarePart::test_square_cofactor_is_not_factored[1-1-1-1009-1013]",),
    ),
    "W FiniteRing.unit_count: every element of a local factor counted a unit": (
        "rings.py",
        "(q - 1) * s for q, s in self.local_factors",
        "q * s for q, s in self.local_factors",
        ("test_rings.py::TestZnRing::test_matches_definition",),
    ),
    "X total_pq_partition: alpha with p + 1 for p - 1": (
        "closed_forms.py",
        "alpha = (p * (p - 1) + q * (q - 1)) // 2",
        "alpha = (p * (p + 1) + q * (q - 1)) // 2",
        ("test_closed_forms.py::TestTotalPQ::test_partition_3_5",),
    ),
    "Y classify: a p^2 q modulus with p > q left out of its family": (
        "rings.py",
        "if sorted((e1, e2)) == [1, 2]:",
        "if (e1, e2) == (2, 1):",
        ("test_rings.py::TestClassify::test_p2q_out_of_hypothesis",),
    ),
    "Z ZnRing.unit_mask: 0 not marked a zero-divisor": (
        "rings.py",
        "marks[0::p]",
        "marks[p::p]",
        ("test_rings.py::TestZnRing::test_is_unit_matches_inverse_search",),
    ),
    "AA Modulus: n = 1 let through": (
        "rings.py",
        "if n < 2:\n            raise ValueError(f\"modulus must be >= 2",
        "if n < 1:\n            raise ValueError(f\"modulus must be >= 2",
        ("test_rings.py::TestModulus::test_rejects_n_below_two",),
    ),
    "AB Modulus: a repeated prime let through": (
        "rings.py",
        "if p <= last or e < 1:",
        "if p < last or e < 1:",
        ("test_rings.py::TestModulus::test_rejects_a_bad_factorization[repeated-prime]",),
    ),
    "AC Modulus: an exponent of 0 let through": (
        "rings.py",
        "if p <= last or e < 1:",
        "if p <= last or e < 0:",
        ("test_rings.py::TestModulus::test_rejects_a_bad_factorization[zero-exponent]",),
    ),
    "AD Modulus: a product short of n let through": (
        "rings.py",
        "if prod != n:",
        "if prod > n:",
        ("test_rings.py::TestModulus::test_rejects_a_bad_factorization[short-product]",),
    ),
    "AE EdgePartition: a count of -1 let through": (
        "graphs.py",
        "if min(alpha, beta, gamma) < 0:",
        "if min(alpha, beta, gamma) < -1:",
        ("test_graphs.py::TestEdgePartition::test_rejects_negative",),
    ),
    "AF write_edge_list: the header counts edge ends, not edges": (
        "graphs.py",
        "{degree_sum // 2}",
        "{degree_sum}",
        ("test_graphs.py::TestEdgeListWriter::test_streamed_dump_matches_definition[n29-1]",),
    ),
    "AG _neighbours_above: a row read from its own bit, not the next": (
        "graphs.py",
        "rest = row >> (u + 1)",
        "rest = row >> u",
        ("test_cli.py::TestCompute::test_dump_graph",),
    ),
    "AH _bounded_order: a huge exponent's power computed before the bound": (
        "rings.py",
        "if (p.bit_length() - 1) * e < _MAX_ORDER.bit_length() and (order := p**e)",
        "if (order := p**e)",
        ("test_rings.py::TestOrderBound::test_huge_exponent_refused_before_the_power[z_prime_power]",),
    ),
    "AI _bounded_order: an order of 4301 digits let through": (
        "rings.py",
        "(order := p**e) <= _MAX_ORDER",
        "(order := p**e) <= 10 * _MAX_ORDER",
        ("test_rings.py::TestOrderBound::test_order_one_digit_longer_refused[TruncatedPolyRing]",),
    ),
    "AJ _split_cofactor: a part one bit above FACTOR_BITS tested and split": (
        "rings.py",
        "if x.bit_length() > FACTOR_BITS:",
        "if x.bit_length() > FACTOR_BITS + 1:",
        ("test_rings.py::TestFactorBound::test_cofactor_above_the_bound_refused",
         "test_radicals.py::TestSquareFreeParts::"
         "test_cofactor_above_the_bits_bound_refused_before_any_test"),
    ),
    "AK ring_forms: a pair whether or not 2 is a unit": (
        "closed_forms.py",
        "pairs = unit and ring.two_is_unit and family in ERRATA",
        "pairs = unit and family in ERRATA",
        ("test_closed_forms.py::TestRingForms::test_pair_rule",),
    ),
    "AL ERRATA: the p^2*q edge count left out": (
        "closed_forms.py",
        '    ODD_P2Q: (FORMULA_UNIT_P2Q_EDGES, "|E| = p^2*(p-1)*(q-1)*(p^2*q - 1)/2"),\n',
        "",
        ("test_verify.py::TestErrata::test_all_three_formulas_detected",),
    ),
    "AM ring_forms: a pq or p^2*q value assembled with the total graph's degrees": (
        "closed_forms.py",
        "predicted_degrees(ring, kind)",
        'predicted_degrees(ring, "total")',
        ("test_closed_forms.py::TestUnitPQ::test_value_3_5",),
    ),
    "AQ CirculantRows: the offsets rotated down, a sum graph with self-loops": (
        "graphs.py",
        "(doubled >> (n - x))",
        "(doubled >> x)",
        ("test_graphs.py::TestCirculantRows::test_rows_match_definition[4]",),
    ),
    "AR CirculantRows.complemented: offset 0 kept, a self-loop at every vertex": (
        "graphs.py",
        "self._full ^ self.offsets ^ 1",
        "self._full ^ self.offsets",
        ("test_graphs.py::TestCirculantRows::test_complement_rows[4]",),
    ),
    "AS cmd_compute: the printed warning for every form but the shown one": (
        "cli.py",
        "v is shown",
        "v is not shown",
        ("test_cli.py::TestCompute::test_printed_variant_warns_family_form",),
    ),
    "AT cmd_compute: the JSON match read off the case, not the shown form": (
        "cli.py",
        "shown.match",
        "case.ok",
        ("test_cli.py::TestCompute::test_match_is_the_shown_variants[printed-False]",),
    ),
    "AU _read_exact: an out-of-choice value read": (
        "cli.py",
        "if flag.choices is not None and value not in flag.choices:",
        "if False:",
        ("test_cli.py::TestParseOnce::test_other_forms_take_one_full_parse[argv4]",),
    ),
    "AV _read_exact: a required flag left out read": (
        "cli.py",
        "if not command.required <= values.keys():",
        "if False:",
        ("test_cli.py::TestParseOnce::test_other_forms_take_one_full_parse[argv5]",),
    ),
    "AW _read_exact: a value starting with - read": (
        "cli.py",
        'if value.startswith("-"):',
        "if False:",
        ("test_cli.py::TestParseOnce::test_other_forms_take_one_full_parse[argv3]",),
    ),
    "AX _read_exact: a help token skipped, not refused": (
        "cli.py",
        "        flag = command.flags.get(token)\n",
        '        if token in ("-h", "--help"):\n'
        "            continue\n"
        "        flag = command.flags.get(token)\n",
        ("test_cli.py::TestParseOnce::test_other_forms_take_one_full_parse[argv8]",),
    ),
    "AY _read_exact: a switch given a value reads it": (
        "cli.py",
        "            values[dest] = True\n            continue\n",
        "            values[dest] = True\n",
        ("test_cli.py::TestParseOnce::test_other_forms_take_one_full_parse[argv9]",),
    ),
    "AZ _read_exact: a repeated flag read": (
        "cli.py",
        "if flag is None or (dest := flag.dest) in values:",
        "if flag is None or not (dest := flag.dest):",
        ("test_cli.py::TestParseOnce::test_other_forms_take_one_full_parse[argv2]",),
    ),
    "BA SweepFold.add: the errata keep the last counterexample, not the smallest": (
        "verify.py",
        "if label not in self._errata or key < self._errata[label][0]:",
        "if True:",
        ("test_verify.py::TestStreamedSweep::test_errata_cite_the_smallest_case_in_any_order",),
    ),
    "BB SweepFold.add: printed_mismatch_rows counts the failed rows too": (
        "verify.py",
        "            if v.failed:\n                failed += 1\n                continue\n"
        '            summary["printed_mismatch_rows"] += 1\n',
        '            summary["printed_mismatch_rows"] += 1\n'
        "            if v.failed:\n                failed += 1\n                continue\n",
        ("test_cli.py::TestVerdict::test_failure_is_counted_and_is_no_erratum",),
    ),
    "BC _json_text: dict keys written in insertion order, not sorted": (
        "verify.py",
        "for key in sorted(value)]",
        "for key in value]",
        ("test_verify.py::TestWriteJson::test_text_equals_json_dumps_at_any_indent",),
    ),
    "BD _json_text: bool tested after int, so True is written 1": (
        "verify.py",
        '    if value is True:\n        return "true"\n    if value is False:\n'
        '        return "false"\n    if isinstance(value, int):\n        return int.__repr__(value)\n',
        '    if isinstance(value, int):\n        return int.__repr__(value)\n    if value is True:\n'
        '        return "true"\n    if value is False:\n        return "false"\n',
        ("test_verify.py::TestWriteJson::test_text_equals_json_dumps_at_any_indent",),
    ),
    "BJ _json_text: a nested value indented by one space, not two": (
        "verify.py",
        'inner = indent + "  "',
        'inner = indent + " "',
        ("test_verify.py::TestWriteJson::test_text_equals_json_dumps_at_any_indent",),
    ),
    "BE cmd_sweep: the sweep checked as it runs, after --out is opened": (
        "cli.py",
        "cases = vf.sweep_cases(",
        "cases = (lambda *a, **k: (c for _ in [0] for c in vf.sweep_cases(*a, **k)))(",
        ("test_cli.py::TestSweepStream::test_errors_exit_2_before_out_is_opened[csv-empty]",),
    ),
    "BF _family_rings: Z_{p^a} enumerated before F_p[x]/(x^k)": (
        "verify.py",
        "                if family != LOCALZN:\n"
        "                    yield TruncatedPolyRing(*mod.factors[0]), True\n"
        "                if family != LOCALPOLY:\n"
        "                    yield ZnRing(mod.n), True\n",
        "                if family != LOCALPOLY:\n"
        "                    yield ZnRing(mod.n), True\n"
        "                if family != LOCALZN:\n"
        "                    yield TruncatedPolyRing(*mod.factors[0]), True\n",
        ("test_verify.py::TestStreamedSweep::test_local_streams_f_before_z_at_each_n[1]",),
    ),
    "BG sweep_cases: the kinds taken in the order given, not sorted": (
        "verify.py",
        "for kind in sorted(kinds)",
        "for kind in kinds",
        ("test_verify.py::TestStreamedSweep::test_local_streams_f_before_z_at_each_n[1]",),
    ),
    "BH write_sweep: the errata read before the cases they follow": (
        "verify.py",
        "errata = map(ErrataEntry._asdict, fold.errata())",
        "errata = list(map(ErrataEntry._asdict, fold.errata()))",
        ("test_verify.py::TestStreamedSweep::"
         "test_folds_equal_the_held_summary_and_errata[ppow-130-1]",),
    ),
    "BI _run_cases: the whole sweep sent as one batch": (
        "verify.py",
        "islice(specs, _SPEC_BATCH)",
        "islice(specs, 10**6)",
        ("test_verify.py::TestStreamedSweep::test_closing_the_stream_stops_the_pool",),
    ),
    "BK sweep_cases: the scan for a ring above the ceiling starts at 2": (
        "verify.py",
        "_family_rings(family, max_n, _min_n=max(ceiling + 1, 2))",
        "_family_rings(family, max_n, _min_n=2)",
        ("test_verify.py::TestSweep::test_ceiling_checked_before_any_case[1]",),
    ),
    "BM degree_pair_counts, rule 2: an edge counted under its unsorted key pair": (
        "sombor.py",
        "pair = (a, b) if a <= b else (b, a)",
        "pair = (a, b)",
        ("test_sombor.py::TestRowsRead::test_two_degrees_on_a_side_make_each_row_twice[0-1]",),
    ),
    "BN degree_pair_counts, rule 2: a vertex read never joins its key's mask": (
        "sombor.py",
        "masks[a] |= 1 << v",
        "pass",
        ("test_sombor.py::TestPairTable::test_isolated_vertices",),
    ),
    "BO _ZnSumRows, whole-graph read: the self-bit test reads the odd bits of D": (
        "graphs.py",
        "if doubled & evens:",
        "if doubled & (evens << 1):",
        ("test_graphs.py::TestRowsAgainstDefinition::"
         "test_one_chunk_boundary_matches_one_row_chunks[2048-total-every]",),
    ),
    "BP _ZnSumRows, whole-graph read: the self mask dropped on every graph": (
        "graphs.py",
        "if doubled & evens:",
        "if False:",
        ("test_graphs.py::TestRowsAgainstDefinition::"
         "test_one_chunk_boundary_matches_one_row_chunks[2047-total-some]",),
    ),
    "BQ degree_pair_counts, first pass: across summed over the larger side's rows": (
        "sombor.py",
        "picks = few_flags[cut]",
        "picks = side_flags[1 - few][cut]",
        ("test_cli.py::TestCompute::test_both_modes_agree_z15",),
    ),
    "BR degree_pair_counts: the non-unit flags taken untranslated": (
        "sombor.py",
        "(unit_flags.translate(FLIP_FLAGS), unit_flags)",
        "(unit_flags, unit_flags)",
        ("test_cli.py::TestCompute::test_both_modes_agree_z15",),
    ),
    "BS check_structure: the zero-divisor flags taken untranslated": (
        "verify.py",
        "is_unit.translate(FLIP_FLAGS)",
        "is_unit",
        ("test_cli.py::TestStructureCommand::test_range_sweep",),
    ),
    "BT _run_cases: the pool window left unbounded, every batch sent up front": (
        "verify.py",
        "for b in islice(batches, 2 * workers)",
        "for b in batches",
        ("test_cli.py::TestSweepStream::test_pool_window_is_bounded_before_the_first_case",),
    ),
    "BU structure_cases: every ring checked at the call, the results held in a list": (
        "verify.py",
        "return (check_structure(ZnRing(n), ceiling=ceiling) for n in range(2, max_n + 1))",
        "return [check_structure(ZnRing(n), ceiling=ceiling) for n in range(2, max_n + 1)]",
        ("test_cli.py::TestCheckStream::test_structure_broken_pipe_exits_4_and_stops[csv]",),
    ),
    "BV identity_cases: the IDENTITY_MAX_N bound checked in the stream, not at the call": (
        "verify.py",
        "    if max_n > IDENTITY_MAX_N:\n"
        '        raise ValueError(f"identity sweep takes max_n <= {IDENTITY_MAX_N}, got {max_n}")\n'
        "    return (_identity_case(n, k, n <= circulant_max)\n"
        "            for n in range(3, max_n + 1) for k in range(n) if not (n * k) % 2)\n",
        "    def cases():\n"
        "        if max_n > IDENTITY_MAX_N:\n"
        '            raise ValueError(f"identity sweep takes max_n <= {IDENTITY_MAX_N}, got {max_n}")\n'
        "        yield from (_identity_case(n, k, n <= circulant_max)\n"
        "                    for n in range(3, max_n + 1) for k in range(n) if not (n * k) % 2)\n"
        "\n"
        "    return cases()\n",
        ("test_verify.py::TestIdentity::test_max_n_bounded_before_any_case",),
    ),
    "BW _square_free_part_divisor: 1093 and 3511 left in the part": (
        "radicals.py",
        "for p in WIEFERICH_PRIMES:",
        "for p in ():",
        ("test_radicals.py::TestSquareFreeParts::test_wieferich_square_is_divided_out[1-1093-4733]",),
    ),
    "BX _split_cofactor: no gcd refinement, only equal parts merged": (
        "rings.py",
        "if g > 1:",
        "if g == x == y:",
        ("test_radicals.py::TestSquareFreeParts::"
         "test_two_whole_parts_that_share_a_prime[1013-1657-25301]",),
    ),
    "BZ _square_free_part_divisor: the 2^48 bound dropped, a gcd proof at any size": (
        "radicals.py",
        "if x >= _GCD_PROOF_BELOW:",
        "if False:",
        ("test_radicals.py::TestGcdProof::test_p2q_above_the_bound_is_split_by_rho",),
    ),
    "CA _gcd_proof_chunks: the top prime 65521 left out of the products": (
        "radicals.py",
        "rings.primes_up_to(_GCD_PROOF_PRIMES_BELOW)",
        "rings.primes_up_to(_GCD_PROOF_PRIMES_BELOW - 16)",
        ("test_radicals.py::TestGcdProof::test_p2q_below_the_bound[65521-65537]",),
    ),
    "CB _square_free_part_divisor: a part above the Wieferich bound taken whole on base 2": (
        "radicals.py",
        "if x < SQUARE_FREE_PROOF_BELOW",
        "if True",
        ("test_radicals.py::TestSquareFreeParts::test_above_the_bound_still_needs_a_proof",
         "test_cli.py::TestClosedModeLargeModuli::test_unproven_cofactor_exits_2"),
    ),
    "CD cli: argparse imported with the module, not only for a full parse": (
        "cli.py",
        "import sys\n",
        "import argparse\nimport sys\n",
        ("test_cli.py::test_import_loads_no_costly_stdlib_modules",
         "test_cli.py::test_exact_form_closed_query_never_imports_argparse"),
    ),
    "CE primes_up_to: the odd sieve starts one index late, at 5 not 3": (
        "rings.py",
        "for i in range(1, (math.isqrt(limit) + 1) // 2):",
        "for i in range(2, (math.isqrt(limit) + 1) // 2):",
        ("test_rings.py::TestPrimes::test_primes_up_to_against_a_plain_sieve",),
    ),
    "CF _split_cofactor: a part its rule hands to rho taken whole": (
        "rings.py",
        "d = _rho_divisor(x)",
        "d = x",
        ("test_rings.py::TestFactorize::test_two_large_primes_round_trip[998244353-1000000007]",
         "test_radicals.py::TestGcdProof::test_p2q_above_the_bound_is_split_by_rho"),
    ),
    "CG so_total_prime_power: the ideal size p^(alpha-1) read as p^alpha": (
        "closed_forms.py",
        "_total_local(p, p ** (alpha - 1))",
        "_total_local(p, p ** alpha)",
        ("test_closed_forms.py::TestTotalPrimePower::test_values",),
    ),
    "CH so_unit_prime_power: the printed bracket read as the corrected one": (
        "closed_forms.py",
        "_unit_two_is_unit((p - 1) * nz, nz, nz)",
        "_unit_two_is_unit((p - 1) * nz, nz, nz * (p - 1) * nz)",
        ("test_closed_forms.py::TestUnitPrimePower::test_printed_value_z5",),
    ),
    "CI _add_term: a zero coefficient kept": (
        "radicals.py",
        "    if acc:\n        terms[s] = _canon(acc)\n    else:\n        terms.pop(s, None)\n",
        "    terms[s] = _canon(acc)\n",
        ("test_radicals.py::TestArithmetic::test_cancellation",),
    ),
    "CJ _add_term: a sum stored without _canon": (
        "radicals.py",
        "terms[s] = _canon(acc)",
        "terms[s] = acc",
        ("test_radicals.py::TestCoefficientType::test_integral_coefficients_are_ints",),
    ),
    "CK unit_pq_partition: the edge count read off beta": (
        "closed_forms.py",
        "edges = (p * q - 1) * alpha // 2",
        "edges = (p * q - 1) * beta // 2",
        ("test_closed_forms.py::TestUnitPQ::test_partition_3_5",),
    ),
    "CL RadicalSum.to_float: a sum beyond the float range returned as inf": (
        "radicals.py",
        "if not math.isfinite(total):",
        "if False:",
        ("test_radicals.py::TestToFloat::test_beyond_the_float_range_raises",
         "test_cli.py::TestCompute::test_float_beyond_range_exits_2[text-zn-unit]"),
    ),
    "CM _unit_two_is_unit: the shared unit-unit bracket's terms swapped": (
        "closed_forms.py",
        "(u * (u - 1) - cross)",
        "(cross - u * (u - 1))",
        ("test_closed_forms.py::TestUnitPrimePower::test_corrected_values",
         "test_closed_forms.py::TestUnitPrimePower::test_printed_value_z5"),
    ),
    "CN _ZnSumRows, offset chunk: a row's self bit cleared at start + j": (
        "graphs.py",
        "(1 << (start + 2 * j))",
        "(1 << (start + j))",
        ("test_graphs.py::TestOffsetRead::test_offset_chunks_read_as_whole_chunk[n29-3]",),
    ),
    "CO degree_pair_counts, rule 1: across ANDs offset rows with the unmoved mask": (
        "sombor.py",
        "other_masks.of(len(idx), skew, picks)",
        "other_masks.of(len(idx), 0, picks)",
        ("test_graphs.py::TestOffsetRead::test_offset_chunks_read_as_whole_chunk[n64-3]",),
    ),
    "CP check_structure: the clique ANDs offset rows with the unmoved mask": (
        "verify.py",
        "lifted = zero_masks.of(len(idx), skew, zeros)",
        "lifted = zero_masks.of(len(idx), 0, zeros)",
        ("test_graphs.py::TestOffsetRead::test_offset_chunks_read_as_whole_chunk[n64-3]",),
    ),
    "CQ check_structure, failing chunk: duality against the unmoved full mask and self bit": (
        "verify.py",
        "u == t ^ lift ^ (1 << x) for x, t, u, lift in zip(selves,",
        "u == t ^ full ^ (1 << x) for x, t, u, lift in zip(idx,",
        ("test_verify.py::TestStructureChunks::test_self_loop_in_both_graphs_is_flagged[3]",
         "test_verify.py::TestStructureChunks::test_self_loop_in_both_graphs_is_flagged[7]"),
    ),
    "CR check_structure, failing chunk: the clique's self bit at the unmoved vertex": (
        "verify.py",
        "compress(selves, zeros),",
        "compress(idx, zeros),",
        ("test_verify.py::TestStructureChunks::test_one_flipped_unit_bit_is_flagged[12-7]",),
    ),
}


def check_mutants() -> list[str]:
    """A line per mutant whose original does not match exactly once, or
    that names no test."""
    bad = []
    for name, (file, original, _, tests) in MUTANTS.items():
        count = (PACKAGE / file).read_text().count(original)
        if count != 1:
            bad.append(f"{name}: {original!r} matches {count} times in {file}")
        if not tests:
            bad.append(f"{name}: names no test that kills it")
    return bad


def run_suite(mutant: tuple[str, str, str] | None = None, tests: tuple[str, ...] = ()) -> int:
    """The exit code of `pytest -x -q` on a copy of src/ and tests/, with the
    mutant applied if one is given: on the given test node ids (relative to
    tests/), or on every test file if there are none."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        shutil.copytree(ROOT / "src", tmp / "src", ignore=skip)
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        if mutant is not None:
            file, original, replacement = mutant
            path = tmp / "src" / "ringsombor" / file
            path.write_text(path.read_text().replace(original, replacement))
        if tests:
            selection = [f"tests/{node}" for node in tests]
        else:
            files = sorted((tmp / "tests").glob("test_*.py"),
                           key=lambda p: (p.name == "test_acceptance.py", p.name))
            selection = [str(f.relative_to(tmp)) for f in files]
        env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return done.returncode


# pytest's exit codes for failed tests and for an error while collecting
# them.  A stale node id gives 4 (usage error) or 5 (no tests) instead,
# which does not count as a kill.
FAILED_CODES = (1, 2)


def judge(file: str, original: str, replacement: str, tests: tuple[str, ...]):
    """(verdict, seconds) for one mutant: "killed" when its named tests
    fail, "stale" when only the whole suite fails, else "SURVIVED"."""
    start = time.perf_counter()
    mutant = (file, original, replacement)
    if run_suite(mutant, tests) in FAILED_CODES:
        verdict = "killed"
    elif run_suite(mutant) != 0:
        verdict = "stale"
    else:
        verdict = "SURVIVED"
    return verdict, time.perf_counter() - start


def main() -> int:
    bad = check_mutants()
    for line in bad:
        print(f"error: {line}")
    if bad:
        return 1
    gate_start = start = time.perf_counter()
    if run_suite() != 0:
        print("error: the unmutated suite fails")
        return 1
    print(f"baseline passes ({time.perf_counter() - start:.1f} s)", flush=True)
    survivors = stale = 0
    # each worker thread waits on its own pytest process
    with ThreadPoolExecutor(max_workers=min(os.cpu_count() or 1, len(MUTANTS))) as pool:
        verdicts = pool.map(lambda spec: judge(*spec), MUTANTS.values())
        for name, (verdict, seconds) in zip(MUTANTS, verdicts):
            if verdict == "stale":
                verdict, stale = "killed", stale + 1
                name += " [stale: its named tests did not fail]"
            elif verdict == "SURVIVED":
                survivors += 1
            print(f"{verdict:8} {name} ({seconds:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed, "
          f"{stale} test lists stale ({time.perf_counter() - gate_start:.1f} s)")
    return 1 if survivors else 0

if __name__ == "__main__":
    sys.exit(main())
