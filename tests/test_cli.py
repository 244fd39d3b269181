import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest
import test_golden
from hypothesis import given, settings
from hypothesis import strategies as st

import ringsombor
from ringsombor import cli
from ringsombor import closed_forms as cf
from ringsombor import rings
from ringsombor import verify as vf
from ringsombor.cli import main
from ringsombor.graphs import TOTAL, UNIT, EdgePartition, degree_pair
from ringsombor.radicals import RadicalSum
from ringsombor.rings import PSI_13, ZnRing, euler_phi
from ringsombor.verify import canonical_csv_body


def count_calls(monkeypatch, module, name):
    """Wrap module.<name> so that each call is recorded; returns the record."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class ClosedPipe(io.StringIO):
    """A stdout whose reader goes away after 2000 characters: the write that
    would pass them raises BrokenPipeError."""

    def write(self, text):
        if self.tell() + len(text) > 2000:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def json_peaks(*argv, sizes) -> dict[int, int]:
    """The tracemalloc peaks of this process over the JSON runs of argv
    with --max-n at each of sizes, written to os.devnull, by size.  An
    untraced run at the largest size fills the caches (factorize's among
    them) first."""
    def run(max_n):
        return main([*argv, "--max-n", str(max_n), "--format", "json", "--out", os.devnull])

    assert run(max(sizes)) == 0
    peaks = {}
    for max_n in sizes:
        tracemalloc.start()
        try:
            assert run(max_n) == 0
            peaks[max_n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peaks


class TestCompute:
    def test_both_modes_agree_z15(self, capsys):
        assert main(["compute", "--ring", "zn", "--n", "15", "--graph", "total"]) == 0
        out = capsys.readouterr().out
        assert "oracle = 218*sqrt(2) + 16*sqrt(85)" in out
        assert "closed = 218*sqrt(2) + 16*sqrt(85)" in out
        assert "match = true" in out
        assert "partition: alpha=13 beta=16 gamma=20 edges=49" in out
        assert "degrees: zero=6 unit=7" in out

    def test_trivial_zero(self, capsys):
        assert main(["compute", "--ring", "zn", "--n", "2", "--graph", "total"]) == 0
        out = capsys.readouterr().out
        assert "oracle = 0" in out

    def test_printed_variant_warns_local_form(self, capsys):
        # Z_9 through the local-ring entry point: printed two-is-unit case
        code = main(["compute", "--ring", "zppow", "--p", "3", "--alpha", "2",
                     "--graph", "unit", "--mode", "closed", "--variant", "printed"])
        captured = capsys.readouterr()
        assert code == 0
        assert "closed = 54*sqrt(5)" in captured.out
        assert "oracle =" not in captured.out
        assert "warning" in captured.err
        assert "disagrees with the oracle" in captured.err

    def test_printed_variant_warns_family_form(self, capsys):
        code = main(["compute", "--ring", "zn", "--n", "9", "--graph", "unit",
                     "--mode", "closed", "--variant", "printed"])
        captured = capsys.readouterr()
        assert code == 0
        assert "closed = 135/2*sqrt(2) + 18*sqrt(61)" in captured.out
        assert "disagrees with the oracle" in captured.err

    def test_off_family_closed_request(self, capsys):
        code = main(["compute", "--ring", "zn", "--n", "105", "--graph", "total",
                     "--mode", "closed"])
        assert code == 3
        assert "closed-form" in capsys.readouterr().err

    def test_off_family_oracle_still_works(self, capsys):
        assert main(["compute", "--ring", "zn", "--n", "105", "--graph", "total",
                     "--mode", "oracle"]) == 0

    def test_float_output(self, capsys):
        assert main(["compute", "--ring", "zn", "--n", "5", "--graph", "unit",
                     "--float"]) == 0
        out = capsys.readouterr().out
        assert "oracle_float = 36.9705627485" in out

    # the total graph of Z_{3^700} has coefficients above the largest double;
    # the unit graph of Z_n, n = 2^5 * 3^213, is c*sqrt(2) with c a finite
    # double, about 1.38e308, and the product above the largest double
    @pytest.mark.parametrize("fmt, ring", [
        (fmt, ring)
        for ring in (["zppow", "--p", "3", "--alpha", "700", "--graph", "total"],
                     ["zn", "--n", str(2 ** 5 * 3 ** 213), "--graph", "unit"])
        for fmt in ("text", "json")
    ], ids=["text", "json", "text-zn-unit", "json-zn-unit"])
    def test_float_beyond_range_exits_2(self, capsys, fmt, ring):
        code = main(["compute", "--ring", *ring, "--mode", "closed", "--float", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: the closed value is beyond the float range; "
                                "leave out --float for its exact value\n")

    @pytest.mark.parametrize("variant, match", [("printed", False), ("corrected", True)])
    def test_match_is_the_shown_variants(self, capsys, variant, match):
        # Z_9's unit graph has a corrected/printed pair, and the printed form is wrong
        code = main(["compute", "--ring", "zn", "--n", "9", "--graph", "unit",
                     "--mode", "both", "--format", "json", "--variant", variant])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["match"] is match

    def test_json_format(self, capsys):
        assert main(["compute", "--ring", "fpxk", "--p", "3", "--k", "2",
                     "--graph", "unit", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ring"] == "F_3[x]/(x^2)"
        assert payload["oracle_exact"] == "30*sqrt(2) + 18*sqrt(61)"
        assert payload["match"] is True

    def test_zppow_uses_local_forms(self, capsys):
        assert main(["compute", "--ring", "zppow", "--p", "2", "--alpha", "3",
                     "--graph", "unit"]) == 0
        out = capsys.readouterr().out
        assert "family = local" in out
        assert "closed = 64*sqrt(2)" in out

    def test_usage_errors(self, capsys):
        assert main(["compute", "--ring", "zn", "--graph", "total"]) == 2
        assert main(["compute", "--ring", "zn", "--n", "1", "--graph", "total"]) == 2
        assert main(["compute"]) == 2

    def test_dump_graph(self, tmp_path, capsys):
        out_file = tmp_path / "z4.txt"
        assert main(["compute", "--ring", "zn", "--n", "4", "--graph", "total",
                     "--dump-graph", str(out_file)]) == 0
        assert out_file.read_text() == "p edge 4 2\ne 1 3\ne 2 4\n"

    def test_ceiling_blocks_oracle(self, capsys):
        code = main(["compute", "--ring", "zn", "--n", "100", "--graph", "total",
                     "--ceiling", "50"])
        assert code == 2

    def test_ceiling_blocks_dump_graph(self, tmp_path, capsys):
        out_file = tmp_path / "z50.txt"
        code = main(["compute", "--ring", "zn", "--n", "50", "--graph", "total",
                     "--mode", "closed", "--ceiling", "10", "--dump-graph", str(out_file)])
        assert code == 2
        assert "above the ceiling 10" in capsys.readouterr().err
        assert not out_file.exists()

    def test_closed_csv_fails_before_side_effects(self, tmp_path, capsys):
        out_file = tmp_path / "z9.txt"
        code = main(["compute", "--ring", "zn", "--n", "9", "--graph", "unit",
                     "--mode", "closed", "--format", "csv", "--variant", "printed",
                     "--dump-graph", str(out_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--format csv needs the oracle" in err
        assert "warning" not in err
        assert not out_file.exists()

    @pytest.mark.parametrize("ring, stray", [
        (["--ring", "zn", "--n", "15", "--p", "3"], "--p"),
        (["--ring", "zppow", "--p", "3", "--alpha", "2", "--n", "9"], "--n"),
        (["--ring", "fpxk", "--p", "2", "--k", "3", "--alpha", "2"], "--alpha"),
        (["--ring", "zn", "--n", "15", "--p", "3", "--k", "2"], "--p, --k"),
    ])
    def test_flag_of_another_ring_kind_exits_2(self, tmp_path, capsys, ring, stray):
        out_file = tmp_path / "graph.txt"
        code = main(["compute", *ring, "--graph", "unit", "--variant", "printed",
                     "--dump-graph", str(out_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: --ring {ring[1]} does not take {stray}\n"
        assert captured.out == ""
        assert not out_file.exists()


    @pytest.mark.parametrize("flags, calls", [
        (["--mode", "both"], (1, 1)),
        (["--mode", "oracle"], (1, 1)),
        (["--mode", "closed", "--variant", "printed"], (1, 1)),
        (["--mode", "closed"], (0, 1)),
        (["--mode", "closed", "--variant", "printed", "--ceiling", "10"], (0, 1)),
    ])
    def test_one_oracle_run_and_one_dispatch(self, monkeypatch, capsys, flags, calls):
        # ring_forms is also the dispatch inside verify_case
        cases = count_calls(monkeypatch, vf, "verify_case")
        dispatches = count_calls(monkeypatch, cf, "ring_forms")
        assert main(["compute", "--ring", "zn", "--n", "45", "--graph", "unit", *flags]) == 0
        assert (len(cases), len(dispatches)) == calls

    @pytest.mark.parametrize("flags, partitions", [
        (["--mode", "closed"], 1),
        (["--mode", "closed", "--variant", "printed"], 2),
        (["--mode", "closed", "--variant", "printed", "--ceiling", "10"], 1),
        (["--mode", "both"], 2),
    ])
    def test_closed_path_evaluates_only_the_shown_form(self, monkeypatch, capsys, flags,
                                                       partitions):
        # Z_45 = 3^2 * 5 has a corrected/printed pair on its unit graph; the
        # closed path evaluates the form it shows, corrected or printed, and
        # no other, while the oracle checks both
        calls = count_calls(monkeypatch, cf, "unit_p2q_partition")
        assert main(["compute", "--ring", "zn", "--n", "45", "--graph", "unit", *flags]) == 0
        assert len(calls) == partitions


@pytest.fixture
def broken_total_pq(monkeypatch):
    """total_pq_partition's gamma off by one: every pq total-graph case must
    fail."""
    real = cf.total_pq_partition

    def broken(p, q):
        part = real(p, q)
        return EdgePartition(part.alpha, part.beta, part.gamma + 1)

    monkeypatch.setattr(cf, "total_pq_partition", broken)


@pytest.fixture
def shifted_total_pq(monkeypatch):
    """total_pq_partition moved by (+d1, 0, -d0): a wrong partition with the
    right value, since the sqrt(2) coefficient alpha*d0 + gamma*d1 is kept."""
    real = cf.total_pq_partition

    def shifted(p, q):
        part = real(p, q)
        d0, d1 = degree_pair(TOTAL, p * q, euler_phi(p * q), True)
        return EdgePartition(part.alpha + d1, part.beta, part.gamma - d0)

    monkeypatch.setattr(cf, "total_pq_partition", shifted)


class TestVerdict:
    def test_wrong_partition_with_the_right_value_fails(self, shifted_total_pq, capsys):
        case = vf.verify_case(ZnRing(15), TOTAL)
        (v,) = case.variants
        assert v.closed_partition == EdgePartition(20, 16, 14)
        assert v.value_match and v.partition_match is False
        assert v.failed
        assert main(["compute", "--ring", "zn", "--n", "15", "--graph", "total"]) == 1
        assert capsys.readouterr().err == (
            "error: the unique form disagrees with the oracle on Z_15 (total)\n"
        )

    @pytest.mark.parametrize("flags", [
        [], ["--mode", "oracle"], ["--format", "csv"], ["--format", "json"],
        ["--variant", "printed"],
    ])
    def test_compute_exits_1_on_a_failed_unique_form(self, broken_total_pq, capsys, flags):
        code = main(["compute", "--ring", "zn", "--n", "15", "--graph", "total", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "error: the unique form disagrees with the oracle on Z_15 (total)\n"
        )
        assert captured.out  # the result is still printed

    def test_closed_mode_without_oracle_cannot_fail(self, broken_total_pq, capsys):
        assert main(["compute", "--ring", "zn", "--n", "15", "--graph", "total",
                     "--mode", "closed"]) == 0
        assert capsys.readouterr().err == ""

    def test_verify_and_sweep_exit_1(self, broken_total_pq, capsys):
        assert main(["verify", "--ring", "zn", "--n", "15", "--graph", "total"]) == 1
        assert main(["sweep", "--family", "pq", "--max-n", "40"]) == 1

    def test_failure_is_counted_and_is_no_erratum(self, broken_total_pq):
        result = vf.sweep("pq", 40, kinds=(TOTAL, UNIT))
        buf = io.StringIO()
        vf.write_sweep_json(result, buf)
        summary = json.loads(buf.getvalue())["summary"]
        assert summary["failed_rows"] == len(result.cases) // 2  # the total cases
        assert summary["printed_mismatch_rows"] == 0
        assert vf.errata_report(result.cases) == []

    def test_printed_mismatch_still_exits_0_with_its_erratum(self, capsys):
        code = main(["compute", "--ring", "zn", "--n", "9", "--graph", "unit",
                     "--variant", "printed"])
        err = capsys.readouterr().err
        assert code == 0
        assert err.startswith("warning: printed variant disagrees with the oracle on Z_9")
        assert "error:" not in err
        assert main(["verify", "--ring", "zn", "--n", "9", "--graph", "unit",
                     "--format", "json"]) == 0
        errata = json.loads(capsys.readouterr().out)["errata"]
        assert [(e["formula"], e["ring"]) for e in errata] == [(cf.FORMULA_UNIT_PPOW, "Z_9")]


def timed_closed(capsys, n, graph):
    """(exit code, seconds, stdout, stderr) of one closed-mode JSON query."""
    start = time.perf_counter()
    code = main(["compute", "--ring", "zn", "--n", str(n), "--graph", graph,
                 "--mode", "closed", "--format", "json"])
    seconds = time.perf_counter() - start
    captured = capsys.readouterr()
    return code, seconds, captured.out, captured.err


class TestClosedModeLargeModuli:
    def test_ten_digit_prime(self, capsys):
        code, seconds, out, _ = timed_closed(capsys, 9999999967, "unit")
        assert code == 0 and seconds < 1.0
        # the value printed by the earlier trial-division implementation
        assert json.loads(out)["closed_exact"] == (
            "499999994750000018369999978580*sqrt(2) + "
            "9999999966*sqrt(199999998620000002381)"
        )

    @pytest.mark.parametrize("graph", ["total", "unit"])
    @pytest.mark.parametrize("family, n", [
        ("even", 999999999998),  # 2 * 2969 * 168406871
        ("ppow", 999999999989),  # prime
        ("pq", 999962000357),  # 999979 * 999983
        ("p2q", 999999999927),  # 3^2 * 111111111103
    ])
    def test_twelve_digit_moduli(self, capsys, family, n, graph):
        code, seconds, out, _ = timed_closed(capsys, n, graph)
        assert code == 0 and seconds < 1.0
        payload = json.loads(out)
        assert payload["n"] == n and payload["closed_exact"]

    def test_probable_prime_cofactor_below_the_wieferich_bound(self, capsys):
        # the unit-graph radicand 3380000000569400000023981 of this prime
        # modulus is a strong probable prime to every base up to 41 above
        # PSI_13, so it cannot be proven prime; below
        # radicals.SQUARE_FREE_PROOF_BELOW it only needs to be square-free,
        # which its base-2 test proves
        code, seconds, out, _ = timed_closed(capsys, 1300000000111, "unit")
        assert code == 0 and seconds < 1.0
        assert json.loads(out)["closed_exact"] == (
            "1098500000276315000023167300000647460*sqrt(2) + "
            "1300000000110*sqrt(3380000000569400000023981)"
        )

    def test_unproven_cofactor_exits_2(self, capsys):
        # the unit-graph radicand 50000000000028950000000004190513 of this
        # prime modulus is a strong probable prime to every base up to 41,
        # above both PSI_13 and radicals.SQUARE_FREE_PROOF_BELOW, so neither
        # its primality nor its square-freeness has a proof
        code, seconds, out, err = timed_closed(capsys, 5000000000001449, "unit")
        assert code == 2 and seconds < 1.0
        assert "50000000000028950000000004190513 is a strong probable prime" in err
        assert str(PSI_13) in err
        assert out == ""

    def test_composite_cofactor_above_the_wieferich_bound(self, capsys):
        # the unit-graph radicand 22409750722209842944549021414186705 of
        # this prime modulus leaves, after 5, a composite cofactor above
        # radicals.SQUARE_FREE_PROOF_BELOW; rho splits off 58677793, and the
        # part left is a probable prime above PSI_13 but below the bound,
        # so its base-2 test proves it square-free
        code, seconds, out, _ = timed_closed(capsys, 105853083852596953, "unit")
        assert code == 0 and seconds < 1.0
        assert json.loads(out)["closed_exact"] == (
            "593035305578468391160680328956549334807175640238200*sqrt(2) + "
            "105853083852596952*sqrt(22409750722209842944549021414186705)"
        )

    @pytest.mark.parametrize("n, prime", [(999999937, 999999937), (999999999927, 111111111103)])
    def test_each_prime_proven_once(self, capsys, monkeypatch, n, prime):
        # factorize proves n's large prime through is_prime's cache, so the
        # closed form's own is_prime check does not test it again
        calls = count_calls(monkeypatch, rings, "_passes_miller_rabin")
        rings.is_prime.cache_clear()
        rings.factorize.cache_clear()
        code, _, out, _ = timed_closed(capsys, n, "total")
        rings.is_prime.cache_clear()
        assert code == 0 and out
        assert calls.count((prime,)) == 1

    def test_rho_budget_exits_2(self, capsys, monkeypatch):
        # 3^100's unit-graph radicands leave a composite cofactor that rho
        # does not split within the budget (2^22 squarings takes about 4 s)
        monkeypatch.setattr(rings, "RHO_STEPS", 1 << 12)
        code, seconds, out, err = timed_closed(capsys, 3**100, "unit")
        assert code == 2 and seconds < 1.0
        assert out == ""
        assert err.count("error:") == 1 and "within 4096 squarings" in err

    def test_rho_budget_exits_2_on_the_modulus(self, capsys, monkeypatch):
        # P * Q, the first primes above 2^61 and 2^62: factoring the modulus
        # itself runs rho out of the budget, before any radicand is formed
        # (2^22 squarings takes about 2.5 s)
        p, q = 2305843009213693967, 4611686018427388039
        n = p * q
        assert n == 10633823966279327363694553002502260713
        monkeypatch.setattr(rings, "RHO_STEPS", 1 << 12)
        code, seconds, out, err = timed_closed(capsys, n, "unit")
        assert code == 2 and seconds < 1.0
        assert out == ""
        message = f"Pollard rho found no factor of {n} within 4096 squarings"
        assert err.count("error:") == 1 and message in err
        with pytest.raises(ValueError, match=f"^{message}$"):
            rings.factorize(n)


class TestHugeInputs:
    # Unbounded, these would factor cofactors of hundreds of bits, or build an
    # order too large to name; rings.FACTOR_BITS and rings.MAX_ORDER_DIGITS
    # refuse them at once
    @pytest.mark.parametrize("argv, message", [
        (["compute", "--ring", "zppow", "--p", "3", "--alpha", "200", "--graph", "unit",
          "--mode", "closed"], "a 632-bit cofactor is left to factor"),
        (["compute", "--ring", "zppow", "--p", "3", "--alpha", "300", "--graph", "unit",
          "--mode", "closed"], "a 949-bit cofactor is left to factor"),
        (["compute", "--ring", "zppow", "--p", "3", "--alpha", "1000", "--graph", "unit",
          "--mode", "closed"], "a 3147-bit cofactor is left to factor"),
        (["compute", "--ring", "fpxk", "--p", "3", "--k", "100000", "--graph", "unit",
          "--mode", "closed"], "a ring order has at most 4300 digits; this one has about 47713"),
        (["verify", "--ring", "zppow", "--p", "3", "--alpha", "100000"],
         "a ring order has at most 4300 digits; this one has about 47713"),
        (["compute", "--ring", "zppow", "--p", "3", "--alpha", "1000000000", "--graph", "unit",
          "--mode", "closed"], "a ring order has at most 4300 digits; this one has about 477121255"),
    ], ids=["zppow-200", "zppow-300", "zppow-1000", "fpxk-100000", "verify-zppow-100000",
            "zppow-1000000000"])
    def test_exits_2_quickly(self, capsys, argv, message):
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and seconds < 5.0
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")


class TestVerifyCommand:
    def test_corrected_mismatch_does_not_fail(self, tmp_path):
        out = tmp_path / "z45.csv"
        code = main(["verify", "--ring", "zn", "--n", "45", "--graph", "both",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "p2q" in text
        assert ",printed," in text and ",false," in text  # expected finding

    def test_json_report(self, tmp_path):
        out = tmp_path / "z9.json"
        assert main(["verify", "--ring", "zn", "--n", "9", "--graph", "unit",
                     "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["cases"][0]["ring"] == "Z_9"
        assert len(payload["errata"]) == 1


class TestSweepCommand:
    def test_pq_100_sixteen_rows(self, tmp_path):
        out = tmp_path / "pq.csv"
        code = main(["sweep", "--family", "pq", "--max-n", "100",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 16  # timestamp + header + one row per case
        assert all(",true," in line for line in lines[2:])

    def test_empty_sweep_exits_2(self, tmp_path, capsys):
        code = main(["sweep", "--family", "p2q", "--max-n", "10",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("family, max_n", [("even", 60), ("local", 64)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_workers_byte_identical(self, tmp_path, monkeypatch, family, max_n, fmt):
        # local has two rings at each prime power, which the pool must keep
        # in report order; batches of 4 specs make the pool's chunks
        # complete out of order
        monkeypatch.setattr(vf, "_SPEC_BATCH", 4)
        canonical = {"csv": canonical_csv_body, "json": vf.canonical_json_body}[fmt]
        bodies = []
        for workers in ("1", "8"):
            out = tmp_path / f"w{workers}"
            assert main(["sweep", "--family", family, "--max-n", str(max_n), "--graph", "both",
                         "--format", fmt, "--workers", workers, "--out", str(out)]) == 0
            bodies.append(canonical(out.read_text()))
        assert bodies[0] == bodies[1]

    def test_stdout_default(self, capsys):
        assert main(["sweep", "--family", "pq", "--max-n", "40"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("n,ring,kind,family,variant")

    def test_bad_workdir_is_io_error(self, capsys):
        code = main(["sweep", "--family", "pq", "--max-n", "40",
                     "--out", "/nonexistent-dir/x.csv"])
        assert code == 4

    @pytest.mark.parametrize("command", [
        ["sweep", "--family", "pq", "--max-n", "300", "--graph", "both"],
        ["verify", "--ring", "zn", "--n", "45"],
    ], ids=["sweep", "verify"])
    @pytest.mark.parametrize("fmt, calls", [("csv", [1, 0, 0]), ("json", [0, 1, 1])])
    def test_report_built_for_its_format_alone(self, monkeypatch, capsys, command, fmt, calls):
        # a CSV report builds no JSON payload and no errata, a JSON report no
        # CSV rows
        built = [count_calls(monkeypatch, owner, name) for owner, name in (
            (vf, "sweep_rows"), (vf, "write_json"), (vf.SweepFold, "errata"))]
        assert main([*command, "--format", fmt]) == 0
        assert list(map(len, built)) == calls
        assert capsys.readouterr().out


def canned_case(ring, kind, *, use_local_forms=False, ceiling=None):
    """A fresh CaseResult for ring, as an even ring's, with no graph read."""
    value = RadicalSum({2: ring.order})
    part = EdgePartition(ring.order, 0, 0)
    variant = vf.VariantResult(cf.UNIQUE, value, part, True, True)
    return vf.CaseResult(ring.name, ring.order, kind, "even", value, part, (variant,), 1)


class TestSweepStream:
    @pytest.mark.parametrize("flags, message", [
        (["--family", "p2q", "--max-n", "10"], "no p2q cases with n <= 10"),
        (["--family", "pq", "--max-n", "300", "--ceiling", "100"],
         "Z_111 has 111 elements, above the ceiling 100"),
        (["--family", "pq", "--max-n", "40", "--workers", "0"],
         f"workers must be in 1..{vf.MAX_WORKERS}, got 0"),
        (["--family", "pq", "--max-n", "40", "--workers", str(vf.MAX_WORKERS + 1)],
         f"workers must be in 1..{vf.MAX_WORKERS}, got {vf.MAX_WORKERS + 1}"),
    ], ids=["empty", "ceiling", "workers-0", "workers-above"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_errors_exit_2_before_out_is_opened(self, tmp_path, capsys, flags, message, fmt):
        out = tmp_path / "report"
        assert main(["sweep", *flags, "--format", fmt, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unwritable_out_exits_4(self, capsys, fmt):
        assert main(["sweep", "--family", "pq", "--max-n", "40", "--format", fmt,
                     "--out", "/nonexistent-dir/x.csv"]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_broken_pipe_exits_4_and_stops_the_sweep(self, monkeypatch, capsys, fmt):
        calls = count_calls(monkeypatch, vf, "verify_case")
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["sweep", "--family", "even", "--max-n", "400", "--graph", "both",
                     "--format", fmt]) == 4
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        assert 0 < len(calls) < 400 // 4  # of 400 cases

    @staticmethod
    def sweep_peaks(monkeypatch, *flags) -> dict[int, int]:
        """The tracemalloc peaks of this process over JSON even sweeps of
        both graphs to 600 and 2400 (600 and 2400 cases), by max_n."""
        monkeypatch.setattr(vf, "verify_case", canned_case)
        return json_peaks("sweep", "--family", "even", "--graph", "both", *flags,
                          sizes=(600, 2400))

    def test_peak_does_not_grow_with_the_case_count(self, monkeypatch):
        peaks = self.sweep_peaks(monkeypatch)
        # A report held whole peaks about 6 KB a case higher here; streamed,
        # the peaks differ by the interpreter's free lists and garbage
        # collector, under 200 KB.
        assert peaks[2400] < peaks[600] + (512 << 10), peaks

    def test_pool_peak_does_not_grow_with_the_case_count(self, monkeypatch):
        # Forked workers run the canned cases too.  The pool holds at most
        # 2 * workers batches, so the peaks differ by under 50 KB on a
        # 2-vCPU VM; a pool sent every batch up front holds every spec and
        # every result the report has not yet written, 1.4 MB more at 2400.
        peaks = self.sweep_peaks(monkeypatch, "--workers", "2")
        assert peaks[2400] < peaks[600] + (512 << 10), peaks

    def test_pool_window_is_bounded_before_the_first_case(self, monkeypatch):
        # 2400 canned cases make 38 batches of 64 specs.  Before the first
        # case is read, the pool is sent its window of 2 * workers batches
        # and the one that takes the first done batch's place; a pool sent
        # every batch up front is sent all 38, however fast its workers are.
        monkeypatch.setattr(vf, "verify_case", canned_case)
        submits = count_calls(monkeypatch, ProcessPoolExecutor, "submit")
        cases = vf.sweep_cases("even", 2400, (TOTAL, UNIT), workers=2)
        assert next(cases).ring == "Z_2"
        sent = len(submits)
        cases.close()
        assert 0 < sent <= 2 * 2 + 1, sent


class TestStructureCommand:
    def test_range_sweep(self, tmp_path):
        out = tmp_path / "structure.csv"
        assert main(["structure", "--max-n", "30", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "n,ring,local,zdiv_complete,degrees_ok,duality_ok"
        assert len(lines) == 2 + 29

    def test_single_ring(self, capsys):
        assert main(["structure", "--ring", "fpxk", "--p", "3", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "9,F_3[x]/(x^2),true,true,true,true" in out

    def test_needs_target(self, capsys):
        assert main(["structure"]) == 2

    @pytest.mark.parametrize("flags, message", [
        (["--n", "7"], "error: --n needs --ring\n"),
        (["--p", "3", "--k", "2"], "error: --p, --k need --ring\n"),
    ])
    def test_ring_flags_need_ring(self, capsys, flags, message):
        assert main(["structure", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""

    @pytest.mark.parametrize("flags, message", [
        (["--ring", "zn"], "error: --ring zn requires --n\n"),
        (["--ring", "fpxk", "--p", "2", "--k", "3", "--n", "5"],
         "error: --ring fpxk does not take --n\n"),
    ])
    def test_ring_errors_exit_2(self, tmp_path, capsys, flags, message):
        out = tmp_path / "structure.csv"
        assert main(["structure", *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == message
        assert captured.out == ""
        assert not out.exists()

    def test_max_n_refuses_ring_flags(self, tmp_path, capsys):
        out = tmp_path / "structure.csv"
        code = main(["structure", "--max-n", "5", "--ring", "zn", "--n", "7",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "--max-n with --ring, --n" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestIdentityCommand:
    def test_max_n_50(self, tmp_path):
        out = tmp_path / "identity.csv"
        assert main(["identity", "--max-n", "50", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "n,k,residual_zero,circulant_checked,circulant_match"
        assert all(",true," in line for line in lines[2:])

    def test_too_small(self, capsys):
        assert main(["identity", "--max-n", "2"]) == 2

    def test_max_n_above_bound_refused(self, capsys):
        assert main(["identity", "--max-n", "401"]) == 2
        captured = capsys.readouterr()
        assert "identity sweep takes max_n <= 400, got 401" in captured.err
        assert captured.out == ""

    def test_circulants_above_ceiling_refused(self, capsys):
        assert main(["identity", "--max-n", "20000", "--circulant-max-n", "20000"]) == 2
        captured = capsys.readouterr()
        assert "Z_20000 has 20000 elements, above the ceiling 16384" in captured.err
        assert captured.out == ""

    def test_negative_circulant_max_refused(self, tmp_path, capsys):
        out = tmp_path / "identity.csv"
        code = main(["identity", "--max-n", "5", "--circulant-max-n", "-3", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: circulant_max must be at least 0, got -3\n"
        assert captured.out == ""
        assert not out.exists()


def canned_structure(ring, *, ceiling=None):
    """A StructureResult for ring, as a consistent ring's, with no graph read."""
    return vf.StructureResult(ring.name, ring.order, ring.is_local, ring.is_local, True, True)


class TestCheckStream:
    """structure --max-n and identity are checked at the call, as sweep is,
    and write each result as it is read."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_structure_broken_pipe_exits_4_and_stops(self, monkeypatch, capsys, fmt):
        monkeypatch.setattr(vf, "check_structure", canned_structure)
        calls = count_calls(monkeypatch, vf, "check_structure")
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["structure", "--max-n", "4000", "--format", fmt]) == 4
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        assert 0 < len(calls) < 100  # of 3999 rings

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_identity_broken_pipe_exits_4_before_its_last_case(self, monkeypatch, capsys, fmt):
        calls = count_calls(monkeypatch, vf, "_identity_case")
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["identity", "--max-n", "400", "--format", fmt]) == 4
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        assert 0 < len(calls) < 200  # of 60297 (n, k) pairs

    def test_structure_peak_does_not_grow_with_the_ring_count(self, monkeypatch):
        # A report held whole peaks about 0.5 KB a ring higher (920 KB more
        # at 2400); streamed, the peaks differ by the interpreter's free
        # lists, about 110 KB.
        monkeypatch.setattr(vf, "check_structure", canned_structure)
        peaks = json_peaks("structure", sizes=(600, 2400))
        assert peaks[2400] < peaks[600] + (512 << 10), peaks

    def test_identity_peak_does_not_grow_with_max_n(self, monkeypatch):
        # 60 and 120 make 1392 and 5487 cases, with no circulant read; held
        # whole, each case took about 0.3 KB
        peaks = json_peaks("identity", "--circulant-max-n", "0", sizes=(60, 120))
        assert peaks[120] < peaks[60] + (512 << 10), peaks

    @pytest.mark.parametrize("argv, message", [
        (["structure", "--max-n", "1"], "no rings with n <= 1"),
        (["structure", "--max-n", "300", "--ceiling", "100"],
         "Z_101 has 101 elements, above the ceiling 100"),
        (["identity", "--max-n", "2"], "identity sweep needs max_n >= 3, got 2"),
        (["identity", "--max-n", "401"], "identity sweep takes max_n <= 400, got 401"),
        (["identity", "--max-n", "20000", "--circulant-max-n", "20000"],
         "Z_20000 has 20000 elements, above the ceiling 16384"),
    ], ids=["structure-empty", "structure-ceiling", "identity-empty", "identity-max-n",
            "identity-ceiling"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_errors_exit_2_before_out_is_opened(self, tmp_path, capsys, argv, message, fmt):
        out = tmp_path / "report"
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestParserReuse:
    # usage errors mixed with valid commands, and a --float run before one
    # without, so that a value left over from an earlier call would show
    SEQUENCE = [
        [],
        ["sweep", "--family", "nope", "--max-n", "10"],
        ["compute", "--ring", "zn", "--n", "15"],
        ["compute", "--ring", "zn", "--n", "15", "--graph", "total", "--float",
         "--format", "json"],
        ["compute", "--ring", "zn", "--n", "15", "--graph", "total"],
        ["sweep", "--family", "pq", "--max-n", "40", "--graph", "both"],
        ["compute", "--ring", "zppow", "--p", "3", "--alpha", "2", "--graph", "unit",
         "--mode", "closed"],
        ["sweep", "--family", "even", "--max-n", "1"],
        ["sweep", "--family", "even", "--max-n", "12"],
    ]

    @staticmethod
    def outcome(capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        out = captured.out
        if argv[:1] == ["sweep"] and code == 0:  # drop the timestamp and micros
            out = canonical_csv_body(out)
        return code, out, captured.err

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_main_builds_one_parser_per_non_exact_call(self, monkeypatch, capsys):
        calls = count_calls(monkeypatch, cli, "build_parser")
        builds, outcomes = [], []
        for argv in self.SEQUENCE:
            before = len(calls)
            outcomes.append(self.outcome(capsys, argv))
            builds.append(len(calls) - before)
        # only the first three calls are not in exact form and need a parser
        assert builds == [1, 1, 1, 0, 0, 0, 0, 0, 0]
        # run in the other order, each call gives the same outcome
        backwards = [self.outcome(capsys, argv) for argv in reversed(self.SEQUENCE)]
        assert backwards[::-1] == outcomes
        assert [code for code, _, _ in outcomes] == [2, 2, 2, 0, 0, 0, 0, 2, 0]
        assert "invalid choice: 'nope'" in outcomes[1][2]
        assert "--graph" in outcomes[2][2]
        assert "oracle_float" in outcomes[3][1] and "oracle = " in outcomes[4][1]


PARSER = cli.build_parser()
# values that argparse refuses or reads apart from the exact form, beside
# each flag's own good values
ODD_VALUES = ("-5", "", "x", "nope", "-", "--")


@st.composite
def table_argv(draw):
    """(argv, exact) drawn from a command's flags in cli._COMMANDS: flags in
    exact, abbreviated and `--flag=value` form, repeats, unknown tokens,
    help, good and odd values, switches given a value, and required flags
    left out.  exact is true when argv is in the exact form that
    cli._read_exact must read."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = list(cli._COMMANDS[command].flags.values())
    # each required flag is left out one time in eight, and each flag is in
    # exact form with a good value about three times in four
    picked = [f for f in flags if f.required and draw(st.integers(0, 7))]
    picked += draw(st.lists(st.sampled_from([*flags, None]), max_size=5))
    argv, seen, exact = [command], set(), True
    for flag in draw(st.permutations(picked)):
        if flag is None:
            argv.append(draw(st.sampled_from(("--bogus", "stray", "--", "-h", "--help"))))
            exact = False
            continue
        option = flag.option
        form = draw(st.sampled_from(("exact",) * 6 + ("abbreviated", "equals")))
        if form == "abbreviated" and len(option) > 3:
            option = option[:draw(st.integers(3, len(option) - 1))]
        elif form == "abbreviated":
            form = "exact"
        good = flag.choices or (("7", "15") if flag.type is int else ("out.txt",))
        value = draw(st.sampled_from(ODD_VALUES if draw(st.integers(0, 7)) == 0 else good))
        if form == "equals":
            argv.append(f"{option}={value}")
        elif not flag.switch:
            argv += [option, value]
        elif draw(st.integers(0, 7)):
            argv.append(option)
        else:
            argv += [option, value]  # a switch given a value
            exact = False
        exact = (exact and form == "exact" and flag.dest not in seen
                 and (flag.switch or value in good))
        seen.add(flag.dest)
    exact = exact and all(f.dest in seen for f in flags if f.required)
    return argv, exact


class TestParseOnce:
    @staticmethod
    def outcome(capsys, parse, argv):
        """vars() of parse(argv), or its exit code and output if it exits."""
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            captured = capsys.readouterr()
            return exc.code, captured.out, captured.err

    def parse_calls(self, monkeypatch, capsys, argv) -> tuple[int, int]:
        """The build_parser and parse_known_args calls that main(argv) makes,
        once its parse is shown to give the outcome of argparse's full
        two-level parse."""
        full = self.outcome(capsys, cli.build_parser().parse_args, argv)
        assert self.outcome(capsys, cli._parse_args, argv) == full
        builds = count_calls(monkeypatch, cli, "build_parser")
        parses = count_calls(monkeypatch, argparse.ArgumentParser, "parse_known_args")
        main(argv)
        capsys.readouterr()
        return len(builds), len(parses)

    @pytest.mark.parametrize("argv", [
        ["compute", "--ring", "zn", "--n", "15", "--graph", "total", "--mode", "closed"],
        ["verify", "--ring", "zppow", "--p", "3", "--alpha", "2", "--format", "json"],
        ["sweep", "--family", "pq", "--max-n", "40", "--graph", "both"],
        ["structure", "--ring", "fpxk", "--p", "2", "--k", "3"],
        ["identity", "--max-n", "12"],
    ])
    def test_one_parse_per_valid_command(self, monkeypatch, capsys, argv):
        # an exact-form call is read off cli._COMMANDS alone, with no parser
        assert self.parse_calls(monkeypatch, capsys, argv) == (0, 0)

    @pytest.mark.parametrize("argv", [
        ["compute", "--ring", "zn", "--n=15", "--graph", "total"],
        ["compute", "--ring", "zn", "--n", "15", "--gra", "total"],
        ["compute", "--ring", "zn", "--n", "15", "--graph", "total", "--graph", "unit"],
        ["verify", "--ring", "zn", "--n", "15", "--out", "-"],
        # refused by argparse, which reports them
        ["compute", "--ring", "zn", "--n", "15", "--graph", "nope"],
        ["compute", "--ring", "zn", "--n", "15"],
        ["compute", "--ring", "zn", "--n", "-15", "--graph", "total"],
        ["sweep", "--family", "pq", "--max-n"],
        ["compute", "--ring", "zn", "--n", "15", "--graph", "total", "-h"],
        ["compute", "--ring", "zn", "--n", "15", "--graph", "total", "--float", "1"],
    ])
    def test_other_forms_take_one_full_parse(self, monkeypatch, capsys, argv):
        # one parser built, then the top-level parse and the command's
        assert self.parse_calls(monkeypatch, capsys, argv) == (1, 2)

    @settings(max_examples=400)
    @given(table_argv())
    def test_reader_agrees_with_argparse(self, case):
        argv, exact = case
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                full = vars(PARSER.parse_args(argv))
        except SystemExit:
            full = None
        read = cli._read_exact(argv)
        assert read is None or vars(read) == full
        assert read is not None or not exact

    def test_same_outcome_as_the_full_parse(self, capsys):
        parser = cli.build_parser()
        for argv in test_golden.commands():
            argv = ["out.txt" if a == test_golden.OUT else a for a in argv]
            full = self.outcome(capsys, parser.parse_args, argv)
            assert self.outcome(capsys, cli._parse_args, argv) == full, argv

    @pytest.mark.parametrize("argv, leftover", [
        (["compute", "--ring", "zn", "--n", "15", "--graph", "total", "--bogus"], "--bogus"),
        (["sweep", "--family", "even", "--max-n", "10", "stray"], "stray"),
    ])
    def test_leftover_arguments_exit_2_with_the_top_level_usage(self, capsys, argv, leftover):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (cli.build_parser().format_usage()
                                + f"ringsombor: error: unrecognized arguments: {leftover}\n")


def run_bare(script: str) -> subprocess.CompletedProcess:
    """script run by python -S (no site-packages) with the package on its path."""
    env = {**os.environ, "PYTHONPATH": str(Path(ringsombor.__file__).parents[1])}
    return subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=True)


def test_import_loads_no_costly_stdlib_modules():
    # the pool machinery loads only for workers > 1, datetime only when a
    # report is stamped and argparse (with gettext and locale) only for an
    # argv not in exact form; dataclasses, which pulls in inspect, is not used
    script = (
        "import sys\n"
        "import ringsombor, ringsombor.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in"
        " ('dataclasses', 'inspect', 'datetime', 'concurrent', 'multiprocessing',"
        " 'argparse', 'gettext', 'locale')))\n"
    )
    assert run_bare(script).stdout.strip() == "[]"


def test_exact_form_closed_query_never_imports_argparse():
    script = (
        "import sys\n"
        "from ringsombor import cli\n"
        "code = cli.main(['compute', '--ring', 'zn', '--n', '999999937', '--graph', 'unit',"
        " '--mode', 'closed', '--format', 'json'])\n"
        "print(code, 'argparse' in sys.modules, file=sys.stderr)\n"
    )
    proc = run_bare(script)
    assert json.loads(proc.stdout)["ring"] == "Z_999999937"
    assert proc.stderr == "0 False\n"


def test_package_import_loads_only_the_asked_modules():
    # the package re-exports nothing, so importing it loads no submodule,
    # and a submodule loads only what it imports itself
    script = (
        "import sys\n"
        "import ringsombor\n"
        "print(sorted(m for m in sys.modules if m.startswith('ringsombor.')))\n"
        "import ringsombor.rings\n"
        "print(sorted(m for m in sys.modules if m.startswith('ringsombor.')))\n"
    )
    assert run_bare(script).stdout.splitlines() == ["[]", "['ringsombor.rings']"]
