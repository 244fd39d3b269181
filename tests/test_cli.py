import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import test_golden

import ringsombor
from ringsombor import cli
from ringsombor import closed_forms as cf
from ringsombor import rings
from ringsombor import verify as vf
from ringsombor.cli import main
from ringsombor.graphs import TOTAL, UNIT, EdgePartition, degree_pair
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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_float_beyond_range_exits_2(self, capsys, fmt):
        # the total graph of Z_{3^700} has coefficients above the largest double
        code = main(["compute", "--ring", "zppow", "--p", "3", "--alpha", "700",
                     "--graph", "total", "--mode", "closed", "--float", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == ("error: the closed value is beyond the float range; "
                                "leave out --float for its exact value\n")

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
        summary = result.summary()
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
        assert [(e["formula"], e["ring"]) for e in errata] == [(vf.FORMULA_UNIT_PPOW, "Z_9")]


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

    def test_unproven_cofactor_exits_2(self, capsys):
        # the unit-graph radicand of this prime modulus is a strong probable
        # prime to every base up to 41 above PSI_13, so it has no proof
        code, _, out, err = timed_closed(capsys, 1300000000111, "unit")
        assert code == 2
        assert str(PSI_13) in err
        assert out == ""

    def test_rho_budget_exits_2(self, capsys, monkeypatch):
        # 3^100's unit-graph radicands leave a composite cofactor that rho
        # does not split within the budget (2^22 squarings takes about 4 s)
        monkeypatch.setattr(rings, "RHO_STEPS", 1 << 12)
        code, seconds, out, err = timed_closed(capsys, 3**100, "unit")
        assert code == 2 and seconds < 1.0
        assert out == ""
        assert err.count("error:") == 1 and "within 4096 squarings" in err


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

    def test_workers_byte_identical(self, tmp_path):
        one = tmp_path / "w1.csv"
        many = tmp_path / "w8.csv"
        assert main(["sweep", "--family", "even", "--max-n", "60", "--graph", "both",
                     "--workers", "1", "--out", str(one)]) == 0
        assert main(["sweep", "--family", "even", "--max-n", "60", "--graph", "both",
                     "--workers", "8", "--out", str(many)]) == 0
        assert canonical_csv_body(one.read_text()) == canonical_csv_body(many.read_text())

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
        built = [count_calls(monkeypatch, vf, name)
                 for name in ("sweep_rows", "sweep_payload", "errata_report")]
        assert main([*command, "--format", fmt]) == 0
        assert list(map(len, built)) == calls
        assert capsys.readouterr().out


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

    def test_main_reuses_one_parser_that_keeps_no_state(self, monkeypatch, capsys):
        cli._parser.cache_clear()
        calls = count_calls(monkeypatch, cli, "build_parser")
        reused = [self.outcome(capsys, argv) for argv in self.SEQUENCE]
        assert len(calls) == 1  # built on the first call, then reused
        fresh = []
        for argv in self.SEQUENCE:
            cli._parser.cache_clear()
            fresh.append(self.outcome(capsys, argv))
        assert len(calls) == 1 + len(self.SEQUENCE)
        assert reused == fresh
        assert [code for code, _, _ in reused] == [2, 2, 2, 0, 0, 0, 0, 2, 0]
        assert "invalid choice: 'nope'" in reused[1][2]
        assert "--graph" in reused[2][2]
        assert "oracle_float" in reused[3][1] and "oracle = " in reused[4][1]


class TestParseOnce:
    @pytest.mark.parametrize("argv", [
        ["compute", "--ring", "zn", "--n", "15", "--graph", "total", "--mode", "closed"],
        ["verify", "--ring", "zppow", "--p", "3", "--alpha", "2", "--format", "json"],
        ["sweep", "--family", "pq", "--max-n", "40", "--graph", "both"],
        ["structure", "--ring", "fpxk", "--p", "2", "--k", "3"],
        ["identity", "--max-n", "12"],
    ])
    def test_one_parse_per_valid_command(self, monkeypatch, argv):
        parser = cli.build_parser()
        calls = count_calls(monkeypatch, argparse.ArgumentParser, "parse_known_args")
        assert parser.parse_args(argv).command == argv[0]
        assert len(calls) == 1  # the command's subparser alone

    def test_same_outcome_as_the_full_parse(self, capsys):
        parser = cli.build_parser()

        def outcome(parse, argv):
            try:
                return vars(parse(argv))
            except SystemExit as exc:
                captured = capsys.readouterr()
                return exc.code, captured.out, captured.err

        for argv in test_golden.commands():
            argv = ["out.txt" if a == test_golden.OUT else a for a in argv]
            full = outcome(lambda a: argparse.ArgumentParser.parse_args(parser, a), argv)
            assert outcome(parser.parse_args, argv) == full, argv

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


def test_import_loads_no_costly_stdlib_modules():
    # the pool machinery loads only for workers > 1 and datetime only when a
    # report is stamped; dataclasses, which pulls in inspect, is not used
    script = (
        "import sys\n"
        "import ringsombor, ringsombor.cli\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in"
        " ('dataclasses', 'inspect', 'datetime', 'concurrent', 'multiprocessing')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(ringsombor.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
