"""Golden CLI outputs: one SHA-256 per command of its canonical output.

Each command runs through cli.main in-process.  The digest covers the exit
code, stdout, stderr and the body of any file the command writes, after
this file's own normalization (independent of the package's canonical_*
helpers): the generated-at comment line, the sweep CSV micros column, and
the JSON generated_at/micros keys are dropped, and a ceiling error keeps
only its "above the ceiling N" part.  An argparse usage block is joined
into one line, since Python versions wrap it at different points.

Re-record after an intended output change with

    PYTHONPATH=src python tests/test_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

from ringsombor.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")

OUT = "{out}"  # replaced by a temporary file path


def _compute_commands() -> list[list[str]]:
    rings = (
        (["--ring", "zn", "--n", "45"], "unit"),
        (["--ring", "zn", "--n", "45"], "total"),
        (["--ring", "zn", "--n", "75"], "unit"),
        (["--ring", "zn", "--n", "25"], "unit"),
        (["--ring", "zn", "--n", "15"], "total"),
        (["--ring", "zn", "--n", "30"], "total"),
        (["--ring", "zn", "--n", "105"], "total"),
        (["--ring", "zppow", "--p", "3", "--alpha", "2"], "unit"),
        (["--ring", "fpxk", "--p", "2", "--k", "3"], "unit"),
    )
    out = []
    for ring, graph in rings:
        for fmt in ("text", "json", "csv"):
            for mode in ("both", "closed", "oracle"):
                for variant in ([], ["--variant", "printed"]):
                    for flt in ([], ["--float"]):
                        out.append(["compute", *ring, "--graph", graph, "--mode", mode,
                                    "--format", fmt, *variant, *flt])
    return out


def commands() -> list[list[str]]:
    cmds = []
    for family, max_n in (("even", 40), ("ppow", 130), ("pq", 120), ("p2q", 200),
                          ("local", 64), ("localzn", 64), ("localpoly", 64)):
        for fmt in ("csv", "json"):
            cmds.append(["sweep", "--family", family, "--max-n", str(max_n),
                         "--graph", "both", "--format", fmt, "--out", OUT])
    for ring in (["--ring", "zn", "--n", "45"], ["--ring", "zn", "--n", "105"],
                 ["--ring", "zppow", "--p", "3", "--alpha", "2"],
                 ["--ring", "fpxk", "--p", "2", "--k", "3"]):
        for fmt in ("csv", "json"):
            cmds.append(["verify", *ring, "--format", fmt])
    for fmt in ("csv", "json"):
        cmds.append(["structure", "--max-n", "30", "--format", fmt])
        cmds.append(["structure", "--ring", "zppow", "--p", "3", "--alpha", "2",
                     "--format", fmt, "--out", OUT])
        cmds.append(["identity", "--max-n", "12", "--circulant-max-n", "8", "--format", fmt])
    cmds += _compute_commands()
    cmds += [
        ["compute", "--ring", "zn", "--n", "9", "--graph", "total", "--dump-graph", OUT],
        ["compute", "--ring", "fpxk", "--p", "3", "--k", "2", "--graph", "unit",
         "--mode", "closed", "--dump-graph", OUT],
        # csv needs the oracle: refused before the dump and the printed warning
        ["compute", "--ring", "zn", "--n", "9", "--graph", "unit", "--mode", "closed",
         "--format", "csv", "--variant", "printed", "--dump-graph", OUT],
        # ceiling: the oracle is refused, closed forms are not
        ["compute", "--ring", "zn", "--n", "100", "--graph", "total", "--ceiling", "50"],
        ["compute", "--ring", "zn", "--n", "100", "--graph", "total", "--mode", "oracle",
         "--ceiling", "50"],
        ["compute", "--ring", "zn", "--n", "100", "--graph", "total", "--mode", "closed",
         "--ceiling", "50"],
        ["compute", "--ring", "zn", "--n", "45", "--graph", "unit", "--mode", "closed",
         "--variant", "printed", "--ceiling", "10"],
        ["verify", "--ring", "zn", "--n", "100", "--ceiling", "50"],
        ["sweep", "--family", "even", "--max-n", "40", "--ceiling", "10"],
        ["structure", "--max-n", "30", "--ceiling", "10"],
        ["structure", "--ring", "zn", "--n", "100", "--ceiling", "50"],
        # usage errors
        [],
        ["sweep", "--family", "nope", "--max-n", "10"],
        ["sweep", "--family", "p2q", "--max-n", "10"],
        ["sweep", "--family", "even", "--max-n", "1"],
        ["structure"],
        ["structure", "--n", "7"],
        ["structure", "--p", "3", "--k", "2"],
        ["identity", "--max-n", "2"],
        ["compute", "--ring", "zn", "--graph", "total"],
        ["compute", "--ring", "zn", "--n", "1", "--graph", "total"],
        ["compute", "--ring", "zppow", "--p", "3", "--graph", "unit"],
        ["compute", "--ring", "zppow", "--p", "6", "--alpha", "2", "--graph", "unit"],
        ["compute", "--ring", "fpxk", "--p", "4", "--k", "2", "--graph", "unit"],
        ["compute", "--ring", "fpxk", "--p", "3", "--graph", "unit"],
        ["verify", "--ring", "zn", "--n", "1"],
        # a flag of another ring kind
        ["compute", "--ring", "zn", "--n", "15", "--p", "3", "--graph", "total"],
        ["compute", "--ring", "zppow", "--p", "3", "--alpha", "2", "--n", "9",
         "--graph", "unit"],
        ["compute", "--ring", "fpxk", "--p", "2", "--k", "3", "--alpha", "2",
         "--graph", "unit"],
        # off-family
        ["compute", "--ring", "zn", "--n", "231", "--graph", "unit", "--mode", "closed",
         "--format", "json"],
    ]
    return cmds


def _canonical(text: str) -> str:
    stripped = text.strip()
    if stripped.startswith("{"):
        payload = json.loads(stripped)
        payload.pop("generated_at", None)
        for case in payload.get("cases", []):
            case.pop("micros", None)
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = [line for line in text.splitlines() if not line.startswith("# generated-at: ")]
    if lines and "micros" in lines[0].split(","):
        drop = lines[0].split(",").index("micros")
        lines = [",".join(f for i, f in enumerate(line.split(",")) if i != drop)
                 for line in lines]
    return "\n".join(lines)


def _canonical_stderr(text: str) -> str:
    # argparse wraps a usage block at points that differ between Python
    # versions (3.13 moved them), so the block is joined into one line
    text = re.sub(r"usage:.*(?:\n[ \t]+.*)*", lambda m: " ".join(m.group().split()), text)
    return re.sub(r"(above the ceiling \d+).*", r"\1", text)


def run_command(argv: list[str], workdir: Path) -> str:
    """Digest of one command's canonical outcome."""
    out_path = workdir / "out.txt"
    if out_path.exists():
        out_path.unlink()
    args = [str(out_path) if a == OUT else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(args)
    outcome = {
        "exit": code,
        "stdout": _canonical(stdout.getvalue()),
        "stderr": _canonical_stderr(stderr.getvalue()),
        "file": _canonical(out_path.read_text()) if out_path.exists() else None,
    }
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()


def current_digests() -> dict[str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        return {" ".join(argv): run_command(argv, Path(tmp)) for argv in commands()}


def test_cli_outputs_match_golden_digests():
    expected = json.loads(DIGESTS.read_text())
    got = current_digests()
    assert sorted(got) == sorted(expected)
    changed = [cmd for cmd in got if got[cmd] != expected[cmd]]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    DIGESTS.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
