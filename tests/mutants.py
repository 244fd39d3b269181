"""Mutation gate: every listed mutant of src/ringsombor must fail the suite.

    python tests/mutants.py

Each mutant is one exact-string replacement that must match exactly once in
its file under src/ringsombor.  The unmutated suite runs first and must
pass; then each mutant is applied to a fresh copy of src/ and tests/ in a
temporary directory, where `pytest -x -q` must fail.  The test files run in
name order with the slow acceptance file last, so a kill comes early.
Exits 0 when the baseline passes and every mutant is killed, else 1.

A mutant joins the list once a test kills it.  Equivalent mutants, which no
test can kill because they change no behaviour, stay out: flipping the
oracle's choice of the smaller unit side (`<= n` to `> n`) is one, since
the edges across the split are the same counted from either side.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ringsombor"

# name: (file in src/ringsombor, original, mutant)
MUTANTS = {
    "A so_total_local, 2 not a unit: (nz-1)^2 read as (u-1)^2": (
        "closed_forms.py",
        "_over_sqrt2(n * (nz - 1) ** 2)",
        "_over_sqrt2(n * (u - 1) ** 2)",
    ),
    "B so_unit_local, 2 not a unit: u*u read as nz*nz": (
        "closed_forms.py",
        "_over_sqrt2(n * u * u)",
        "_over_sqrt2(n * nz * nz)",
    ),
    "C degree_pair: the total graph's degrees swapped": (
        "graphs.py",
        "return (d, d + 1) if two_is_unit else (d, d)",
        "return (d + 1, d) if two_is_unit else (d, d)",
    ),
    "E VariantResult.match ignores partition_match": (
        "verify.py",
        "if self.partition_match is False:",
        "if False:",
    ),
    "G TruncatedPolyRing.two_is_unit always true": (
        "rings.py",
        "return self.p != 2",
        "return True",
    ),
    "I errata_report counts failed variants as errata": (
        "verify.py",
        "if v.match or v.failed:",
        "if v.match:",
    ),
    "J LocalRingSpec accepts any two_is_unit": (
        "rings.py",
        "if self.two_is_unit != (q % 2 == 1):",
        "if False:",
    ),
    "K degree_pair_counts, rule 1: the edges across added to a side's own": (
        "sombor.py",
        "- across) // 2",
        "+ across) // 2",
    ),
    "L degree_pair_counts, first pass: the smaller side's neighbours on its own side": (
        "sombor.py",
        "sides[1 - few]",
        "sides[few]",
    ),
    "M degree_pair_counts, rule 2: no edges within a key": (
        "sombor.py",
        "if a <= b:",
        "if a < b:",
    ),
}


def check_mutants() -> list[str]:
    """A line per mutant whose original does not match exactly once."""
    bad = []
    for name, (file, original, _) in MUTANTS.items():
        count = (PACKAGE / file).read_text().count(original)
        if count != 1:
            bad.append(f"{name}: {original!r} matches {count} times in {file}")
    return bad


def run_suite(mutant: tuple[str, str, str] | None = None) -> bool:
    """Whether `pytest -x -q` passes on a copy of src/ and tests/, with the
    mutant applied if one is given."""
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
        files = sorted((tmp / "tests").glob("test_*.py"),
                       key=lambda p: (p.name == "test_acceptance.py", p.name))
        env = {**os.environ, "PYTHONPATH": str(tmp / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *map(str, files)],
            cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        return done.returncode == 0


def main() -> int:
    bad = check_mutants()
    for line in bad:
        print(f"error: {line}")
    if bad:
        return 1
    start = time.perf_counter()
    if not run_suite():
        print("error: the unmutated suite fails")
        return 1
    print(f"baseline passes ({time.perf_counter() - start:.1f} s)")
    survivors = 0
    for name, mutant in MUTANTS.items():
        start = time.perf_counter()
        survived = run_suite(mutant)
        survivors += survived
        verdict = "SURVIVED" if survived else "killed"
        print(f"{verdict:8} {name} ({time.perf_counter() - start:.1f} s)")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
