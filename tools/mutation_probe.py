#!/usr/bin/env python3
"""Mutation probe: does the tier-1 suite notice a weakened guard or verdict?

Each mutant below changes one exact piece of text in one source file: it
drops a guard band, makes a strict comparison loose or a loose one strict,
or shrinks a margin.  For each mutant the tree is copied to a temporary
directory, the mutant is applied to the copy, and tier-1 runs there with
``-x -q``.  A mutant the suite fails on is KILLED; one it passes SURVIVED.
The unmutated copy runs first and must pass, so that a failure means the
mutant was seen.

    python tools/mutation_probe.py

Exits 0 if every mutant is killed; 1 if one survives, or if a mutant's old
text is not found exactly once in its file (checked for all of them before
anything runs); 2 if tier-1 fails on the unmutated copy.  Uses the standard
library and what tier-1 needs; each run takes about as long as tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name, file, exact old text, new text
MUTANTS = [
    # guards that a constructed case inside the guard's width pins
    ("violation-verdict-guard", "src/squeeze/construct.py",
     "if lhs * (1.0 + GUARD_COMPARE) < s_lower.value * (1.0 - GUARD_COMPARE) - margin_guard:",
     "if lhs < s_lower.value - margin_guard:"),
    ("sandwich-guard", "src/squeeze/metrics.py",
     "lo.value > up.value * (1.0 + GUARD_COMPARE)",
     "lo.value > up.value"),
    ("outer-radius-guard", "src/squeeze/domain.py",
     "return r * (1.0 + GUARD_REL)",
     "return r"),
    ("smoothed-target-strict", "src/squeeze/smooth.py",
     "target_met=bool(s_val < float(rec.target))",
     "target_met=bool(s_val <= float(rec.target))"),
    ("levi-verdict-strict", "src/squeeze/smooth.py",
     "strictly_pseudoconvex_reported=bool(min_val > tolerance)",
     "strictly_pseudoconvex_reported=bool(min_val >= tolerance)"),
    # exact verdicts and margins
    ("level-verdict-strict", "src/squeeze/construct.py",
     "if not 2 * c_k * c_k < target * target * m_k:",
     "if not 2 * c_k * c_k <= target * target * m_k:"),
    ("containment-loose", "src/squeeze/metrics.py",
     "if not s_left - s_right >= m:",
     "if not s_left - s_right > m:"),
    ("annulus-inclusion-loose", "src/squeeze/construct.py",
     "and s_left - s_right <= m)",
     "and s_left - s_right < m)"),
    ("distance-guard", "src/squeeze/domain.py",
     "d = box_distance(*boxes(resolution), rz, rw) * (1.0 - GUARD_REL)",
     "d = box_distance(*boxes(resolution), rz, rw)"),
    ("oracle-haircut-zero", "src/squeeze/estimate.py",
     "_HAIRCUT = 1e-4",
     "_HAIRCUT = 0.0"),
    ("oracle-haircut-small", "src/squeeze/estimate.py",
     "_HAIRCUT = 1e-4",
     "_HAIRCUT = 2e-5"),
    ("oracle-sum-margin", "src/squeeze/estimate.py",
     "return bound <= float(thr2) * (1.0 - _SUM_MARGIN)",
     "return bound <= float(thr2)"),
]

# the tier-1 command (ROADMAP.md), stopping at the first failure
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-x"]
# what the copy leaves out: history, caches and benchmark records
SKIPPED = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}


def misplaced() -> list[str]:
    """Mutants whose old text is not found exactly once in their file."""
    bad = []
    for name, rel, old, _new in MUTANTS:
        count = (ROOT / rel).read_text().count(old)
        if count != 1:
            bad.append(f"{name}: old text found {count} times in {rel}")
    return bad


def copy_tree(dest: Path) -> None:
    def skipped(directory, names):
        out = Path(directory).resolve() == (ROOT / "perfbench").resolve()
        return [n for n in names if n in SKIPPED or n.endswith(".egg-info")
                or (out and n == "out")]

    shutil.copytree(ROOT, dest, ignore=skipped)


def tier1(tree: Path) -> int:
    """Tier-1's exit code on ``tree``, which must import squeeze from its own
    ``src``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    where = subprocess.run([sys.executable, "-c", "import squeeze; print(squeeze.__file__)"],
                           cwd=tree, env=env, capture_output=True, text=True)
    if not where.stdout.strip().startswith(str(tree)):
        sys.exit(f"squeeze does not import from the copy: {where.stdout}{where.stderr}")
    return subprocess.run(TIER1, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run(mutant=None) -> int:
    with tempfile.TemporaryDirectory(prefix="mutation-probe-") as tmp:
        tree = Path(tmp) / "tree"
        copy_tree(tree)
        if mutant is not None:
            _name, rel, old, new = mutant
            path = tree / rel
            path.write_text(path.read_text().replace(old, new))
        return tier1(tree)


def main() -> int:
    bad = misplaced()
    for line in bad:
        print(f"MISPLACED {line}")
    if bad:
        return 1

    t0 = time.perf_counter()
    code = run()
    print(f"unmutated: tier-1 exit {code} ({time.perf_counter() - t0:.0f} s)", flush=True)
    if code != 0:
        return 2
    survived = 0
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        code = run(mutant)
        verdict = "SURVIVED" if code == 0 else "KILLED"
        survived += code == 0
        print(f"{verdict} {mutant[0]} ({mutant[1]}; tier-1 exit {code}, "
              f"{time.perf_counter() - t0:.0f} s)", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
