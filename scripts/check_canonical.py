"""Check that the 60 canonical output files still match their recorded digests.

Writes the JSON and CSV outputs of the five scenarios at seeds 0-4 and
20170309 (the README's canonical set) into a temporary directory, hashes
each with SHA-256 and compares the digests with tests/data/canonical_sha256.txt.
Exits 1 and names each file whose digest moved, or that is missing or new;
exits 0 when all 60 match.

    python3 scripts/check_canonical.py           # check
    python3 scripts/check_canonical.py --write   # re-record the manifest

BLAS is pinned to one thread before numpy loads, as the manifest was
recorded. The script imports the package from this checkout's src/, so
each checkout checks its own source.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from crspectrum.cli import main as simulate  # noqa: E402

MANIFEST = ROOT / "tests" / "data" / "canonical_sha256.txt"
SCENARIOS = ("prediction", "fusion", "recommendation", "decision1", "decision2")
SEEDS = (0, 1, 2, 3, 4, 20170309)
HEADER = """\
# SHA-256 of the canonical outputs: five scenarios at seeds 0-4 and 20170309,
# JSON and CSV, written by `simulate --format json,csv` with
# OPENBLAS_NUM_THREADS=1. Check or re-record with scripts/check_canonical.py.
# The prediction lines hold BP's mse, whose last digits may move with the
# BLAS thread count or library (README, on BLAS rounding); the decision
# lines' q and mdp rows hang on ELM outputs within a few ulp of 0.5.
"""


def canonical_digests() -> dict:
    """File name -> SHA-256 hex digest of each freshly written canonical file."""
    with tempfile.TemporaryDirectory() as out:
        for scenario in SCENARIOS:
            for seed in SEEDS:
                argv = ["--scenario", scenario, "--seed", str(seed),
                        "--format", "json,csv", "--out", out]
                with contextlib.redirect_stdout(io.StringIO()):
                    if simulate(argv) != 0:
                        sys.exit(f"simulate {' '.join(argv)} failed")
        return {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path(out).iterdir())
        }


def read_manifest() -> dict:
    lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    pairs = (line.split() for line in lines if line and not line.startswith("#"))
    return {name: digest for digest, name in pairs}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="record the fresh digests as the manifest")
    args = parser.parse_args()
    fresh = canonical_digests()
    if args.write:
        body = "".join(f"{d}  {name}\n" for name, d in fresh.items())
        MANIFEST.write_text(HEADER + body, encoding="utf-8")
        print(f"recorded {len(fresh)} digests in {MANIFEST}")
        return 0
    recorded = read_manifest()
    moved = sorted(
        name for name in recorded.keys() | fresh.keys()
        if recorded.get(name) != fresh.get(name)
    )
    for name in moved:
        state = ("missing" if name not in fresh
                 else "new" if name not in recorded else "moved")
        print(f"{state}: {name}")
    if moved:
        print(f"{len(moved)} of {len(recorded)} canonical files differ")
        return 1
    print(f"all {len(recorded)} canonical files match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
