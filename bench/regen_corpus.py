"""Rewrite corpus_reps.tsv from the library: every corpus representative, its
order, and how many cyclic regular generators the brute-force oracle finds at
the sweep bound ("-" when the holomorph exceeds the bound).

    python3 bench/regen_corpus.py      # from the repository root, about a minute
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from holoreg.groups import BoundExceeded  # noqa: E402
from holoreg.holomorph import cyclic_regular_oracle  # noqa: E402
from holoreg.realizability import corpus_representatives, generate_corpus  # noqa: E402

from workloads import CORPUS_FILE, SWEEP_BOUND  # noqa: E402


def main() -> None:
    lines = [f"# spec\torder\toracle generators at bound {SWEEP_BOUND}"]
    for entry in corpus_representatives(generate_corpus()):
        try:
            found = len(cyclic_regular_oracle(entry.group, hol_bound=SWEEP_BOUND))
        except BoundExceeded:
            found = "-"
        lines.append(f"{entry.spec}\t{entry.group.order}\t{found}")
    CORPUS_FILE.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
