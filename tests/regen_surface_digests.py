"""Rewrite ``recorded/surface-digests.txt``: one SHA-256 of ``cli.run``'s
report text and exit code per (command, spec) for classify, oracle, aut,
brace and rump over the corpus representatives, one per sweep bound, and
one of the ``(spec, duplicate_of)`` listing of every corpus entry.

Each line is ``<sha256> <command> <source>``.  ``test_surface_digests``
recomputes the lines and names the first that differs, so a change that
alters output on purpose reruns this script and says which lines moved.

    python3 tests/regen_surface_digests.py      # from the repository root, a few seconds
"""

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from holoreg.cli import Request, run  # noqa: E402
from holoreg.realizability import corpus_representatives, generate_corpus  # noqa: E402

DIGESTS = HERE / "recorded" / "surface-digests.txt"
GROUP_COMMANDS = ("classify", "oracle", "aut", "brace", "rump")
SWEEP_BOUNDS = (20000, 100000)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_lines() -> list:
    """The lines of the digest file, in file order."""
    def digest(request):
        text, code = run(request)
        return _sha256(f"{code}\n{text}")

    corpus = generate_corpus()
    specs = [e.spec for e in corpus_representatives(corpus)]
    lines = [f"{digest(Request(command, spec=spec))} {command} {spec}"
             for command in GROUP_COMMANDS for spec in specs]
    lines += [f"{digest(Request('sweep', hol_bound=bound))} sweep --hol-bound {bound}"
              for bound in SWEEP_BOUNDS]
    listing = "".join(f"{e.spec}\t{e.duplicate_of}\n" for e in corpus)
    lines.append(f"{_sha256(listing)} corpus (spec, duplicate_of) of {len(corpus)} entries")
    return lines


def main() -> None:
    DIGESTS.write_text("\n".join(digest_lines()) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
