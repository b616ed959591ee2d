"""Every report of the command line over the corpus is byte-identical to the
recorded digests; ``regen_surface_digests.py`` rewrites them."""

from regen_surface_digests import DIGESTS, digest_lines


def test_reports_match_recorded_digests():
    want = DIGESTS.read_text(encoding="utf-8").splitlines()
    got = digest_lines()
    first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert first is None, f"line {first + 1} differs: {want[first]!r} is now {got[first]!r}"
    assert len(got) == len(want)
