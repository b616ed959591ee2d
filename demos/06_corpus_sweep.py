"""Sweep a slice of the built-in corpus: classifier vs brute-force oracle.

The corpus takes every odd metacyclic group of order up to 21, every
dihedral/quaternion 2-group up to order 16, and every action of the latter
on the former, one group per isomorphism class.  The orders of the factors
are coprime, so two actions give isomorphic groups exactly when one is the
other twisted by an automorphism of each factor (Taunt's lemma): the
classes are read off the actions, with no isomorphism search, and a
group's table is built only when it is read.  The classifier and the
holomorph scan must agree everywhere the scan is affordable.
"""

from holoreg import (BoundExceeded, classify, corpus_representatives,
                     cyclic_regular_oracle, generate_corpus)

entries = corpus_representatives(generate_corpus(max_m_order=9))
print(f"{len(entries)} groups in the order <= 9 slice\n")

agree = skipped = 0
for entry in entries:
    verdict = classify(entry.group)
    try:
        found = cyclic_regular_oracle(entry.group, hol_bound=20000)
        oracle = f"{len(found):4d} generators"
        status = "agree" if verdict.realizable == bool(found) else "DISAGREE"
        agree += status == "agree"
    except BoundExceeded:
        oracle = "   skipped"
        status = "-"
        skipped += 1
    print(f"order {entry.group.order:3d}  classify={str(verdict.realizable):5s} "
          f"{verdict.reason:30s} oracle={oracle}  {status}")

print(f"\n{agree} agreements, {skipped} skipped by the holomorph bound")
print("full run: `holoreg sweep` (or `holoreg sweep --limit 40 --workers 4`)")
