#!/usr/bin/env python3
"""Run the strong-grading / Galois equivalence experiment on the standard
corpus and print one row per algebra.

Both verdicts are computed independently (span elimination per grade pair
versus exact rank of the canonical map); the agreement column must read
'yes' on every row, whatever the individual verdicts are.
"""

import argparse
import sys
import time

from qgraded import RelativeChain, beta_n, check_equivalence_theorem
from qgraded.corpus import standard_corpus
from qgraded.galois import MAX_BETA_N


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--beta", type=int, default=0, metavar="N",
                        help="additionally verify bijectivity of the "
                             "canonical-map iterates up to N")
    args = parser.parse_args()
    if args.beta < 0:
        parser.error("--beta N needs N >= 0")
    if args.beta > MAX_BETA_N:
        print(f"error: beta iterate {args.beta} exceeds the configured cap "
              f"{MAX_BETA_N}", file=sys.stderr)
        return 3

    corpus = standard_corpus()
    width = max(len(e.name) for e in corpus)
    print(f"{'algebra':<{width}}  {'dim':>4}  {'strong':>6}  {'galois':>6}  "
          f"{'agree':>5}  {'seconds':>7}")
    disagreements = failures = 0
    for entry in corpus:
        started = time.monotonic()
        eq = check_equivalence_theorem(entry.algebra)
        elapsed = time.monotonic() - started
        tag = "yes" if eq.agree else "NO"
        disagreements += not eq.agree
        print(f"{entry.name:<{width}}  {entry.algebra.dim:>4}  "
              f"{'yes' if eq.strong.strong else 'no':>6}  "
              f"{'yes' if eq.galois.galois else 'no':>6}  {tag:>5}  "
              f"{elapsed:>7.3f}")
        if args.beta and eq.strong.strong:
            # one chain per algebra: T_1..T_{n-1} are built once, not per n
            chain = RelativeChain(entry.algebra)
            bad = [n for n in range(1, args.beta + 1)
                   if not beta_n(entry.algebra, n, chain=chain).is_bijective()]
            for n in bad:
                print(f"{'':<{width}}  FAIL: beta^{n} of {entry.name} "
                      f"is not bijective")
            if not bad:
                print(f"{'':<{width}}  iterates 1..{args.beta} bijective")
            failures += len(bad)
    print(f"\n{len(corpus)} algebras, {disagreements} disagreements")
    if args.beta:
        print(f"{failures} non-bijective iterates")
    return 1 if disagreements or failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
