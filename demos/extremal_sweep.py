"""Census of gamma_OL = n over all small connected graphs.

Enumerates every connected graph up to isomorphism order by order,
sweeps each order with the harness, which solves exactly only the
graphs it calls extremal, and reports which classes need their whole
vertex set.  The only hits are the half-graphs, one per
even order — including H_4 at n = 8, absent from older censuses.

Run:  python3 demos/extremal_sweep.py --max-n 8 --jobs 4
"""

from __future__ import annotations

import argparse
import time

from oldset import enumerate_connected_graphs, run_harness


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=8, choices=range(2, 11),
                    help="largest order to sweep (default 8)")
    ap.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = ap.parse_args()

    print(f"{'n':>2} {'classes':>8} {'locatable':>10} {'seconds':>8}  extremal")
    clean = True
    for n in range(2, args.max_n + 1):
        start = time.perf_counter()
        report = run_harness(enumerate_connected_graphs(n), n, jobs=args.jobs)
        took = time.perf_counter() - start
        hits = " ".join(report.extremal) if report.extremal else "-"
        print(
            f"{n:>2} {report.graphs_scanned:>8} {report.locatable_count:>10} "
            f"{took:>8.2f}  {hits}"
        )
        clean = clean and not report.violations
    print("every extremal graph is a half-graph:", "yes" if clean else "NO")


if __name__ == "__main__":
    main()
