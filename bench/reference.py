"""A fixed pure-Python job that paces the benchmark's timings.

run.py starts it in a fresh interpreter before and after every CLI
pass.  On a shared host the speed of a core drifts by up to two times
over a minute, with the workload unchanged, so the ratio of a pass's
wall time to the mean of the reference runs around it holds steady
where the wall time alone does not.  It imports nothing from oldset and
must never change: a new job would shift every ratio measured before.

    python3 bench/reference.py
"""

ITERATIONS = 5_000_000


def main() -> None:
    total = 0
    for i in range(ITERATIONS):
        total += i & 7
    # the sum of i & 7 over whole cycles of eight is 28 per cycle
    assert total == ITERATIONS // 8 * 28


if __name__ == "__main__":
    main()
