"""Break-even sweep of `verify --jobs 1` against `verify --jobs 2`.

For each size n in SIZES, times `verify --families all
--k-range 1000..(1000+n/5-1)` in this process, `--jobs 1` and `--jobs 2`
alternating for PAIRS pairs, the first of each pair alternating
too.  `--jobs 2` always forks a pool of two workers, at every size, so
the table shows what a fork costs where `verify` itself would not fork.
Each pair's two outputs must be byte-identical.  Prints a Markdown table
of the median times and the median of the paired ratios, the speedup of
`--jobs 2`:

    python3 tools/verify_sweep.py

Run from the root of a source checkout; the package is imported from its
`src/`.  Standard library only.
"""

import contextlib
import io
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lensknots import cli  # noqa: E402

PAIRS = 21
SIZES = (250, 500, 750, 1000, 1500, 2000, 4000)  # multiples of 5


def timed(argv):
    """The wall time of cli.run(argv) in seconds, and its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.run(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        sys.exit(f"{' '.join(argv)} exited {code}")
    return elapsed, out.getvalue()


def sweep(n):
    """Median --jobs 1 and --jobs 2 times at n instances, in seconds, and
    the median of their paired ratios."""
    argv = ["verify", "--families", "all", "--k-range", f"1000..{1000 + n // 5 - 1}"]
    one, two, ratios = [], [], []
    for i in range(PAIRS):
        runs = {}
        for jobs in ((1, 2) if i % 2 == 0 else (2, 1)):
            runs[jobs] = timed(argv + ["--jobs", str(jobs)])
        if runs[1][1] != runs[2][1]:
            sys.exit(f"--jobs 1 and --jobs 2 print different output at n = {n}")
        one.append(runs[1][0])
        two.append(runs[2][0])
        ratios.append(runs[1][0] / runs[2][0])
    return statistics.median(one), statistics.median(two), statistics.median(ratios)


def main():
    # every --jobs 2 run forks two workers, whatever the range and the CPUs
    cli._WORKER_MIN = 1
    cli._usable_cpus = lambda: 2
    timed(["verify", "--k-range", "1000..1001", "--jobs", "2"])  # imports the pool
    print(f"{PAIRS} alternating pairs per size\n")
    print("| instances | `--jobs 1` | `--jobs 2` | speedup |")
    print("|---|---|---|---|")
    for n in SIZES:
        one, two, ratio = sweep(n)
        print(f"| {n:,} | {one * 1000:.0f} ms | {two * 1000:.0f} ms | {ratio:.2f}x |",
              flush=True)


if __name__ == "__main__":
    main()
