"""Compare saved results of two versions of the program.

    python3 perfbench/compare.py BASE.txt CHANGE.txt

Each file holds the standard output of one or more runs of
``perfbench/run.py``.  For every workload and end-to-end metric it
prints the median of each side and the change, and flags a change that
is worse than the bound in BENCHMARK.json.  Results whose rational
backends differ are refused: installing gmpy2 switches the arithmetic
under every number.
"""

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def read_results(path: str):
    """(workload, env, result) for every run in the file."""
    results = []
    workload = env = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("perfbench "):
                workload = line.split()[1]
            elif line.startswith("env: "):
                env = json.loads(line[len("env: "):])
            elif line.startswith('{"correct"'):
                results.append((workload, env, json.loads(line)))
    return results


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, change = read_results(argv[0]), read_results(argv[1])
    backends = {env["backend"] for _, env, _ in base + change}
    if len(backends) != 1:
        print(f"error: results use different rational backends {sorted(backends)}; "
              "not comparing", file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    worse = 0
    for workload in sorted({w for w, _, _ in base} & {w for w, _, _ in change}):
        for metric in metrics:
            name = metric["name"]
            sides = [
                [r["metrics"][name]["value"] for w, _, r in side
                 if w == workload and name in r["metrics"]]
                for side in (base, change)
            ]
            if not all(sides):
                continue
            old, new = (statistics.median(values) for values in sides)
            delta = (new - old) / old
            regressed = delta > metric["bound"] if metric["better"] == "lower" else -delta > metric["bound"]
            worse += regressed
            print(f"{workload:11s} {name:13s} {old:12.4f} -> {new:12.4f} {metric['unit']:4s} "
                  f"{100 * delta:+7.2f}%{'  WORSE THAN BOUND' if regressed else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
