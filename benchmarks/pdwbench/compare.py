"""Compare two pdwbench reports: ``compare.py A.json B.json``.

One row per workload x end-to-end metric: A's and B's median, the ratio
B / A (A is the base), the bound from ``BENCHMARK.json``, the wider of the
two run-to-run spreads (interquartile range / median, when a report holds
several runs) and a verdict:

* ``ok``          B is not worse than A by more than the bound;
* ``worse``       it is;
* ``unresolved``  the spread is wider than the bound, so neither can be said.

Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

SPEC = json.loads((pathlib.Path(__file__).resolve().parents[2]
                   / "BENCHMARK.json").read_text())


def spread(values) -> float:
    """Interquartile range as a share of the median (0 for one run, or
    for a layer the workload bypasses)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def compare(report_a: dict, report_b: dict):
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            a, b = (report["workloads"][workload]["end_to_end"]
                    [metric["name"]]["values"]
                    for report in (report_a, report_b))
            base, new = statistics.median(a), statistics.median(b)
            worse_by = (new - base) / base
            if metric["better"] == "higher":
                worse_by = -worse_by
            widest = max(spread(a), spread(b))
            if widest > metric["bound"]:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            yield (workload, metric["name"], base, new, new / base,
                   metric["bound"], widest, verdict)


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    reports = [json.loads(pathlib.Path(path).read_text())
               for path in argv[1:]]
    print(f"{'workload':<13} {'metric':<15} {'A':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6} {'spread':>7}  verdict")
    worse = 0
    for (workload, name, base, new, ratio, bound, widest,
         verdict) in compare(*reports):
        worse += verdict == "worse"
        print(f"{workload:<13} {name:<15} {base:>12.6g} {new:>12.6g} "
              f"{ratio:>7.3f} {bound:>6.2f} {widest:>7.3f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
