"""pdwbench -- the repo's one seeded benchmark.

One workload, one pass (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 benchmarks/pdwbench/run.py --workload exec_scan --seed 7 \
        --seconds 14 --trace 0      # end-to-end metrics, tracing off
    ... --trace 1                   # per-layer metrics from the traced pass

Every workload, each pass in a fresh subprocess one after another::

    python3 benchmarks/pdwbench/run.py --seed 2012 --out <dir> [--runs N]

which prints every metric by name with its unit and writes
``<dir>/pdwbench.json`` plus ``<dir>/spans_<workload>.json``.
``--selftest`` checks determinism and runs every workload at a tiny size.

The last line of a one-workload run is one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

from compare import SPEC, spread

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The benchmark measures front-door defaults: no runtime override may leak
# in from the caller's environment.
os.environ.pop("REPRO_PARALLEL_RUNTIME", None)
sys.path[:0] = [str(HERE), str(ROOT / "src")]


def run_one(workload_name: str, seed: int, seconds: float, trace: int,
            spans_path=None) -> dict:
    from workloads import WORKLOADS
    workload = WORKLOADS[workload_name]
    if trace:
        from layers import trace_layers
        outcome = trace_layers(workload, seed, seconds, spans_path)
    else:
        from measure import measure
        outcome = measure(workload, seed, seconds)
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(units) != set(outcome["metrics"]):
        raise SystemExit("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(outcome['metrics']))}")
    outcome["metrics"] = {
        name: {"value": float(outcome["metrics"][name]), "unit": unit}
        for name, unit in units.items()}
    return outcome


def print_outcome(workload: str, outcome: dict) -> None:
    for name, metric in outcome["metrics"].items():
        print(f"{workload:<13} {name:<42} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    print("info " + json.dumps(outcome["info"]))
    print(json.dumps({key: outcome[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


# -- every workload, fresh subprocesses ---------------------------------------

def envelope(args) -> dict:
    import numpy
    from workloads import NODES
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "git_sha": sha, "seed": args.seed,
            "runs": args.runs, "seconds": args.seconds, "nodes": NODES}


def run_all(args) -> int:
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # ``claim`` stays null: the benchmark's own commit claims no gain.
    report = {"claim": None, "envelope": envelope(args), "workloads": {}}
    all_correct = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        entry = {"runs": [], "end_to_end": {}, "per_layer": {}}
        for run in range(args.runs):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                command = [sys.executable, str(HERE / "run.py"),
                           "--workload", workload,
                           "--seed", str(args.seed + run),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace)]
                if trace and run == 0:
                    command += ["--spans",
                                str(out / f"spans_{workload}.json")]
                done = subprocess.run(command, capture_output=True,
                                      text=True)
                if done.returncode:
                    sys.stderr.write(done.stderr)
                    return done.returncode
                lines = done.stdout.strip().splitlines()
                outcome = json.loads(lines[-1])
                info = json.loads(lines[-2][len("info "):])
                all_correct &= outcome["correct"]
                entry["runs"].append(
                    {"seed": args.seed + run, "trace": trace, **info,
                     **{k: outcome[k] for k in
                        ("correct", "attempted", "failed")}})
                for name, metric in outcome["metrics"].items():
                    entry[section].setdefault(
                        name, {"unit": metric["unit"], "values": []}
                    )["values"].append(metric["value"])
        for section in ("end_to_end", "per_layer"):
            for name, metric in entry[section].items():
                metric["median"] = statistics.median(metric["values"])
                metric["spread"] = spread(metric["values"])
                print(f"{workload:<13} {name:<42} "
                      f"{metric['median']:>16.6g} {metric['unit']}")
        report["workloads"][workload] = entry
    (out / "pdwbench.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out / 'pdwbench.json'}; "
          f"{'all correct' if all_correct else 'INCORRECT RESULTS'}")
    return 0 if all_correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced pass's spans here")
    parser.add_argument("--out", help="run every workload; write reports here")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --out: runs per workload, seeds seed..")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        from selftest import selftest
        return selftest(SPEC)
    if args.workload:
        print_outcome(args.workload,
                      run_one(args.workload, args.seed, args.seconds,
                              args.trace, args.spans))
        return 0
    if args.out:
        return run_all(args)
    parser.error("give --workload, --out or --selftest")


if __name__ == "__main__":
    sys.exit(main())
