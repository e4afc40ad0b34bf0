"""Measure the benchmark's run-to-run spread, raw and calibrated.

Usage (from the repository root)::

    python3 graybench/spread.py --workload explore_ra4 --runs 10 --seconds 10 [--out FILE]

Runs the workload ``--runs`` times, each with another seed, and reports
for every end-to-end metric the distance between the first and third
quartile of its values (``statistics.quantiles(values, n=4)``) as a share
of their median -- once for the raw values and once for the values
restated by the calibration kernel.  ``--out`` merges the table into a
JSON file (spread.json beside this file holds the committed one, from
which the bounds in BENCHMARK.json were derived).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    rows: dict[str, dict[str, list[float]]] = {}
    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        lines = proc.stdout.splitlines()
        results.append(json.loads(lines[-1]))
        raw = next(
            json.loads(line.split(" ", 1)[1])
            for line in lines if line.startswith("graybench-raw ")
        )
        for name, pair in raw.items():
            row = rows.setdefault(name, {"raw": [], "calibrated": []})
            row["raw"].append(pair["raw"])
            row["calibrated"].append(pair["calibrated"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()
        ), flush=True)

    table = {}
    for name, row in rows.items():
        reported = [
            r["metrics"][name]["value"] if name in r["metrics"]
            else row["raw"][i]
            for i, r in enumerate(results)
        ]
        table[name] = {
            "median": statistics.median(reported),
            "spread": spread(reported),
            "raw_median": statistics.median(row["raw"]),
            "raw_spread": spread(row["raw"]),
            "calibrated_median": statistics.median(row["calibrated"]),
            "calibrated_spread": spread(row["calibrated"]),
        }
        print(f"{name:<20} median {table[name]['median']:12.4f}  spread "
              f"{table[name]['spread']:.4f}  (raw {table[name]['raw_spread']:.4f},"
              f" calibrated {table[name]['calibrated_spread']:.4f})")
    if args.out is not None:
        merged = json.loads(args.out.read_text()) if args.out.exists() else {}
        merged[args.workload] = {
            "runs": args.runs, "seconds": args.seconds, "metrics": table,
        }
        args.out.write_text(json.dumps(merged, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
