"""Run the benchmark once per seed and summarise each metric's spread.

    python3 bench/spread.py --workload inverse-point --seeds 1-10 --seconds 20

Prints, for every metric, the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the distance between the
quartiles as a share of the median; then the share of failed operations.
Runs are sequential, so no two of them compete for the processor.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", default="20")
    args = parser.parse_args()

    values, shares, correct = {}, set(), True
    for seed in args.seeds:
        out = subprocess.run([sys.executable, RUN, "--workload", args.workload,
                              "--seed", str(seed), "--seconds", args.seconds,
                              "--trace", "0"],
                             capture_output=True, text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        correct &= result["correct"]
        shares.add((result["failed"] / result["attempted"]))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
              flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs, correct={correct}, "
          f"failed share={sorted(shares)}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:26s} median {med:<12.5g} q1 {q1:<12.5g} q3 {q3:<12.5g} "
              f"spread {(q3 - q1) / med if med else 0.0:.4f}")


if __name__ == "__main__":
    main()
