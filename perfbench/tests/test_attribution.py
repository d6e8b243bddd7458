#!/usr/bin/env python3
"""Layer-attribution self-test for the serving benchmark.

Injects a deliberate 20% slowdown into the oracle decorator
(--oracle-delay-pct 20) on the bknn_ch workload and checks that
  * routing.oracle.ns_per_query (traced runs) rises by at least 10%,
  * latency_p50_us (untraced runs) rises,
  * the other layers' rows stay put: work counts within 1%, the other
    layers' times within the run-to-run noise band.

Runs come in plain/delayed pairs, alternating which side runs first, and
every check reads the median over pairs of the delayed/plain ratio, so a
drift of the host's speed slower than one pair cancels out. Usage, from
the repository root (about five minutes):

    python3 perfbench/tests/test_attribution.py
"""

import json
import pathlib
import statistics
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent.parent / "run.py"
WORKLOAD = "bknn_ch"
DELAY_PCT = "20"
PAIRS = 3  # Plain/delayed pairs, traced and untraced each.
SEED = 7

# Rows that must not move when only the oracle slows down.
COUNT_ROWS = ("routing.oracle.calls_per_query", "routing.lb.evals_per_query",
              "kspin.kappa_per_query", "kspin.heap_insertions_per_query")
TIME_ROWS = ("routing.lb.ns_per_query", "kspin.self_ns_per_query",
             "service.parse_ns_per_query", "service.self_us_p50")
TIME_BAND = 0.25  # Allowed ratio drift of a time row from host noise.


def run(trace, delayed):
    command = [sys.executable, str(RUN), "--workload", WORKLOAD,
               "--seed", str(SEED), "--seconds", "10", "--trace", trace]
    if delayed:
        command += ["--oracle-delay-pct", DELAY_PCT]
    out = subprocess.run(command, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"run failed its own checks: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def median_ratios(trace):
    """Median over PAIRS pairs of delayed / plain, for every metric."""
    pairs = []
    for i in range(PAIRS):
        if i % 2 == 0:
            plain = run(trace, False)
            delayed = run(trace, True)
        else:
            delayed = run(trace, True)
            plain = run(trace, False)
        pairs.append((plain, delayed))
    return {k: statistics.median(d[k] / p[k] for p, d in pairs)
            for k in pairs[0][0] if all(p[k] for p, _ in pairs)}


def main():
    failures = []

    def check(ok, message):
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    ratio = median_ratios("1")
    check(ratio["routing.oracle.ns_per_query"] >= 1.10,
          f"routing.oracle.ns_per_query x{ratio['routing.oracle.ns_per_query']:.3f}"
          " (needs >= 1.10)")
    for row in COUNT_ROWS:
        check(abs(ratio[row] - 1) <= 0.01, f"{row} x{ratio[row]:.4f} (count, within 1%)")
    for row in TIME_ROWS:
        check(abs(ratio[row] - 1) <= TIME_BAND,
              f"{row} x{ratio[row]:.3f} (within {TIME_BAND:.0%})")

    latency = median_ratios("0")["latency_p50_us"]
    check(latency > 1.05, f"latency_p50_us x{latency:.3f} (needs > 1.05)")

    print("PASS" if not failures else f"FAIL ({len(failures)} checks)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
