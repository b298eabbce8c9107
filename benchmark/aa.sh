#!/usr/bin/env bash
# A/A check: the same build measured in two interleaved sets of runs
# (A B A B ...), each run with its own seed; every end-to-end metric's
# spread inside a set (quartile distance over median) and the gap between the
# two medians are held against the metric's bound in BENCHMARK.json.  Run
# from the repository root.
#
#   bash benchmark/aa.sh                  # 5 runs per set and workload
#   bash benchmark/aa.sh --runs 10        # the driver's set size
#   bash benchmark/aa.sh --handicap 0.30  # the bounds are not vacuous: both
#       sets of lookup_resident run with two fences in the harness's call
#       wrapper, and set B spins between them for 30 % of set A's lat_p50_ns
#       -- a slowdown of known size.  mops_1t and lat_p50_ns must be flagged,
#       and the script fails if one is not.
#
# Options: --runs N, --seconds S (default: BENCHMARK.json's run_seconds),
# --handicap FRACTION.
#
# Exit status: 0 when every spread and every gap is within its bound (A/A),
# or when every expected flag was raised (handicap); 1 otherwise.
set -euo pipefail

runs=5
seconds=""
handicap=""
while [[ $# -gt 0 ]]; do
    case $1 in
        --runs) runs=$2 ;;
        --seconds) seconds=$2 ;;
        --handicap) handicap=$2 ;;
        *) echo "aa.sh: unknown option $1" >&2; exit 2 ;;
    esac
    shift 2
done

exec python3 -u - "$runs" "$seconds" "$handicap" <<'PY'
import json, statistics, subprocess, sys

runs, seconds, handicap = sys.argv[1:4]
runs = int(runs)
spec = json.load(open("BENCHMARK.json"))
seconds = seconds or str(spec["run_seconds"])
names = ["lookup_resident"] if handicap else [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]


def run(workload, seed, extra=()):
    command = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", seconds, "--trace", "0", *extra]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"aa.sh: {' '.join(command)} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"aa.sh: {workload} seed {seed}: {result['failed']} wrong results")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    shape = next(json.loads(l[len("shape "):]) for l in lines if l.startswith("shape "))
    values["spin_ns"] = shape["handicap_ns"]
    return values


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def spin(a_runs):
    """Set A runs fenced without a spin, set B with one of `handicap` times
    the median lat_p50_ns of set A so far."""
    if not handicap:
        return (), ()
    p50 = statistics.median(r["lat_p50_ns"] for r in a_runs) if a_runs else 0.0
    return ("--handicap-ns", "0"), ("--handicap-ns", str(float(handicap) * p50))


# Set A has the odd seeds, set B the even ones.
failed = False
for workload in names:
    a_runs, b_runs = [], []
    for i in range(runs):
        a_runs.append(run(workload, 2 * i + 1, spin(a_runs)[0]))
        b_runs.append(run(workload, 2 * i + 2, spin(a_runs)[1]))
    print(f"== {workload}: {runs} runs per set, {seconds} s each, interleaved")
    if handicap:
        ns = statistics.median(r["spin_ns"] for r in b_runs)
        p50 = statistics.median(r["lat_p50_ns"] for r in a_runs)
        op = 1e3 / statistics.median(r["mops_1t"] for r in a_runs)
        print(f"set B spins {ns:.2f} ns per op: {ns / p50:+.1%} of set A's lat_p50_ns,"
              f" and {ns / (op + ns):+.1%} of mops_1t expected gone")
    print(f"{'metric':20s} {'A q1':>10s} {'A med':>10s} {'A q3':>10s} {'A iqr':>6s}"
          f" {'B q1':>10s} {'B med':>10s} {'B q3':>10s} {'B iqr':>6s} {'gap':>7s} {'bound':>6s}")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        a = quartiles([r[name] for r in a_runs])
        b = quartiles([r[name] for r in b_runs])
        # How much worse B's median is than A's, as a share of A's.
        worse = (b[1] - a[1]) / a[1] if metric["better"] == "lower" else (a[1] - b[1]) / a[1]
        over = worse > bound
        if handicap:
            expected = name in ("mops_1t", "lat_p50_ns")
            verdict = "flagged" if over else ("NOT FLAGGED" if expected else "")
            failed |= expected and not over
        else:
            # The driver's two checks: the gap between the medians, and
            # (set-up time excepted) the spread inside each set.
            spread = 0 if name == "setup_s" else max((a[2] - a[0]) / a[1], (b[2] - b[0]) / b[1])
            wide = spread > bound
            verdict = ("OVER BOUND" if over else "SPREAD OVER BOUND" if wide
                       else "marginal" if abs(worse) > bound / 2 or spread > bound / 3 else "")
            failed |= over or wide
        print(f"{name:20s} {a[0]:10.4f} {a[1]:10.4f} {a[2]:10.4f} {(a[2]-a[0])/a[1]:6.1%}"
              f" {b[0]:10.4f} {b[1]:10.4f} {b[2]:10.4f} {(b[2]-b[0])/b[1]:6.1%} {worse:+7.1%} {bound:6.0%} {verdict}")
sys.exit(1 if failed else 0)
PY
