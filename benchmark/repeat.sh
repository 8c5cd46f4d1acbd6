#!/usr/bin/env bash
# Repeatability harness: does the benchmark agree with itself?
#
#   benchmark/repeat.sh [--runs N] [--seconds S] [--busy] [--workloads "a b"]
#
# Builds once, then runs two alternating sets A and B of N runs per workload
# (N >= 5, default 5; every run gets its own seed) on that one build and
# prints a table, one row per workload x end-to-end metric: median of A,
# median of B, how much worse B's median is, the spread (quartile distance /
# median, as Python's statistics.quantiles gives it) of each set, the bound
# from BENCHMARK.json, and pass/fail. A row passes when B's median is not
# worse than A's by more than the bound and both spreads stay within it
# (set-up time is held to the median rule only). Exits non-zero on any fail.
#
# --busy rehearses a shared box: set B runs beside one background busy-loop
# process (stopped, and waited for, before the script ends).
set -euo pipefail
cd "$(dirname "$0")/.."

runs=5
seconds=""
busy=0
workloads=""
while [ $# -gt 0 ]; do
  case "$1" in
    --runs) runs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --busy) busy=1; shift ;;
    --workloads) workloads="$2"; shift 2 ;;
    *) echo "unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ "$runs" -lt 5 ]; then
  echo "--runs must be at least 5" >&2
  exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/igc_benchmark"

exec python3 - "$bin" "$runs" "$busy" "${seconds:-0}" "$workloads" <<'EOF'
import json, statistics, subprocess, sys

binary, runs, busy, seconds, only = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", int(sys.argv[4]), sys.argv[5].split()
spec = json.load(open("BENCHMARK.json"))
seconds = seconds or spec["run_seconds"]
workloads = [w["name"] for w in spec["workloads"] if not only or w["name"] in only]
metrics = spec["end_to_end"]

def one(workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {out}")
    return {k: v["value"] for k, v in result["metrics"].items()}

def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)

burner = None
failed = False
print(f"{runs} runs per set, --seconds {seconds}, set B {'beside a busy loop' if busy else 'undisturbed'}")
print(f"{'workload':<16} {'metric':<17} {'median A':>12} {'median B':>12} {'B worse':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
try:
    for wi, workload in enumerate(workloads):
        sets = {"A": [], "B": []}
        for i in range(runs):
            for s, name in enumerate(("A", "B") if i % 2 == 0 else ("B", "A")):
                if busy and name == "B":
                    burner = subprocess.Popen([sys.executable, "-c", "while True: pass"])
                try:
                    seed = 1000 * (wi + 1) + 2 * i + (name == "B")
                    sets[name].append(one(workload, seed))
                finally:
                    if burner:
                        burner.kill()
                        burner.wait()
                        burner = None
        for m in metrics:
            a = [r[m["name"]] for r in sets["A"]]
            b = [r[m["name"]] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(a), spread(b)
            ok = worse <= m["bound"] and (m["name"] == "setup_s" or max(sa, sb) <= m["bound"])
            failed |= not ok
            print(f"{workload:<16} {m['name']:<17} {ma:>12.4f} {mb:>12.4f} {worse:>+8.1%} {sa:>9.1%} {sb:>9.1%} {m['bound']:>6.2f}  {'pass' if ok else 'FAIL'}")
finally:
    if burner:
        burner.kill()
        burner.wait()
sys.exit(1 if failed else 0)
EOF
