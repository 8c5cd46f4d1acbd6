#!/usr/bin/env bash
# The benchmark's trajectory across changes: BENCH_trajectory.json.
#
#   scripts/trajectory.sh run --parent BIN --change BIN --pr N [--base SHA]
#       [--commit SHA] [--raw FILE]
#   scripts/trajectory.sh report [--pr N]
#
# `run` is benchmark/repeat.sh's alternating-pairs recipe over two builds:
# ten pairs, pair i running seed i on the parent's and the change's
# `igc_benchmark` binary, parent first on odd pairs and change first on even
# ones, for every workload of BENCHMARK.json at its `run_seconds`. Each run's
# final JSON line is kept in FILE (default target/trajectory-raw.jsonl), and
# an incorrect run stops the script. It then appends the row: per workload x
# end-to-end metric, each side's median and quartiles (Python's
# statistics.quantiles) and the pairs the change won, with the base and
# change commits, seeds, run length and a machine header. It prints `report`
# for that row.
#
# `report` prints, per row (or row N), each metric's parent and change
# medians, the change's delta against its own parent (the per-PR delta), and
# the delta against the first row that holds the metric: the product of the
# per-PR ratios since then, so that machine drift between sessions cancels.
# It flags a per-PR delta worse by more than 5 %, and a cumulative one worse
# by more than half the metric's BENCHMARK.json bound. A row back-filled from
# CHANGES.md ("source": "CHANGES.md") holds only what that entry printed, and
# each of its workloads cites the CHANGES.md text holding its numbers;
# `report` fails when a cite is not found there verbatim or lacks one of the
# workload's numbers.
#
# Build each side from its own checkout into its own target directory:
#   CARGO_TARGET_DIR=DIR cargo build --release --offline --locked \
#     --manifest-path benchmark/Cargo.toml
set -euo pipefail
cd "$(dirname "$0")/.."

exec python3 - "$@" <<'EOF'
import argparse, json, os, platform, re, statistics, subprocess, sys

TRAJ = "BENCH_trajectory.json"
SPEC = json.load(open("BENCHMARK.json"))
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
PAIRS = 10
FLAG_PR = 0.05

ap = argparse.ArgumentParser(prog="scripts/trajectory.sh")
ap.add_argument("command", choices=["run", "report"])
ap.add_argument("--parent")
ap.add_argument("--change")
ap.add_argument("--pr", type=int)
ap.add_argument("--base", help="the parent's commit")
ap.add_argument("--commit", help="the change's commit")
ap.add_argument("--raw", default="target/trajectory-raw.jsonl")
args = ap.parse_args(sys.argv[1:])


def load():
    return json.load(open(TRAJ)) if os.path.exists(TRAJ) else {"benchmark": [], "fig8": []}


def depth(obj):
    return 1 + max(map(depth, obj.values()), default=0) if isinstance(obj, dict) else 0


def dumps(obj, indent=0):
    """JSON with one line per metric: only dicts nested three deep break lines."""
    if depth(obj) <= 2:
        return json.dumps(obj, ensure_ascii=False)
    pad = " " * (indent + 1)
    items = [f"{pad}{json.dumps(k)}: {dumps(v, indent + 1)}" for k, v in obj.items()]
    return "{\n" + ",\n".join(items) + "\n" + " " * indent + "}"


def save(traj):
    rows = lambda key: ",\n".join(" " + dumps(r, 1) for r in traj[key])
    with open(TRAJ, "w") as f:
        f.write('{"benchmark": [\n' + rows("benchmark") + '\n], "fig8": [\n' + rows("fig8") + "\n]}\n")


def one(binary, workload, seed):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{binary} {workload} seed {seed}: incorrect run: {out}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def run():
    if not (args.parent and args.change and args.pr):
        sys.exit("run needs --parent, --change and --pr")
    os.makedirs(os.path.dirname(args.raw) or ".", exist_ok=True)
    with open(args.raw, "w") as raw:
        for pair in range(1, PAIRS + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for workload in (w["name"] for w in SPEC["workloads"]):
                for side in order:
                    binary = args.parent if side == "parent" else args.change
                    metrics = one(binary, workload, pair)
                    line = {"side": side, "pair": pair, "seed": pair, "workload": workload,
                            "seconds": SPEC["run_seconds"], "metrics": metrics}
                    raw.write(json.dumps(line) + "\n")
                    raw.flush()
                    print(f"pair {pair} {workload} {side}: commit_p50_ms {metrics['commit_p50_ms']:.4f}",
                          file=sys.stderr)
    append()


def summary(xs):
    q = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2]}


def wins(metric, pairs):
    """The pairs whose change run beat its parent run on `metric`."""
    sign = 1 if BETTER.get(metric, "lower") == "lower" else -1
    return sum(sign * (p["change"] - p["parent"]) < 0 for p in pairs.values())


def machine():
    cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")), "?")
    return f"{cpu}; {os.cpu_count()} CPUs; {platform.system()} {platform.release()}"


def append():
    runs = [json.loads(l) for l in open(args.raw) if l.strip()]
    workloads = {}
    for r in runs:
        w = workloads.setdefault(r["workload"], {})
        for name, value in r["metrics"].items():
            w.setdefault(name, {}).setdefault(r["pair"], {})[r["side"]] = value
    row = {
        "pr": args.pr,
        "base": args.base,
        "commit": args.commit,
        "source": "pairs",
        "seeds": sorted({r["seed"] for r in runs}),
        "pairs": len({r["pair"] for r in runs}),
        "seconds": runs[0]["seconds"],
        "machine": machine(),
        "workloads": {
            w: {m: {**{s: summary([p[s] for p in pairs.values()]) for s in ("parent", "change")},
                    "wins": wins(m, pairs)}
                for m, pairs in ms.items()}
            for w, ms in workloads.items()},
    }
    traj = load()
    traj["benchmark"] = [r for r in traj["benchmark"] if r["pr"] != args.pr] + [row]
    traj["benchmark"].sort(key=lambda r: r["pr"])
    save(traj)
    report(args.pr)


def numbers(text):
    """Every number `text` prints, read both whole ("40 695", "383 k", "3.1 M") and in parts."""
    found = set()
    for m in re.finditer(r"(\d{1,3}(?: \d{3})+|\d+)(\.\d+)?(?: ([kM])\b)?", text):
        whole = float(m.group(1).replace(" ", "") + (m.group(2) or ""))
        found |= {whole, whole * {None: 1, "k": 1e3, "M": 1e6}[m.group(3)]}
        parts = m.group(1).split(" ")
        found |= {float(part) for part in parts} | {float(parts[-1] + (m.group(2) or ""))}
    return found


def uncited(sides, cited):
    """The numbers of one back-filled metric that its workload's cite does not print."""
    values = [v for s in ("parent", "change") for v in sides[s].values()]
    return [v for v in values if not any(abs(v - c) <= 1e-9 * max(1.0, abs(v)) for c in cited)]


def worse(metric, ratio):
    """How much worse a change/parent ratio is, as a signed fraction."""
    return ratio - 1 if BETTER.get(metric, "lower") == "lower" else 1 / ratio - 1


def report(only=None):
    traj = load()
    changes = open("CHANGES.md").read()
    chain, bad = {}, []
    print(f"{'pr':>3} {'workload':<16} {'metric':<17} {'parent':>12} {'change':>12} {'per-PR':>8} {'vs first':>9}  flags")
    for row in traj["benchmark"]:
        for workload, metrics in row["workloads"].items():
            cite = metrics.get("cite")
            if row["source"] == "CHANGES.md" and (cite is None or cite not in changes):
                bad.append(f"PR {row['pr']} {workload}: cite not in CHANGES.md: {cite!r}")
            cited = numbers(cite or "")
            for metric, sides in metrics.items():
                if metric == "cite":
                    continue
                if row["source"] == "CHANGES.md" and uncited(sides, cited):
                    bad.append(f"PR {row['pr']} {workload} {metric}: {uncited(sides, cited)} not in its cite")
                p, c = sides["parent"]["median"], sides["change"]["median"]
                if not p or not c:
                    continue
                key = (workload, metric)
                chain[key] = chain.get(key, 1.0) * c / p
                per_pr, cum = worse(metric, c / p), worse(metric, chain[key])
                flags = [f"{sides['wins']}/{row['pairs']}"] if "wins" in sides else []
                if per_pr > FLAG_PR:
                    flags.append(f"WORSE>{FLAG_PR:.0%}")
                if cum > BOUND[metric] / 2:
                    flags.append(f"DRIFT>{BOUND[metric] / 2:.0%}")
                if only is None or row["pr"] == only:
                    print(f"{row['pr']:>3} {workload:<16} {metric:<17} {p:>12.4f} {c:>12.4f} "
                          f"{per_pr:>+8.1%} {cum:>+9.1%}  {' '.join(flags)}")
    for b in bad:
        print(b)
    if bad:
        sys.exit(1)


{"run": run, "report": lambda: report(args.pr)}[args.command]()
EOF
