#!/usr/bin/env bash
# Threads × shards execution-strategy sweep for the `scale` experiment.
#
# Runs `exp --id scale` once per (threads, shards, size) cell — one size per
# invocation so the report's `world_run.execute` span is attributable to that
# size — and merges every cell into a single JSON report with the host's CPU
# count and git rev.
#
# What the axes change: the advance loop always runs on the calling thread
# and visits shards one after another, so shards only reorder its work.
# Threads only reach the network build and the full power recompute, both
# threaded at 8192 nodes and above. The report is a cost profile of those
# strategies on this host, not a parallel-speedup claim; a speedup claim
# needs an interleaved same-host A/B (see EXPERIMENTS.md, "scale, threaded").
#
# Usage: scripts/scale_sweep.sh [out.json]
#   scripts/scale_sweep.sh                 -> BENCH_sweep.json
#   scripts/scale_sweep.sh BENCH_pr8.json  -> BENCH_pr8.json
#
# Knobs (space/comma-separated lists):
#   WRSN_SWEEP_THREADS  worker threads per cell   (default "1 2 4 8")
#   WRSN_SWEEP_SHARDS   spatial shards per cell   (default "1 8 32")
#   WRSN_SWEEP_SIZES    network sizes per cell    (default "100000 500000 1000000")
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_sweep.json}"
threads_list="${WRSN_SWEEP_THREADS:-1 2 4 8}"
shards_list="${WRSN_SWEEP_SHARDS:-1 8 32}"
sizes_list="${WRSN_SWEEP_SIZES:-100000 500000 1000000}"
# Accept commas as separators too.
threads_list="${threads_list//,/ }"
shards_list="${shards_list//,/ }"
sizes_list="${sizes_list//,/ }"

echo "== cargo build --release -p wrsn-bench"
cargo build --release -p wrsn-bench -q

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cells=()
for size in $sizes_list; do
  for shards in $shards_list; do
    for threads in $threads_list; do
      cell="$tmp/n${size}_s${shards}_t${threads}.json"
      echo "== scale n=$size shards=$shards threads=$threads"
      WRSN_SCALE_SIZES="$size" WRSN_SHARDS="$shards" WRSN_THREADS="$threads" \
        ./target/release/exp --id scale --out-dir "$tmp/out" \
        --json "$cell" > /dev/null
      cells+=("$cell")
    done
  done
done

python3 - "$out" "${cells[@]}" <<'EOF'
import json, os, re, sys

out_path, *cell_paths = sys.argv[1:]
rows, git_rev = [], None
for path in cell_paths:
    with open(path) as fh:
        report = json.load(fh)
    git_rev = report.get("git_rev", git_rev)
    exp = next(e for e in report["experiments"] if e["id"] == "scale")
    spans = {s["path"]: s["total_s"] for s in exp.get("spans", [])}
    size = next(
        int(m.group(1))
        for p in spans
        if (m := re.fullmatch(r"scale_n(\d+)", p))
    )
    rows.append({
        "nodes": size,
        "threads": exp["threads"],
        "shards": exp["shards"],
        "wall_s": exp["wall_s"],
        "scale_total_s": spans.get(f"scale_n{size}"),
        "world_run_s": spans.get(f"scale_n{size}.world_run"),
        "execute_s": spans.get(f"scale_n{size}.world_run.execute"),
    })

rows.sort(key=lambda r: (r["nodes"], r["shards"], r["threads"]))
report = {
    "host_cpus": os.cpu_count(),
    "git_rev": git_rev,
    "rows": rows,
}
# Per-size ratio of the execute span to the threads=1 cell at the same shard
# count (threads reach execute only through the full power recompute).
for row in rows:
    base = next(
        (r for r in rows
         if r["nodes"] == row["nodes"] and r["shards"] == row["shards"]
         and r["threads"] == 1),
        None,
    )
    if base and base["execute_s"] and row["execute_s"]:
        row["execute_speedup_vs_t1"] = round(base["execute_s"] / row["execute_s"], 3)

with open(out_path, "w") as fh:
    json.dump(report, fh, indent=1)
    fh.write("\n")
print(f"wrote {out_path}: {len(rows)} cells, host_cpus={report['host_cpus']}")
EOF
