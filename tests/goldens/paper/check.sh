#!/usr/bin/env bash
# Paper-figure gate: reruns the paper benches and diffs their stdout against
# the committed files next to this script.
#
#   tests/goldens/paper/check.sh [BUILD_DIR]        (default: build)
#
# BUILD_DIR must hold the bench binaries (build them in Release: the eight
# figure benches take about half a minute on 4 cores). Before the diff, each
# run's stdout loses what changes from run to run or machine to machine:
#   - the "[sweep] ..." timing lines;
#   - the JSON fields wall_s, peak_rss_bytes, build_s, feed_s, *_per_s and
#     rss_bytes_per_article;
#   - scale_frontier's "build ...s (... articles/s)  feed ...s (...
#     lookups/s)  rss ... GiB" text.
# Everything else must match byte for byte. Exits 1 on any difference and
# prints it. There is no record mode: when a change is meant to move a
# number, apply the printed diff to the committed file by hand and say why in
# the change description, as for tests/goldens/simulation_cells.txt.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bench="${1:-build}/bench"

# <golden file> <bench binary and arguments>
runs=(
  "fig11_interactions         fig11_interactions --jobs 4"
  "fig12_traffic              fig12_traffic --jobs 4"
  "fig13_hit_ratio            fig13_hit_ratio --jobs 4"
  "fig14_cache_storage        fig14_cache_storage --jobs 4"
  "fig15_hotspots             fig15_hotspots --jobs 4"
  "table1_nonindexed          table1_nonindexed --jobs 4"
  "storage_cost               storage_cost --jobs 4"
  "ablation_substrate         ablation_substrate --jobs 4"
  "fig12_traffic_smoke        fig12_traffic --smoke --jobs 4"
  "scale_frontier_smoke       scale_frontier --smoke --shards 2"
  "availability_churn         availability_churn --nodes 64 --articles 500 --queries 4000 --jobs 4"
  "chaos_soak_smoke           chaos_soak --smoke --jobs 4"
)

strip() {
  sed -E \
    -e '/^\[sweep\] /d' \
    -e 's/,"(wall_s|peak_rss_bytes|build_s|feed_s|[a-z_]+_per_s|rss_bytes_per_article)":[^,}]*//g' \
    -e 's/build [0-9.]+s \([0-9.]+ articles\/s\) +feed [0-9.]+s \([0-9.]+ lookups\/s\) +rss [0-9.]+ GiB/build feed rss/'
}

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

failed=0
for run in "${runs[@]}"; do
  read -r name binary args <<<"$run"
  # shellcheck disable=SC2086  # args is a word list on purpose
  if ! "$bench/$binary" $args >"$out/$name.raw"; then
    echo "FAIL $name: '$binary $args' exited non-zero" >&2
    failed=1
    continue
  fi
  strip <"$out/$name.raw" >"$out/$name.txt"
  if diff -u "$here/$name.txt" "$out/$name.txt" >"$out/$name.diff"; then
    echo "ok   $name"
  else
    echo "FAIL $name: stdout differs from tests/goldens/paper/$name.txt" >&2
    cat "$out/$name.diff" >&2
    failed=1
  fi
done
exit "$failed"
