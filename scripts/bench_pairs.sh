#!/usr/bin/env bash
# Alternating parent/change benchmark pairs, judged by medians.
#
#   scripts/bench_pairs.sh <parent-checkout> <change-checkout> <workload> [pairs=10]
#
# Builds both checkouts with the `command` of the change's BENCHMARK.json,
# then runs <pairs> pairs of untraced passes of <workload> (`run_seconds`
# each, seed = pair number on both sides), alternating which side goes
# first so host drift lands on both alike. Prints, per end-to-end metric
# of BENCHMARK.json: both medians, both inter-quartile ranges, the change
# of the median, how many pairs the change won / tied, the metric's bound,
# and every pair as parent/change in the order run. A side whose pass is
# incorrect or has a failed request is reported and makes the script
# exit 1.
#
# bash + POSIX awk only. The host is noisy (identical runs move 5-26 %):
# a claimed win is >= 9 of 10 pairs and a median shift beyond the parent's
# inter-quartile range, never two records.
set -euo pipefail

if [ "$#" -lt 3 ] || [ "$#" -gt 4 ]; then
    sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
spec="$change/BENCHMARK.json"

# `"command": ["cargo", "run", ...]` -> words; `"run_seconds": 20` -> 20.
read -r -a command < <(awk '/"command"/ {
    sub(/^[^[]*\[/, ""); sub(/\].*$/, ""); gsub(/[",]/, " "); print; exit }' "$spec")
seconds=$(awk -F: '/"run_seconds"/ { gsub(/[ ,]/, "", $2); print $2; exit }' "$spec")
# One line per end-to-end metric: name better bound.
metrics=$(awk '/"end_to_end"/ { on = 1; next } on && /\]/ { exit } on && /"name"/ {
    n = $0; sub(/.*"name": *"/, "", n); sub(/".*/, "", n)
    b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b)
    d = $0; sub(/.*"bound": */, "", d); sub(/[ }].*/, "", d)
    print n, b, d }' "$spec")
[ -n "${command[*]}" ] && [ -n "$seconds" ] && [ -n "$metrics" ] || {
    echo "could not read command / run_seconds / end_to_end from $spec" >&2
    exit 2
}

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# `cargo run <flags> --` -> `cargo build <flags>`.
build=()
for word in "${command[@]}"; do
    case $word in run) build+=(build) ;; --) ;; *) build+=("$word") ;; esac
done
for side in "$parent" "$change"; do
    echo "building $side" >&2
    (cd "$side" && "${build[@]}" >&2)
done

# One untraced pass; keeps the result object (the last stdout line).
pass() { # <checkout> <label> <pair>
    (cd "$1" && "${command[@]}" --workload "$workload" --seed "$3" \
        --seconds "$seconds" --trace 0) | tail -n 1 >"$out/$2.$3.json"
}

for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for who in $order; do
        echo "pair $i/$pairs: $who" >&2
        if [ "$who" = parent ]; then pass "$parent" parent "$i"; else pass "$change" change "$i"; fi
    done
done

bad=0
for f in "$out"/*.json; do
    if ! grep -q '"correct":true' "$f" || ! grep -q '"failed":0[,}]' "$f"; then
        echo "NOT CLEAN: $(basename "$f" .json): $(cut -c1-80 "$f")"
        bad=1
    fi
done

echo "workload $workload, $pairs alternating pairs of ${seconds}s passes"
echo "parent $parent"
echo "change $change"
printf '%-22s %12s %12s %8s %12s %12s %9s %6s\n' \
    metric "parent med" "change med" change "parent IQR" "change IQR" wins/ties bound
while read -r name better bound; do
    for ((i = 1; i <= pairs; i++)); do
        for who in parent change; do
            grep -o "\"$name\":{\"value\":[^,}]*" "$out/$who.$i.json" | sed 's/.*://' | tr '\n' ' '
        done
        echo
    done | awk -v name="$name" -v better="$better" -v bound="$bound" '
        function sort(a, n,    i, j, t) {
            for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
        }
        function pct(a, n, p,    r, lo, hi) {
            r = p * (n - 1); lo = int(r); hi = (r > lo) ? lo + 1 : lo
            return a[lo + 1] + (a[hi + 1] - a[lo + 1]) * (r - lo)
        }
        NF == 2 {
            n++; p[n] = $1; c[n] = $2; listed = listed sprintf(" %.7g/%.7g", $1, $2)
            if ($1 == $2) ties++
            else if ((better == "lower") == ($2 < $1)) wins++
        }
        END {
            if (!n) { printf "%-22s (not reported)\n", name; exit }
            sort(p, n); sort(c, n)
            pm = pct(p, n, 0.5); cm = pct(c, n, 0.5)
            printf "%-22s %12.7g %12.7g %+7.1f%% %12.4g %12.4g %6d/%-2d %5.0f%%\n", name, pm, cm,
                (pm ? 100 * (cm - pm) / pm : 0), pct(p, n, 0.75) - pct(p, n, 0.25),
                pct(c, n, 0.75) - pct(c, n, 0.25), wins, ties, 100 * bound
            printf "    pairs:%s\n", listed
        }'
done <<<"$metrics"
exit "$bad"
