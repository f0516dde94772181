#!/bin/sh
# check.sh — the repository's CI gate, runnable locally.
#
# Runs, in order: formatting check, vet, build, the full test suite, a
# race-detector pass over the packages that exercise the whole stack at
# once, the hot-path allocation gates (encode/decode, cache, CAM, unicast
# transit must stay at 0 allocs/op), an experiment-registry completeness
# leg (a small-trial pass of every experiment, diffed against the arpbench
# -list catalogue), a byte-exact evaluation gate (the recorded-trial-count
# evaluation diffed against evaluation_output.txt), and short fuzz passes
# over the scheme registry's parsers and the two capture readers (pcap and
# NDJSON). Any failure stops the run with a non-zero exit.
#
#   ./scripts/check.sh          # the full gate
#   make check                  # same, via the Makefile
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race ./internal/eval ./internal/integration ./internal/faults ./internal/schemes/registry ./internal/telemetry/causal ./internal/ops ./internal/trace ./internal/replay ./internal/sim ./internal/labnet ./internal/scenario"
# internal/replay under -race covers the golden MITM replay at shard widths
# 1/2/8 — the byte-identical-at-any-width determinism contract — with the
# sharded reader/worker/merger pipeline actually racing. internal/sim,
# internal/labnet, and internal/scenario put the sharded campus engine's
# worker pool under the detector the same way: figure9, figure10 (the
# faulted per-deployment sweep), the campus MITM scenario, and the
# faulted+stacked campus scenario all assert byte-identical output at
# shard widths 1/2/8, with trunk partitions and router flushes armed
# across shard boundaries.
go test -race ./internal/eval ./internal/integration ./internal/faults ./internal/schemes/registry ./internal/telemetry/causal ./internal/ops ./internal/trace ./internal/replay ./internal/sim ./internal/labnet ./internal/scenario

echo "==> bench smoke (sequential vs parallel Table 3, 1 iteration)"
go test -run '^$' -bench 'BenchmarkTable3(Sequential|Parallel)$' -benchtime=1x .

echo "==> tracing-disabled hot path stays allocation-free (scheduler steady state)"
steady=$(go test -run '^$' -bench 'BenchmarkSchedulerSteadyState$' -benchmem -benchtime=100000x .)
echo "$steady"
allocs=$(echo "$steady" | awk '/^BenchmarkSchedulerSteadyState/ {
	for (i = 1; i <= NF; i++) if ($i == "allocs/op") print $(i - 1)
}')
if [ "$allocs" != "0" ]; then
	echo "scheduler steady state allocates with tracing disabled: ${allocs:-?} allocs/op" >&2
	exit 1
fi

echo "==> frame hot path allocation gates (encode/decode, cache, CAM, unicast transit, replay steady state, campus bytes/host)"
go test -run 'AllocFree$' -count=1 -v \
	./internal/frame ./internal/arppkt ./internal/stack ./internal/netsim ./internal/replay ./internal/labnet |
	grep -E '^(--- |ok|FAIL)' || { echo "allocation gates failed" >&2; exit 1; }

echo "==> experiment registry completeness (-list vs a -trials 1 pass of every experiment)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go build -o "$tmpdir/arpbench" ./cmd/arpbench
"$tmpdir/arpbench" -list |
	awk '$1 ~ /^(table|figure)[0-9]/ { print $1 }' | sort >"$tmpdir/listed"
"$tmpdir/arpbench" -trials 1 -cache >"$tmpdir/full.txt"
grep -E '^(Table|Figure) [0-9]+b?:' "$tmpdir/full.txt" |
	awk '{ id = tolower($1) $2; sub(/:$/, "", id); print id }' | sort >"$tmpdir/rendered"
if ! diff -u "$tmpdir/listed" "$tmpdir/rendered"; then
	echo "arpbench -list catalogue and rendered artifacts disagree" >&2
	exit 1
fi

echo "==> evaluation byte-exact vs evaluation_output.txt (-trials 10, host-timed lines masked)"
# Table 4's s-arp/tarp rows and CPU note are wall-clock ECDSA timings, and
# Figure 3's s-arp/tarp series move by a byte with the DER signature length
# (crypto/rand); everything else must regenerate byte for byte.
mask() {
	awk '
		/^Table 4:/ { t4 = 1 }
		/^Figure 3:/ { f3 = 1 }
		/^$/ { t4 = 0; f3 = 0; series = 0 }
		t4 && ($1 == "tarp" || $1 == "s-arp") { print $1 " <host-timed>"; next }
		t4 && /^note: CPU figures measured/ { print "note: CPU figures <host-timed>"; next }
		f3 && /^-- series / { series = ($3 == "s-arp" || $3 == "tarp"); print; next }
		f3 && series { print $1 " <signature-length>"; next }
		{ print }
	' "$1"
}
"$tmpdir/arpbench" -trials 10 -cache >"$tmpdir/eval.txt"
mask evaluation_output.txt >"$tmpdir/want.txt"
mask "$tmpdir/eval.txt" >"$tmpdir/got.txt"
if ! diff -u "$tmpdir/want.txt" "$tmpdir/got.txt"; then
	echo "evaluation output drifted from evaluation_output.txt" >&2
	exit 1
fi

echo "==> fuzz scheme registry parsers (FuzzStack, 10s)"
go test -run '^$' -fuzz '^FuzzStack$' -fuzztime=10s ./internal/schemes/registry

echo "==> fuzz capture readers (FuzzParseNDJSONLine, FuzzPCAPReader, 10s each)"
go test -run '^$' -fuzz '^FuzzParseNDJSONLine$' -fuzztime=10s ./internal/trace
go test -run '^$' -fuzz '^FuzzPCAPReader$' -fuzztime=10s ./internal/trace

echo "==> all checks passed"
