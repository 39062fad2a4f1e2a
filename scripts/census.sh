#!/usr/bin/env bash
# Coverage census: which non-test functions does no workload run?
#
# Builds cmd/pata, cmd/patad, cmd/patabench, cmd/oscorpusgen and the six
# examples with coverage on every package of the module, drives them all
# under GOMAXPROCS=2 (the four bench/ workloads, patabench -exp all, CLI flag
# runs on the five generated corpora, one patad -stdio session), merges the
# profiles with `go tool covdata func`, and fails when
#
#   - a non-test function outside bench/ never ran and is not on
#     scripts/census_allow.txt, or
#   - an allow-list entry ran, or names a function that no longer exists.
#
# Run from anywhere in a checkout:
#
#   bash scripts/census.sh
#
# Build outputs and profiles go to a temporary directory that is removed on
# exit; the bench/ workloads leave their usual files under .bench_build/.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
allow=$root/scripts/census_allow.txt

work=$(mktemp -d "${TMPDIR:-/tmp}/census.XXXXXX")
trap 'rm -rf "$work"' EXIT
bin=$work/bin cov=$work/cov corpora=$work/corpora
mkdir -p "$bin" "$cov" "$corpora"
export GOMAXPROCS=2 GOFLAGS=

step() { printf 'census: %s\n' "$*" >&2; }

step "building instrumented commands and examples"
go build -cover -coverpkg=./... -o "$bin/" \
	./cmd/pata ./cmd/patad ./cmd/patabench ./cmd/oscorpusgen ./examples/...

# covered runs a built binary with coverage collection on.
covered() { GOCOVERDIR=$cov "$@"; }

# pata runs the analyzer; exit 3 (bugs found) counts as success.
pata() {
	local rc=0
	covered "$bin/pata" "$@" >/dev/null 2>"$work/pata.err" || rc=$?
	if [ "$rc" -ne 0 ] && [ "$rc" -ne 3 ]; then
		cat "$work/pata.err" >&2
		step "pata $* exited $rc"
		return 1
	fi
}

step "bench/ workloads (1 s each, untraced)"
(cd bench && go build -o "$bin/bench" .)
for w in scan-linux scan-helper scan-validate serve-edit; do
	# The bench builds cmd/pata and cmd/patad itself; GOFLAGS makes that
	# build instrumented, and GOCOVERDIR reaches the children it starts.
	if ! (cd bench && GOFLAGS='-cover -coverpkg=repro/...' GOCOVERDIR=$cov \
		"$bin/bench" -workload "$w" -seed 1 -seconds 1 -trace 0 >"$work/bench.out"); then
		cat "$work/bench.out" >&2
		step "bench -workload $w failed"
		exit 1
	fi
done

step "patabench -exp all"
covered "$bin/patabench" -exp all >/dev/null

step "examples"
for ex in apirules corpusscan extracheckers linuxmcde quickstart zephyrbt; do
	covered "$bin/$ex" >/dev/null
done

step "CLI flag runs on the generated corpora"
for os in linux zephyr riot tencent helper-heavy; do
	covered "$bin/oscorpusgen" -os "$os" -out "$corpora/$os" -truth
	pata -dir "$corpora/$os" -stats -witness
	pata -dir "$corpora/$os" -json -workers 1
done
c=$corpora/linux
pata -dir "$c" -no-alias
pata -dir "$c" -no-validate
pata -dir "$c" -max-conts -1 -unroll 2
pata -dir "$c" -checkers all -entry-timeout 30s -run-timeout 60s -max-retries -1
pata -dir "$c" -cache-dir "$work/cache" -stats
pata -dir "$c" -cache-dir "$work/cache" -json
pata -dir "$c" -cpuprofile "$work/cpu.prof" -memprofile "$work/mem.prof" \
	-blockprofile "$work/block.prof" -mutexprofile "$work/mutex.prof"
pata "$c"/drivers/*.c

# The generated corpora seed no AIU or DBZ bug, so the extension checkers'
# candidates reach the capsule cache only through a file of their own.
mkdir -p "$work/ext"
cat >"$work/ext/ext.c" <<'EOF'
static int ring_get(int *ring, int head) {
	if (head < 0)
		return ring[head];
	return 0;
}

static int rate_calc(int total, int period) {
	if (period == 0)
		return total / period;
	return 0;
}
EOF
pata -dir "$work/ext" -checkers all -cache-dir "$work/extcache"
pata -dir "$work/ext" -checkers all -cache-dir "$work/extcache" -witness

step "patad -stdio session"
covered "$bin/patad" -stdio -dir "$c" -cache-dir "$work/dcache" >"$work/patad.out" <<'EOF'
{"op":"status","id":"1"}
{"op":"analyze","id":"2","witness":true}
{"op":"invalidate","id":"3","sources":{"census_edit.c":"int census_edit(int *p) {\n  if (!p)\n    return *p;\n  return 0;\n}\n"}}
{"op":"analyze","id":"4"}
{"op":"shutdown","id":"5"}
EOF
if grep -q '"ok":false' "$work/patad.out"; then
	cat "$work/patad.out" >&2
	step "a patad request failed"
	exit 1
fi

step "merging profiles"
# One "file name" key per function: the module prefix and the line number
# are dropped, so that the allow-list survives edits elsewhere in a file.
go tool covdata func -i="$cov" |
	awk -F'\t+' '$1 ~ /^repro\// && $1 !~ /^repro\/bench\// {
		file = $1; sub(/^repro\//, "", file); sub(/:[0-9]+:$/, "", file)
		print file " " $2 "\t" $3
	}' >"$work/funcs"
total=$(wc -l <"$work/funcs")
go tool covdata textfmt -i="$cov" -o "$work/profile"
grep -v '^repro/bench/' "$work/profile" >"$work/profile.repro"
stmts=$(go tool cover -func="$work/profile.repro" | awk '$1 == "total:" { print $NF }')
awk -F'\t' '$2 == "0.0%" { print $1 }' "$work/funcs" | sort -u >"$work/unrun"
awk -F'\t' '{ print $1 }' "$work/funcs" | sort -u >"$work/all"
awk '!/^(#|$)/ { print $1 " " $2 }' "$allow" | sort -u >"$work/allowed"

fail=0
report() {
	local what=$1 file=$2
	if [ -s "$file" ]; then
		printf 'census: %s:\n' "$what" >&2
		sed 's/^/  /' "$file" >&2
		fail=1
	fi
}
comm -23 "$work/unrun" "$work/allowed" >"$work/new"
comm -23 "$work/allowed" "$work/all" >"$work/gone"
comm -23 "$work/allowed" "$work/gone" | comm -23 - "$work/unrun" >"$work/ran"
report "functions no workload runs (delete them, or allow-list them with a kind and a pinning test)" "$work/new"
report "allow-listed functions that ran (take them off the allow-list)" "$work/ran"
report "allow-listed functions that no longer exist" "$work/gone"
printf 'census: %d functions, %d unexecuted, %d allow-listed; %s of statements ran\n' \
	"$total" "$(wc -l <"$work/unrun")" "$(wc -l <"$work/allowed")" "$stmts" >&2
exit $fail
