#!/usr/bin/env bash
# ci.sh — the per-PR verification gate, runnable locally or in CI (the
# .github/workflows/ci.yml workflow invokes exactly this script):
#
#   scripts/ci.sh
#
# 1. gofmt -l                   (formatting)
# 2. go build ./...             (everything compiles, including examples)
# 3. go vet ./...               (static checks)
# 4. go test ./...              (tier-1: full test suite, goldens included;
#                                the root TestNoTestOnlyExports type-checks
#                                both modules and fails on an exported
#                                internal/ identifier only tests reach that
#                                testdata/test_only_exports.txt does not
#                                list, or on a stale entry there. It is
#                                built with !race, so step 6 skips it)
# 5. benchmark module tests     (cd benchmark && go test ./...: the nested
#                                module builds against internal/'s API and
#                                the root go test never sees it)
# 6. go test -race ./...        (every package under the race detector)
# 7. fuzz smoke                 (each of the nine fuzz targets for 5 s
#                                with -fuzz: the seed corpus already runs
#                                in step 4; this explores past it. A
#                                failing input lands in the package's
#                                testdata/fuzz/. The target list must name
#                                exactly the func Fuzz* under internal/,
#                                so a new fuzzer cannot be skipped and a
#                                deleted one cannot linger)
# 8. enclave bench smoke        (each BenchmarkMemoryAccess* once, so the
#                                memory-model micro-benchmarks keep
#                                compiling and running; timings are not
#                                checked)
# 9. bench-regression gate      (go run ./cmd/bench -check: runs the bench
#                                suites from the working tree and diffs
#                                their deterministic sim-metrics against
#                                scripts/bench_baseline.json; a failed
#                                suite invariant fails the gate too)
# 10. golden-drift gate         (regenerating every golden in a scratch
#                                copy must reproduce the committed files —
#                                catches stale goldens)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "ci: gofmt -l" >&2
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    echo "ci: gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

echo "ci: go build ./..." >&2
go build ./...

echo "ci: go vet ./..." >&2
go vet ./...

echo "ci: go test ./..." >&2
go test ./...

echo "ci: (cd benchmark && go test ./...)" >&2
(cd benchmark && go test ./...)

echo "ci: go test -race ./..." >&2
go test -race ./...

FUZZ_TARGETS=(
    internal/kvstore:FuzzDecodeWALRecord
    internal/kvstore:FuzzRecoverSnapshotChain
    internal/transfer:FuzzDecodeManifest
    internal/scbr:FuzzDecodeEvent
    internal/scbr:FuzzDecodeSubscription
    internal/microsvc:FuzzDecodeFrame
    internal/wire:FuzzDecodeBatch
    internal/mapreduce:FuzzDecodeShuffleRecord
    internal/image:FuzzDecodeLayer
)
echo "ci: fuzz target list matches the func Fuzz* under internal/" >&2
FUZZ_FOUND="$(grep -rHo --include='*_test.go' '^func Fuzz[A-Za-z0-9_]*' internal |
    sed -E 's#^(.*)/[^/]*:func (Fuzz.*)$#\1:\2#' | sort -u)"
if ! FUZZ_DIFF="$(diff <(printf '%s\n' "${FUZZ_TARGETS[@]}" | sort -u) <(printf '%s\n' "$FUZZ_FOUND"))"; then
    echo "ci: FUZZ_TARGETS is stale (< listed but missing, > defined but not listed):" >&2
    echo "$FUZZ_DIFF" >&2
    exit 1
fi

# One -fuzz run per target: go test fuzzes a single target at a time.
for target in "${FUZZ_TARGETS[@]}"; do
    pkg="./${target%%:*}" fn="${target#*:}"
    echo "ci: fuzz smoke $fn ($pkg, 5s)" >&2
    go test -run '^$' -fuzz "^${fn}\$" -fuzztime 5s "$pkg"
done

echo "ci: enclave bench smoke (BenchmarkMemoryAccess*, 1x)" >&2
go test -run '^$' -bench '^BenchmarkMemoryAccess' -benchtime 1x ./internal/enclave

echo "ci: bench-regression gate (go run ./cmd/bench -check)" >&2
go run ./cmd/bench -check

# Golden-drift gate: rerun every golden recorder with GOLDEN_UPDATE=1 in a
# scratch copy of the tree and require `git diff --exit-code` to stay
# silent on testdata — i.e. the committed goldens are exactly what the
# current code regenerates. The scratch copy commits the working tree
# first so the diff isolates what GOLDEN_UPDATE changed, not what the
# developer was editing.
echo "ci: golden-drift gate (GOLDEN_UPDATE=1 in scratch copy)" >&2
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT
cp -a "$PWD" "$SCRATCH/repo"
(
    cd "$SCRATCH/repo"
    git add -A >/dev/null 2>&1
    git -c user.email=ci@local -c user.name=ci commit -qm golden-gate-baseline --allow-empty --no-verify
    GOLDEN_UPDATE=1 go test -run 'Golden' ./internal/enclave ./internal/scbr ./internal/microsvc >/dev/null
    if ! git diff --exit-code -- '*testdata*'; then
        echo "ci: goldens are stale — regenerate with GOLDEN_UPDATE=1 and commit" >&2
        exit 1
    fi
)

echo "ci: OK" >&2
