#!/usr/bin/env bash
# mutants.sh — the committed mutant gate: every hand mutation under
# scripts/mutants/ must still apply and must be killed by the test its
# header names.
#
#   scripts/mutants.sh
#
# Each scripts/mutants/*.patch is a git diff against the tree, preceded by
# comment lines that say what the mutation breaks and name the test that
# must catch it:
#
#   # kills: ./internal/eventbus TestSequenceReplayRejected
#
# In one cp -a scratch copy of the tree, each patch in turn is checked to
# name an existing test, applied with git apply, built, run as
# go test -run '^Name$' <pkg>, and reverted. A mutant is killed when that
# test fails. The script prints killed/total and exits non-zero when a
# mutant survives, no longer applies, breaks the build, or names no test.
set -euo pipefail
cd "$(dirname "$0")/.."

SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT
cp -a "$PWD" "$SCRATCH/repo"
cd "$SCRATCH/repo"

total=0
killed=0
for patch in scripts/mutants/*.patch; do
    name="$(basename "$patch" .patch)"
    total=$((total + 1))
    pkg="" test=""
    read -r pkg test < <(sed -n 's/^# kills: //p' "$patch") || true
    if [ -z "$test" ]; then
        echo "mutants: $name: no '# kills: <pkg> <Test>' header" >&2
        continue
    fi
    if ! go test -list "^${test}\$" "$pkg" 2>/dev/null | grep -x "$test" >/dev/null; then
        echo "mutants: $name: $pkg has no test $test" >&2
        continue
    fi
    if ! git apply "$patch"; then
        echo "mutants: $name: no longer applies" >&2
        continue
    fi
    if ! go test -count=1 -run '^$' "$pkg" >/dev/null 2>&1; then
        echo "mutants: $name: mutant does not build" >&2
    elif go test -count=1 -run "^${test}\$" "$pkg" >/dev/null 2>&1; then
        echo "mutants: $name: SURVIVED $pkg $test" >&2
    else
        killed=$((killed + 1))
        echo "mutants: $name: killed by $test" >&2
    fi
    git apply -R "$patch"
done

echo "mutants: $killed/$total killed"
[ "$total" -gt 0 ] && [ "$killed" -eq "$total" ]
