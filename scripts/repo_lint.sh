#!/usr/bin/env sh
# Repository lint: invariants that are about the *tree*, not the code.
#
# 1. Every checked-in bench baseline (BENCH_*.json at the repo root) must
#    carry the `"forced_baseline": true` provenance marker that
#    `privacy_bench::write_report` stamps into a baseline recorded with
#    `--force-baseline` — a baseline that lacks it was hand-edited or
#    written by some path that bypassed the deliberate re-record flag.
# 2. Every checked-in baseline must be a full run (`"quick": false`): the
#    regression floors CI enforces are only meaningful against full-scale
#    numbers, never against a --quick smoke accidentally promoted.
# 3. CI scratch reports (*_ci.json) must not be committed: their names are
#    exactly what the bench smokes write on every run, so a committed copy
#    would be silently clobbered and diff-spammed forever.
# 4. Every checked-in baseline must parse as JSON (python3 json.load): a
#    truncated or hand-mangled report would otherwise only surface when the
#    delta tooling reads it.
# 5. Snapshot-format bumps must ship their compatibility test: when
#    SNAPSHOT_VERSION is N, some test in crates/runtime must name
#    `snapshot_v{N-1}` — the grep-level guarantee that bumping the version
#    without pinning the old decode path fails CI. A snapshot outlives its
#    run inside the pipeline's checkpoint file; a fleet worker's checkpoint
#    does not (a fleet launch refuses a directory holding one), so its
#    frame version has no such guard.
#
# Run from anywhere; exits non-zero with one line per violation.

set -u
root="$(cd "$(dirname "$0")/.." && pwd)"
status=0

for file in "$root"/BENCH_*.json; do
    [ -e "$file" ] || continue
    name="$(basename "$file")"
    case "$name" in
    *_ci.json)
        echo "repo-lint: $name is a CI scratch report and must not be committed" >&2
        status=1
        continue
        ;;
    esac
    if ! grep -q '"forced_baseline": true' "$file"; then
        echo "repo-lint: $name lacks the \"forced_baseline\" provenance marker — re-record it \
with --force-baseline instead of editing or copying it" >&2
        status=1
    fi
    if ! grep -q '"quick": false' "$file"; then
        echo "repo-lint: $name is not a full run (\"quick\": false) — baselines must be recorded \
without --quick" >&2
        status=1
    fi
done

for file in "$root"/CHAOS_*.json; do
    [ -e "$file" ] || continue
    echo "repo-lint: $(basename "$file") is a CI scratch report and must not be committed" >&2
    status=1
done

# 4. Baselines must parse as JSON.
if command -v python3 >/dev/null 2>&1; then
    for file in "$root"/BENCH_*.json; do
        [ -e "$file" ] || continue
        if ! python3 -c "import json, sys; json.load(open(sys.argv[1]))" "$file" \
            >/dev/null 2>&1; then
            echo "repo-lint: $(basename "$file") is not valid JSON" >&2
            status=1
        fi
    done
else
    echo "repo-lint: warning: python3 unavailable, skipping baseline JSON validation" >&2
fi

# 5. Snapshot-format bumps must ship their compatibility test.
check_version_compat() {
    # $1 constant name, $2 file defining it, $3 test-name prefix,
    # $4 directory the compatibility test must live under.
    constant="$1" source="$2" prefix="$3" dir="$4"
    version="$(sed -n "s/^pub const $constant: u32 = \([0-9][0-9]*\);.*/\1/p" "$root/$source")"
    if [ -z "$version" ]; then
        echo "repo-lint: cannot extract $constant from $source — the version-compat guard \
needs the 'pub const $constant: u32 = N;' form" >&2
        status=1
        return
    fi
    [ "$version" -le 1 ] && return
    prev=$((version - 1))
    if ! grep -rq "${prefix}${prev}" "$root/$dir"; then
        echo "repo-lint: $constant is $version but no test under $dir names \
'${prefix}${prev}' — a version bump must keep a compatibility test proving \
version $prev still decodes" >&2
        status=1
    fi
}
check_version_compat SNAPSHOT_VERSION crates/runtime/src/snapshot.rs snapshot_v crates/runtime

[ "$status" -eq 0 ] && echo "repo-lint: ok"
exit "$status"
