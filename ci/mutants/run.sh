#!/usr/bin/env bash
# Mutation check. Each patch in this directory breaks the program on
# purpose; applied to a copy of the tree, it must make `cargo test -q` fail.
# The tests that caught each mutant are written to the step summary
# ($GITHUB_STEP_SUMMARY, else stdout). Exits non-zero if a mutant survives
# or a patch no longer applies.
#
#   ci/mutants/run.sh                 every ci/mutants/*.patch
#   ci/mutants/run.sh some.patch ...  just these
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
summary="${GITHUB_STEP_SUMMARY:-/dev/stdout}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
# One target directory for every copy: the dependencies build once.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$work/target}"
if [ "$#" -gt 0 ]; then patches=("$@"); else patches=("$root"/ci/mutants/*.patch); fi

failed=0
{
  echo "### Mutants"
  echo
  echo "| mutant | caught by |"
  echo "|---|---|"
} >> "$summary"
# One copy of the tracked files as they stand in the working tree, every
# file stamped with the current time (--touch), so the first build compiles
# the copy and not what a target directory kept from an earlier run. Each
# mutant is applied to it and reverted after its run: the revert stamps the
# touched files again, so the next build recompiles their crate. (A copy
# per mutant would not: its files keep their old mtimes, and a crate an
# earlier mutant broke is taken from the shared target directory, mutant
# and all.)
copy="$work/tree"
mkdir -p "$copy"
(cd "$root" && git ls-files -z | tar --null -T - -cf -) | tar --touch -xf - -C "$copy"
for patch in "${patches[@]}"; do
  name="$(basename "$patch" .patch)"
  if ! patch --quiet --dry-run --directory "$copy" -p1 < "$patch" > /dev/null; then
    echo "| \`$name\` | **patch does not apply** |" >> "$summary"
    failed=1
    continue
  fi
  patch --quiet --directory "$copy" -p1 < "$patch"
  status=0
  (cd "$copy" && cargo test -q --workspace --no-fail-fast) > "$work/$name.log" 2>&1 || status=$?
  patch --quiet --reverse --directory "$copy" -p1 < "$patch"
  if [ "$status" -eq 0 ]; then
    echo "| \`$name\` | **survived: every test passed** |" >> "$summary"
    failed=1
    continue
  fi
  caught="$(sed -n 's/^---- \(.*\) stdout ----$/\1/p' "$work/$name.log" | sort -u | sed 's/.*/`&`/' | paste -sd ' ' -)"
  if [ -z "$caught" ]; then
    # Failed without a failing test: a build error, not a kill.
    echo "| \`$name\` | **did not build**: $(grep -m1 '^error' "$work/$name.log" || true) |" >> "$summary"
    failed=1
    continue
  fi
  echo "| \`$name\` | $caught |" >> "$summary"
done
exit "$failed"
