#!/usr/bin/env bash
# Replays the planted-bug corpus against the committed tree.
#
# Each tests/mutants/*.patch plants one bug in the tree at HEAD.
# Its header names the oracle that must catch it, on a line
#
#   # oracle: <shell command run from the repository root>
#
# The script applies every patch to HEAD in a git worktree of its own
# and runs the patch's oracle there. It fails if an oracle passes on its
# mutant (the bug went unnoticed) or if a patch no longer applies (the
# code it breaks has moved: rewrite the patch against the new tree).
#
# Usage: tests/mutants/run.sh [PATCH...]    (default: the whole corpus)
#
# Worktrees live in a temporary directory that is removed on exit. The
# oracles build into $CARGO_TARGET_DIR, by default target/mutants at the
# repository root; an oracle's output is kept in target/mutants/logs.
set -uo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root" || exit 2
if [ $# -gt 0 ]; then
    patches=("$@")
else
    patches=(tests/mutants/*.patch)
fi
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$root/target/mutants}
logs=$root/target/mutants/logs
mkdir -p "$logs"
work=$(mktemp -d)
trap 'rm -rf "$work"; git worktree prune' EXIT

status=0
for patch in "${patches[@]}"; do
    patch=$(realpath "$patch")
    name=$(basename "$patch" .patch)
    oracle=$(sed -n 's/^# oracle: //p' "$patch" | head -n 1)
    if [ -z "$oracle" ]; then
        echo "FAIL    $name: no '# oracle:' line"
        status=1
        continue
    fi
    tree=$work/$name
    git worktree add --quiet --detach "$tree" HEAD || exit 2
    if ! git -C "$tree" apply "$patch" 2>"$logs/$name.log"; then
        echo "FAIL    $name: does not apply to HEAD"
        status=1
    elif (cd "$tree" && bash -c "$oracle") >"$logs/$name.log" 2>&1; then
        echo "FAIL    $name: survived \`$oracle\`"
        status=1
    else
        echo "caught  $name by \`$oracle\`"
    fi
    git worktree remove --force "$tree"
done
exit $status
