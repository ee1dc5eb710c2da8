#!/usr/bin/env bash
# Added and removed non-blank lines between two revisions, in four groups.
#
#   scripts/loc.sh BASE [HEAD]
#
# With HEAD omitted, BASE is compared with the working tree, untracked
# (not ignored) files included. The groups:
#
#   program     .rs files under crates/*/src and src/, from the top of the
#               file to its first `#[cfg(test)]` line
#   tests       the rest of those files, plus tests/, crates/*/tests,
#               crates/*/benches and examples/
#   scripts/CI  scripts/, .github/, campaign_bench/, manifests and lock
#               files: every file in no other group
#   docs        every other .md file
#
# A line counts as changed the way `diff` pairs the two versions of each
# part, so a moved line counts once removed and once added.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

base=${1:?usage: scripts/loc.sh BASE [HEAD]}
head=${2:-}

changed_files() {
    if [ -n "$head" ]; then
        git diff --name-only "$base" "$head"
    else
        git diff --name-only "$base"
        git ls-files --others --exclude-standard
    fi | sort -u
}

# The file at a revision ("" for the working tree); nothing if absent.
content() {
    if [ -z "$1" ]; then
        cat -- "$2" 2>/dev/null || true
    else
        git show "$1:$2" 2>/dev/null || true
    fi
}

# Keeps the lines before (part = program) or from (part = tests) the
# first `#[cfg(test)]` line.
split() {
    awk -v part="$1" '
        /^[[:space:]]*#\[cfg\(test\)\]/ { seen = 1 }
        (part == "program") != seen { print }'
}

# Prints "added removed" non-blank lines between two texts.
count() {
    diff --text <(printf '%s' "$1") <(printf '%s' "$2") |
        awk '/^>.*[^[:space:]]/ { a++ } /^<.*[^[:space:]]/ { r++ }
             END { print a + 0, r + 0 }' || true
}

declare -A added removed
for g in program tests scripts/CI docs; do
    added[$g]=0
    removed[$g]=0
done

tally() {
    local group=$1 old=$2 new=$3 a r
    read -r a r < <(count "$old" "$new")
    added[$group]=$((added[$group] + a))
    removed[$group]=$((removed[$group] + r))
}

while IFS= read -r path; do
    [ -n "$path" ] || continue
    old=$(content "$base" "$path")
    new=$(content "$head" "$path")
    case "$path" in
        crates/*/src/*.rs | src/*.rs)
            tally program "$(split program <<<"$old")" "$(split program <<<"$new")"
            tally tests "$(split tests <<<"$old")" "$(split tests <<<"$new")"
            ;;
        tests/* | crates/*/tests/* | crates/*/benches/* | examples/*)
            tally tests "$old" "$new"
            ;;
        scripts/* | .github/* | campaign_bench/*)
            tally scripts/CI "$old" "$new"
            ;;
        *.md)
            tally docs "$old" "$new"
            ;;
        *)
            tally scripts/CI "$old" "$new"
            ;;
    esac
done < <(changed_files)

printf '%-11s %8s %8s\n' group added removed
for g in program tests scripts/CI docs; do
    printf '%-11s %8s %8s\n' "$g" "+${added[$g]}" "-${removed[$g]}"
done
