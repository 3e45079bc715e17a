#!/bin/sh
# Non-test lines of the workspace: for every crates/*/src/**/*.rs, the lines
# before the first `#[cfg(test)]` (the whole file when it has none). This is
# the number the simplicity PRs report in CHANGES.md. Prints one total per
# crate, the grand total, and the ten largest files.
#
#   ci/nontest-lines.sh          the working tree
#   ci/nontest-lines.sh <rev>    also the totals at git revision <rev>, the
#                                per-crate delta (working tree minus <rev>)
#                                and the delta of every file whose count
#                                changed (a file absent on one side counts 0)
set -eu
cd "$(dirname "$0")/.."

# count <root>: one `file N path`, `crate N path` and `total N` line per
# source file, crate and tree under <root>/crates, paths relative to <root>
count() {
    (cd "$1" && find crates -path '*/src/*' -name '*.rs' | sort | xargs awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests { per_file[FILENAME]++ }
        END {
            for (f in per_file) {
                split(f, parts, "/")
                per_crate["crates/" parts[2] "/src"] += per_file[f]
                total += per_file[f]
                printf "file %6d %s\n", per_file[f], f
            }
            for (c in per_crate) printf "crate %6d %s\n", per_crate[c], c
            printf "total %6d crates/*/src\n", total
        }
    ')
}

now=$(count .)
echo "$now" | sort -k1,1 -k2,2nr | awk '
    $1 == "crate" { crates[++nc] = $0 }
    $1 == "total" { total = $0 }
    $1 == "file" && ++nf <= 10 { files[nf] = $0 }
    END {
        print "non-test lines per crate (up to the first #[cfg(test)] of each file):"
        for (i = 1; i <= nc; i++) print "  " substr(crates[i], 7)
        print "  " substr(total, 7)
        print "ten largest files:"
        for (i = 1; i <= nf && i <= 10; i++) print "  " substr(files[i], 6)
    }
'

[ $# -eq 0 ] && exit 0
rev=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$rev" crates | tar -x -C "$tmp"
then=$(count "$tmp")
printf '%s\n' "$then" | sed 's/^/then /' >"$tmp/counts"
printf '%s\n' "$now" | sed 's/^/now /' >>"$tmp/counts"
awk -v rev="$rev" '
    $2 == "crate" { crates[$4] = 1 }
    $2 == "file" { files[$4] = 1 }
    { n[$1, $4] = $3 }
    END {
        t = "crates/*/src"
        printf "at %s:\n", rev
        for (c in crates) printf "  %6d %s\n", n["then", c], c | "sort -k2"
        close("sort -k2")
        printf "  %6d %s\n", n["then", t], t
        print "delta (working tree minus " rev "):"
        for (c in crates) printf "  %+6d %s\n", n["now", c] - n["then", c], c | "sort -k2"
        close("sort -k2")
        printf "  %+6d %s\n", n["now", t] - n["then", t], t
        print "changed files (working tree minus " rev "):"
        for (f in files) {
            d = n["now", f] - n["then", f]
            if (d != 0) printf "  %+6d %s\n", d, f | "sort -k2"
        }
        close("sort -k2")
    }
' "$tmp/counts"
