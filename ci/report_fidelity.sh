#!/usr/bin/env bash
# Report-fidelity gate. Knobs that only trade speed (delta timing,
# collapsing, lane widths, dormant adaptive knobs) must never change a
# report, so each pair below runs one experiment under two knob settings
# and compares the stdout reports byte for byte.
#
# Usage: ci/report_fidelity.sh SPEC...
#
#   'fig10|FLAGS_A|FLAGS_B'  `repro fig10 --tiny` under two sets of flags
#   'cfg|LINES_A|LINES_B'    every configs/*.cfg at tiny scale, with two
#                            sets of extra config lines (`;`-separated)
#   'footer|TARGET'          every configs/*.cfg at tiny scale, run with
#                            `--ci-target TARGET`, prints the adaptive footer
#
# A run that appears in several pairs is made once. Set REPRO to use
# another binary (default ./target/release/repro). Exits 1 if any pair
# differs or any footer is missing.
set -euo pipefail

repro=${REPRO:-./target/release/repro}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
status=0

key() { printf '%s' "$1" | cksum | cut -d' ' -f1; }

# report NAME CMD... — runs CMD once per distinct NAME; prints the path
# of its stdout report. A failing run fails the caller's assignment, which
# stops the script.
report() {
    local name=$1 out
    out="$work/$(key "$name").txt"
    shift
    if [ ! -f "$out" ] && ! "$@" >"$out" 2>"$out.err"; then
        echo "FAIL  $name: the run failed" >&2
        cat "$out.err" >&2
        rm -f "$out"
        return 1
    fi
    echo "$out"
}

fig10() {
    # shellcheck disable=SC2086 # the flags are meant to split
    report "fig10 $1" "$repro" fig10 --tiny $1
}

# tiny_cfg CFG LINES — CFG at tiny scale with LINES appended; prints its path.
tiny_cfg() {
    local path
    path="$work/$(key "$1|$2").cfg"
    {
        cat "$1"
        echo "scale = tiny"
        echo "percent_sampled_cycles_delay = 0.5"
        [ -z "$2" ] || tr ';' '\n' <<<"$2"
    } >"$path"
    echo "$path"
}

cfg_report() {
    report "cfg $1 $2" "$repro" --config "$(tiny_cfg "$1" "$2")"
}

same() {
    if cmp -s "$1" "$2"; then
        echo "ok    $3"
    else
        echo "FAIL  $3: reports differ"
        status=1
    fi
}

for spec in "$@"; do
    IFS='|' read -r kind a b <<<"$spec"
    case $kind in
    fig10)
        ra=$(fig10 "$a")
        rb=$(fig10 "$b")
        same "$ra" "$rb" "fig10 --tiny [$a] vs [$b]"
        ;;
    cfg)
        for cfg in configs/*.cfg; do
            ra=$(cfg_report "$cfg" "$a")
            rb=$(cfg_report "$cfg" "$b")
            same "$ra" "$rb" "$cfg [$a] vs [$b]"
        done
        ;;
    footer)
        for cfg in configs/*.cfg; do
            tiny=$(tiny_cfg "$cfg" "")
            out=$(report "footer $cfg $a" "$repro" --config "$tiny" --ci-target "$a")
            if grep -q "adaptive: ci_target=$a" "$out"; then
                echo "ok    $cfg --ci-target $a prints its footer"
            else
                echo "FAIL  $cfg --ci-target $a: no adaptive footer"
                status=1
            fi
        done
        ;;
    *)
        echo "unknown spec \`$spec\`" >&2
        exit 2
        ;;
    esac
done
exit $status
