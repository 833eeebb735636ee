#!/bin/sh
# asym-smoke: end-to-end check of the asymmetric read/write latency model.
#
# Runs the two asymmetric-model sweeps through quartzbench at quick scale and
# asserts the calibrated profiles actually diverge: Optane's W/R ratio below
# 1 (ADR-buffered stores beat its reads), PCM's above 1 (the classic write
# penalty), and the -nvm-write override reflected in the rendered table.
# Also exercises the CLI validation contract (bad values exit 2 before any
# experiment runs) and a quartzrun workload under an NVM profile. No fixed
# ports, no tools beyond the repo's own binaries.
set -eu

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT INT TERM

echo "asym-smoke: building quartzbench and quartzrun"
go build -o "$workdir/quartzbench" ./cmd/quartzbench
go build -o "$workdir/quartzrun" ./cmd/quartzrun

echo "asym-smoke: fig12-asym + fig11-asym at quick scale"
"$workdir/quartzbench" -exp fig12-asym,fig11-asym -scale quick \
    >"$workdir/asym.log" 2>"$workdir/asym.err" || {
    echo "asym-smoke: asymmetric sweeps failed" >&2
    cat "$workdir/asym.err" >&2
    exit 1
}

for profile in optane-dcpmm pcm; do
    if ! grep -q "$profile" "$workdir/asym.log"; then
        echo "asym-smoke: tables missing profile $profile" >&2
        cat "$workdir/asym.log" >&2
        exit 1
    fi
done

# The divergence claim itself: every Optane W/R (last column of the
# fig12-asym table) must be < 1, every PCM W/R > 1.
awk '
    /^== fig12-asym/ { in12 = 1 }
    /^\(fig12-asym/  { in12 = 0 }
    in12 && /optane-dcpmm/ && $NF >= 1 { print "optane W/R " $NF " not < 1"; bad = 1 }
    in12 && / pcm /         && $NF <= 1 { print "pcm W/R " $NF " not > 1"; bad = 1 }
    END { exit bad }
' "$workdir/asym.log" || {
    echo "asym-smoke: fig12-asym read/write asymmetry did not diverge" >&2
    cat "$workdir/asym.log" >&2
    exit 1
}

# Bandwidth collapse: Optane's 8-writer point must sit below its 4-writer
# peak in the fig11-asym table (columns: Profile Writers Agg ...).
awk '
    /^== fig11-asym/ { in11 = 1 }
    /^\(fig11-asym/  { in11 = 0 }
    in11 && $1 == "optane-dcpmm" && $2 == 4 { peak = $3 }
    in11 && $1 == "optane-dcpmm" && $2 == 8 { last = $3 }
    END { exit !(peak > 0 && last > 0 && last < peak) }
' "$workdir/asym.log" || {
    echo "asym-smoke: fig11-asym shows no write-bandwidth collapse past the peak" >&2
    cat "$workdir/asym.log" >&2
    exit 1
}
echo "asym-smoke: profiles diverge (W/R both directions, Optane collapse)"

echo "asym-smoke: -nvm-write override"
"$workdir/quartzbench" -exp fig12-asym -scale quick \
    -nvm-profile pcm -nvm-write 900 >"$workdir/override.log" 2>&1 || {
    echo "asym-smoke: override run failed" >&2
    cat "$workdir/override.log" >&2
    exit 1
}
if ! grep -q "900.0" "$workdir/override.log"; then
    echo "asym-smoke: -nvm-write 900 not reflected in the table" >&2
    cat "$workdir/override.log" >&2
    exit 1
fi
if grep -q "optane-dcpmm" "$workdir/override.log"; then
    echo "asym-smoke: -nvm-profile pcm did not narrow the sweep" >&2
    exit 1
fi

echo "asym-smoke: CLI validation (bad values exit 2)"
for args in "-nvm-write -5" "-nvm-profile xpoint"; do
    set +e
    # shellcheck disable=SC2086
    "$workdir/quartzbench" -exp fig12-asym $args >/dev/null 2>&1
    code=$?
    set -e
    if [ "$code" -ne 2 ]; then
        echo "asym-smoke: quartzbench $args exited $code, want 2" >&2
        exit 1
    fi
done
set +e
"$workdir/quartzrun" -nvm-write -1 >/dev/null 2>&1
code=$?
set -e
if [ "$code" -ne 2 ]; then
    echo "asym-smoke: quartzrun -nvm-write -1 exited $code, want 2" >&2
    exit 1
fi

echo "asym-smoke: quartzrun under -nvm-profile pcm"
"$workdir/quartzrun" -workload memlat -nvm-profile pcm \
    -iters 5000 -lines 32768 -min-epoch 0.05 -max-epoch 1 \
    >"$workdir/run.log" 2>&1 || {
    echo "asym-smoke: quartzrun failed" >&2
    cat "$workdir/run.log" >&2
    exit 1
}
if ! grep -q "^store model: " "$workdir/run.log"; then
    echo "asym-smoke: quartzrun did not report store-model stats" >&2
    cat "$workdir/run.log" >&2
    exit 1
fi
echo "asym-smoke: OK"
