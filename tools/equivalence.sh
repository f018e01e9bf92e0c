#!/usr/bin/env bash
# Equivalence harness: run one command matrix (run, campaign with
# checkpoint and resume, ssta --tuned, tune --simulate and a reversed
# replay, serve with one --connect client) on two builds and diff every
# stdout, stderr, exit code, BENCH/checkpoint JSON and response log, with
# the timing fields masked. BUILDING.md lists the matrix and the masks.
#
#   tools/equivalence.sh <parent-build> <change-build>
#
# Each argument is a CMake build directory holding tools/effitest_cli.
# Exit status: 0 no diff, 1 diff (printed as unified diffs), 2 usage.

set -u -o pipefail

if [ $# -ne 2 ]; then
  echo "usage: $0 <parent-build> <change-build>" >&2
  exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
SPEC=$ROOT/examples/mixed_campaign.scenario.json
BENCH=$ROOT/examples/s27_demo.bench
declare -A CLI
CLI[parent]=$(cd "$1" && pwd)/tools/effitest_cli
CLI[change]=$(cd "$2" && pwd)/tools/effitest_cli
for side in parent change; do
  if [ ! -x "${CLI[$side]}" ]; then
    echo "error: ${CLI[$side]} is not an executable" >&2
    exit 2
  fi
done
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK/parent" "$WORK/change"

# run_on <side> <case> <args...>: effitest_cli <args> in the side's work
# directory, keeping <case>.out, <case>.err and <case>.rc.
run_on() {
  local side=$1 name=$2
  shift 2
  (cd "$WORK/$side" && "${CLI[$side]}" "$@" > "$name.out" 2> "$name.err"
   echo $? > "$name.rc")
}

# serve_session <side>: serve the s27 demo for exactly one session, drive
# it with one tune --connect client, and wait for the server to drain.
serve_session() {
  local side=$1 dir=$WORK/$1 port="" pid
  (cd "$dir" && exec "${CLI[$side]}" serve --bench="$BENCH" --buffers=2 \
     --max-sessions=1 > serve.out 2> serve.err) &
  pid=$!
  for _ in $(seq 300); do
    port=$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' \
             "$dir/serve.out" 2> /dev/null)
    [ -n "$port" ] && break
    sleep 0.2
  done
  run_on "$side" serve_client tune --bench="$BENCH" --buffers=2 --chips=3 \
    --connect="127.0.0.1:${port:-0}"
  # A client that never finished a session leaves the server waiting.
  [ "$(cat "$dir/serve_client.rc")" = 0 ] || kill "$pid" 2> /dev/null
  wait "$pid"
  echo $? > "$dir/serve.rc"
}

for side in parent change; do
  for circuit in s9234 s38584 mem_ctrl; do
    run_on $side "run_$circuit" run --circuit=$circuit --chips=300 \
      --json="run_$circuit.json"
  done
  run_on $side campaign campaign --spec="$SPEC" --json=campaign.json
  run_on $side campaign_stop campaign --spec="$SPEC" \
    --checkpoint=campaign_ck.json --stop-after=1
  cp "$WORK/$side/campaign_ck.json" "$WORK/$side/campaign_ck_stopped.json"
  run_on $side campaign_resume campaign --spec="$SPEC" \
    --checkpoint=campaign_ck.json --resume --json=campaign_resume.json
  run_on $side ssta ssta --circuit=s9234 --tuned --json=ssta.json
  run_on $side tune_sim tune --circuit=s9234 --chips=3 --simulate \
    --log=tune.log
  tac "$WORK/$side/tune.log" > "$WORK/$side/tune_reversed.log"
  run_on $side tune_replay tune --circuit=s9234 --chips=3 \
    --responses=tune_reversed.log
  serve_session $side
done

# mask <file>: the file with every timing-dependent field replaced.
mask() {
  local extra=()
  case $(basename "$1") in
    campaign*.out) extra=(-e 's/ [0-9]+\.[0-9]+$/ T/'
                          -e 's/^(campaign wall time:).*/\1 T/') ;;
  esac
  sed -E "${extra[@]}" \
    -e '/(prep Tp|align Tt|config Ts) /s/[^ ]+$/T/' \
    -e 's/(engine|MC) [0-9.]+ ms/\1 T ms/g' \
    -e 's/"([a-z_]*seconds[a-z_]*)": [-+0-9.eE]+/"\1": T/g' \
    -e 's/"git_sha": "[^"]*"/"git_sha": "-"/' \
    -e 's/127\.0\.0\.1:[0-9]+/127.0.0.1:PORT/g' \
    -e 's/ in [0-9.]+ s \([0-9.]+ sessions\/s\); latency .*/ in T/' \
    -e 's/ +/ /g' -e 's/^-+$/-/' "$1"
}

differ=0
diff <(ls "$WORK/parent") <(ls "$WORK/change") || differ=1
for path in "$WORK"/parent/*; do
  name=$(basename "$path")
  [ -e "$WORK/change/$name" ] || continue
  diff -u --label "parent/$name" --label "change/$name" \
    <(mask "$path") <(mask "$WORK/change/$name") || differ=$((differ + 1))
done
echo "equivalence: $(ls "$WORK/parent" | wc -l) file(s) compared," \
  "$differ differ"
[ "$differ" -eq 0 ]
