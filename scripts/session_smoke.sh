#!/usr/bin/env bash
# Scripted end-to-end check of the subscription session server
# (server/session.h, DESIGN.md §10): drive a SUBSCRIBE → INGEST →
# UNSUBSCRIBE → SUBSCRIBE-again session through `stream_query_cli
# --serve` and require each subscription's tagged output to be
# byte-identical to an equivalent static query run over exactly the
# stream segment the subscription was live for:
#
#   id 0 lives for the whole stream        -> full-stream static run
#   id 1 is detached after the prefix      -> prefix static run
#   id 2 attaches mid-stream (fresh plan)  -> suffix static run
#
# The ack sequence is also checked verbatim, including that a detached
# subscription id is never reused. The session reads its stream through
# the same chunk source as a batch run, so the same session over a pipe
# (`<(cat stream.csv)`) must print the same bytes, and a stream with a
# malformed line must print the results of the lines before it, then
# exit 1 naming the line. A second session keeps two subscriptions live
# across one INGEST ALL over a stream of several 1,024-element pulls:
# their lines must interleave (results stream per pull) and each must
# still equal its static run: at batch size 1, at one worker with batch
# sizes (100, and 7 under Δ-PATH) that do not divide the pull, and at 4
# workers with batch size 100.
#
# Usage: session_smoke.sh <path-to-stream_query_cli>
set -euo pipefail

CLI=${1:?usage: session_smoke.sh <path-to-stream_query_cli>}
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
TAB=$(printf '\t')

# Deterministic 60-edge stream over 3 labels; timestamps non-decreasing.
awk 'BEGIN{
  lbl[0]="follows"; lbl[1]="likes"; lbl[2]="posts";
  for (i = 0; i < 60; i++)
    printf "v%d,%s,v%d,%d\n", i % 7, lbl[i % 3], (i * 3 + 1) % 7,
           int(i / 2);
}' > "$TMP/stream.csv"
TOTAL=60
PREFIX=30
head -n "$PREFIX" "$TMP/stream.csv" > "$TMP/prefix.csv"
tail -n +"$((PREFIX + 1))" "$TMP/stream.csv" > "$TMP/suffix.csv"

{
  printf 'SUBSCRIBE Answer(x,y) <- follows+(x,y)\n'
  printf 'SUBSCRIBE Answer(x,y) <- likes(x,y)\n'
  printf 'INGEST %d\n' "$PREFIX"
  printf 'UNSUBSCRIBE 1\n'
  printf 'SUBSCRIBE Answer(x,y) <- posts(x,y)\n'
  printf 'INGEST ALL\n'
  printf 'QUIT\n'
} > "$TMP/session.txt"

"$CLI" --serve "$TMP/stream.csv" < "$TMP/session.txt" \
  2>/dev/null > "$TMP/session_out.txt"

# Protocol acks, in order. Result lines carry a `s<id>\t` tag; everything
# untagged must be exactly this ack sequence.
grep -v "$TAB" "$TMP/session_out.txt" > "$TMP/acks.txt"
printf 'SUBSCRIBED 0\nSUBSCRIBED 1\nINGESTED %d\nUNSUBSCRIBED 1\nSUBSCRIBED 2\nINGESTED %d\nBYE\n' \
  "$PREFIX" "$((TOTAL - PREFIX))" > "$TMP/acks_expected.txt"
cmp "$TMP/acks_expected.txt" "$TMP/acks.txt"

# Each subscription's tag-stripped output vs the static run over the
# segment it was live for.
check_sub() {
  local id=$1 query=$2 segment=$3
  grep "^s${id}${TAB}" "$TMP/session_out.txt" | cut -f2- \
    > "$TMP/sub${id}.txt" || true
  printf '%s\n' "$query" > "$TMP/q${id}.dl"
  "$CLI" "$TMP/q${id}.dl" "$segment" 2>/dev/null > "$TMP/static${id}.txt"
  cmp "$TMP/static${id}.txt" "$TMP/sub${id}.txt"
}
check_sub 0 'Answer(x,y) <- follows+(x,y)' "$TMP/stream.csv"
check_sub 1 'Answer(x,y) <- likes(x,y)' "$TMP/prefix.csv"
check_sub 2 'Answer(x,y) <- posts(x,y)' "$TMP/suffix.csv"

# The same session over a pipe: byte-identical output.
"$CLI" --serve <(cat "$TMP/stream.csv") < "$TMP/session.txt" \
  2>/dev/null > "$TMP/session_pipe.txt"
cmp "$TMP/session_out.txt" "$TMP/session_pipe.txt"

# A malformed line 41: the results of lines 1-40 print first, then the
# session exits 1 with the line named on stderr.
BAD_LINE=41
awk -v bad="$BAD_LINE" 'NR == bad { print "v0,follows,v1,not-a-time"; next }
                        { print }' "$TMP/stream.csv" > "$TMP/bad.csv"
head -n "$((BAD_LINE - 1))" "$TMP/stream.csv" > "$TMP/good_prefix.csv"
printf 'SUBSCRIBE Answer(x,y) <- follows+(x,y)\nINGEST ALL\nQUIT\n' \
  > "$TMP/bad_session.txt"
set +e
"$CLI" --serve "$TMP/bad.csv" < "$TMP/bad_session.txt" \
  2> "$TMP/bad_err.txt" > "$TMP/bad_out.txt"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
  echo "malformed stream exited $rc, want 1"; exit 1
fi
grep -q "line $BAD_LINE" "$TMP/bad_err.txt"
if grep -q '^INGESTED' "$TMP/bad_out.txt"; then
  echo "the failed INGEST was acknowledged"; exit 1
fi
grep "^s0${TAB}" "$TMP/bad_out.txt" | cut -f2- > "$TMP/bad_sub.txt"
printf 'Answer(x,y) <- follows+(x,y)\n' > "$TMP/bad_q.dl"
"$CLI" "$TMP/bad_q.dl" "$TMP/good_prefix.csv" 2>/dev/null \
  > "$TMP/bad_static.txt"
test -s "$TMP/bad_static.txt"
cmp "$TMP/bad_static.txt" "$TMP/bad_sub.txt"

# Five pulls of one INGEST ALL: results stream after every pull, so the
# two subscriptions' lines interleave, and each still equals its static
# run over the whole stream under the same engine flags. The stream is
# pseudo-random (Park-Miller, exact in awk's doubles) with ~10% deletions
# of recent edges. At --batch 100 a pull ends inside a micro-batch, which
# the pull's drain must leave buffered: flushing it there moves batch
# boundaries, and with 4 workers that moves both subscriptions' lines.
awk 'function rnd(m) { x = (x * 16807) % 2147483647; return x % m }
BEGIN{
  lbl[0]="follows"; lbl[1]="likes"; lbl[2]="posts";
  x = 77; t = 0; n = 0;
  for (i = 0; i < 5000; i++) {
    t += rnd(3);
    if (rnd(10) == 0 && n > 0) {
      printf "%s,%d,-\n", e[n - 1 - rnd(n < 20 ? n : 20)], t;
    } else {
      e[n] = sprintf("v%d,%s,v%d", rnd(40), lbl[rnd(3)], rnd(40));
      printf "%s,%d\n", e[n++], t;
    }
  }
}' > "$TMP/long.csv"
printf 'SUBSCRIBE Answer(x,y) <- follows+(x,y)\nSUBSCRIBE Answer(x,y) <- likes(x,y)\nINGEST ALL\nQUIT\n' \
  > "$TMP/long_session.txt"
printf 'SUBSCRIBED 0\nSUBSCRIBED 1\nINGESTED 5000\nBYE\n' \
  > "$TMP/long_acks_expected.txt"
printf 'Answer(x,y) <- follows+(x,y)\n' > "$TMP/long_q0.dl"
printf 'Answer(x,y) <- likes(x,y)\n' > "$TMP/long_q1.dl"
check_long() {
  local flags=$1  # unquoted below: splits into engine flags
  "$CLI" --serve "$TMP/long.csv" $flags < "$TMP/long_session.txt" \
    2>/dev/null > "$TMP/long_out.txt"
  grep -v "$TAB" "$TMP/long_out.txt" > "$TMP/long_acks.txt"
  cmp "$TMP/long_acks_expected.txt" "$TMP/long_acks.txt"
  local runs
  runs=$(grep "$TAB" "$TMP/long_out.txt" | cut -f1 | uniq | wc -l)
  if [ "$runs" -lt 8 ]; then
    echo "INGEST ALL ($flags) streamed its results in $runs runs," \
         "want one pair per pull"
    exit 1
  fi
  for id in 0 1; do
    grep "^s${id}${TAB}" "$TMP/long_out.txt" | cut -f2- \
      > "$TMP/long_sub${id}.txt"
    "$CLI" "$TMP/long_q${id}.dl" "$TMP/long.csv" $flags 2>/dev/null \
      > "$TMP/long_static${id}.txt"
    test -s "$TMP/long_static${id}.txt"
    cmp "$TMP/long_static${id}.txt" "$TMP/long_sub${id}.txt"
  done
}
check_long ''
check_long '--batch 100'
check_long '--batch 7 --delta-path'
check_long '--workers 4 --batch 100'

echo "session smoke: all subscriptions byte-identical to static runs"
