#!/bin/sh
# same_run.sh A B: byte-compare two reports of the same run made at
# different -j levels.  The manifest's "jobs" (the pool size) and
# "peak_rss_kb" (a measurement of the process, not of the simulated
# system) are the only run-dependent bytes; both are masked in A.norm
# and B.norm before cmp, whose exit status is the script's.
set -e
[ $# -eq 2 ] || { echo "usage: same_run.sh A B" >&2; exit 2; }
for f in "$1" "$2"; do
  sed -e 's/"jobs":[0-9]*/"jobs":J/' \
    -e 's/"peak_rss_kb":[a-z0-9]*/"peak_rss_kb":R/' "$f" > "$f.norm"
done
cmp "$1.norm" "$2.norm"
