#!/bin/sh
# Pin the anonsim exit-code contract end to end:
#   0 = clean pass, 2 = violation / refuted invariant,
#   3 = resource budget exhausted, 4 = interrupted.
# Usage: test_exit_codes.sh /path/to/anonsim.exe
set -u

ANONSIM="$1"
fails=0

expect() {
  want="$1"
  shift
  "$ANONSIM" "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -eq "$want" ]; then
    echo "ok  $want <- anonsim $*"
  else
    echo "FAIL: anonsim $* exited $got, want $want"
    fails=$((fails + 1))
  fi
}

# clean passes
expect 0 check-snapshot -n 2
expect 0 feasibility --quick
expect 0 inductive -n 2
expect 0 inductive -n 2 --concrete

# refuted invariant: the comparability strengthenings fail induction
expect 2 inductive -n 2 --clauses candidates

# exhausted budget (exit 3): a tiny wall-clock allowance on a big run
expect 3 inductive -n 3 --max-seconds 0.01
expect 3 check-snapshot -n 3 --max-seconds 0.01

# interrupted (exit 4): SIGINT mid-run; the n=3 induction takes seconds
"$ANONSIM" inductive -n 3 >/dev/null 2>&1 &
pid=$!
sleep 0.4
kill -INT "$pid" 2>/dev/null
wait "$pid"
got=$?
if [ "$got" -eq 4 ]; then
  echo "ok  4 <- anonsim inductive -n 3 (SIGINT)"
else
  echo "FAIL: interrupted inductive run exited $got, want 4"
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails exit-code check(s) failed"
  exit 1
fi
echo "all exit-code checks passed"
