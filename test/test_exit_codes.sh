#!/bin/sh
# Pin the anonsim exit-code contract end to end, across check-snapshot,
# check-nonatomic, feasibility and inductive:
#   0 = clean pass, 2 = violation / refuted invariant,
#   3 = resource budget exhausted, 4 = interrupted (check-nonatomic
#       --exhaustive runs under an interrupt-only governor: SIGINT gives 4),
#   5 = checkpoint or journal unusable (restart without --resume),
#   124 = command-line usage error.
# It also pins fuzz.exe's usage errors for campaign sizes (exit 124).
# Usage: test_exit_codes.sh /path/to/anonsim.exe /path/to/fuzz.exe
set -u

ANONSIM="$1"
FUZZ="$2"
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

# usage errors (exit 124, cmdliner's): the fingerprint tier's RAM budget
# must be at least 1 MiB and small enough for the tier to be one string
expect 124 check-snapshot -n 2 --fingerprint --fp-ram-mb 0
expect 124 check-snapshot -n 2 --fingerprint --fp-ram-mb 274877906944
# the crash search is gone: the fault-free verdict covers crash-stops
expect 124 check-snapshot -n 2 --crashes 1
# the intra-space parallel engines are no longer check-snapshot options
expect 124 check-snapshot -n 2 --par 2
expect 124 check-snapshot -n 2 --par-ws 2
# nor is symmetry reduction: distinct inputs leave nothing to quotient
expect 124 check-snapshot -n 2 --reduce
# nor is a state cap: the governor's budgets are the one way to stop early
expect 124 check-snapshot -n 2 --max-states 10
expect 124 feasibility --quick --max-states 10
# the packed exhaustive witness search exists for 3 processors only
expect 124 check-nonatomic -n 2 --exhaustive
expect 124 check-nonatomic -n 4 --exhaustive

# fuzz.exe rejects campaign sizes before any case runs: processors in
# 1..62 (the scheduler's bitmask width) with min-n <= max-n, at least one
# register and no more than the target takes (62 for the Figure-3
# family, whose written-register set is one bitmask), and 1..128 domains
# (OCaml 5.1's Max_domains).  Only the rejection of a large domain count
# is exercised: no campaign starts.
expect_fuzz() {
  "$FUZZ" "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -eq 124 ]; then
    echo "ok  124 <- fuzz $*"
  else
    echo "FAIL: fuzz $* exited $got, want 124"
    fails=$((fails + 1))
  fi
}
expect_fuzz --min-n 5 --max-n 2 --iterations 1
expect_fuzz --min-n 0 --iterations 1
expect_fuzz --min-n 70 --max-n 70 --iterations 1
expect_fuzz -m 0 --iterations 1
expect_fuzz --protocol snapshot -m 63 --iterations 1
expect_fuzz --domains 0 --iterations 1
expect_fuzz --domains 129 --iterations 1

# exhausted budget (exit 3): a tiny wall-clock allowance on a big run
expect 3 inductive -n 3 --max-seconds 0.01
expect 3 check-snapshot -n 3 --max-seconds 0.01

# an exhausted run reports its trip once, as the sweep's error, and the
# printed resume hint finishes the sweep from the checkpoint
ckpt=$(mktemp)
rm -f "$ckpt"
out=$("$ANONSIM" check-snapshot -n 2 --checkpoint "$ckpt" --max-seconds 0 \
  2>/dev/null)
stopped=$?
if printf '%s\n' "$out" | sed -n 1p \
  | grep -qx 'exhausted (wall-clock) at [0-9]* states'; then
  echo "ok  trip line: $(printf '%s\n' "$out" | sed -n 1p)"
else
  echo "FAIL: trip line '$(printf '%s\n' "$out" | sed -n 1p)'," \
    "want 'exhausted (wall-clock) at K states'"
  fails=$((fails + 1))
fi
hint=$(printf '%s\n' "$out" | sed -n 's/^resume with: anonsim //p')
# shellcheck disable=SC2086
"$ANONSIM" $hint >/dev/null 2>&1
resumed=$?
[ -e "$ckpt" ]
left=$?
rm -f "$ckpt"
if [ "$stopped" -eq 3 ] && [ -n "$hint" ] && [ "$resumed" -eq 0 ] \
  && [ "$left" -ne 0 ]; then
  echo "ok  0 <- anonsim $hint (resumed, checkpoint retired)"
else
  echo "FAIL: stopped run exited $stopped (want 3); resume hint '$hint'" \
    "exited $resumed (want 0) or left the checkpoint behind"
  fails=$((fails + 1))
fi

# a finished fingerprint run retires its checkpoint together with the
# spill-run directory beside it, whether it ran straight through or was
# stopped and resumed
ckpt=$(mktemp)
rm -f "$ckpt"
"$ANONSIM" check-snapshot -n 2 --fingerprint --fp-ram-mb 1 \
  --checkpoint "$ckpt" >/dev/null 2>&1
straight=$?
[ -e "$ckpt" ] || [ -e "$ckpt.runs" ]
straight_left=$?
"$ANONSIM" check-snapshot -n 2 --fingerprint --fp-ram-mb 1 \
  --checkpoint "$ckpt" --max-seconds 0 >/dev/null 2>&1
stopped=$?
"$ANONSIM" check-snapshot -n 2 --fingerprint --fp-ram-mb 1 \
  --checkpoint "$ckpt" --resume >/dev/null 2>&1
resumed=$?
[ -e "$ckpt" ] || [ -e "$ckpt.runs" ]
resumed_left=$?
rm -rf "$ckpt" "$ckpt.runs"
if [ "$straight" -eq 0 ] && [ "$straight_left" -ne 0 ] \
  && [ "$stopped" -eq 3 ] && [ "$resumed" -eq 0 ] \
  && [ "$resumed_left" -ne 0 ]; then
  echo "ok  0 <- anonsim check-snapshot -n 2 --fingerprint --checkpoint F" \
    "(F and F.runs retired)"
else
  echo "FAIL: fingerprint checkpoint runs exited $straight/$stopped/$resumed" \
    "(want 0/3/0) or left F or F.runs behind"
  fails=$((fails + 1))
fi

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

# unusable checkpoint (exit 5): an image another engine wrote is refused
# on its context, naming that engine, and so is a DFS image of wide keys
# (wide_key_dfs_n2.ckpt: check-snapshot -n 2 --max-seconds 0 before keys
# were packed), whose context lacks the packed key_format tag
refused() {
  label="$1"
  want="$2"
  shift 2
  err=$("$ANONSIM" "$@" 2>&1 >/dev/null)
  got=$?
  case "$err" in
    *"context mismatch"*"$want"*) named=yes ;;
    *) named=no ;;
  esac
  if [ "$got" -eq 5 ] && [ "$named" = yes ]; then
    echo "ok  5 <- anonsim $label"
  else
    echo "FAIL: $label exited $got, want 5 naming '$want' (stderr: $err)"
    fails=$((fails + 1))
  fi
}
ckpt=$(mktemp)
rm -f "$ckpt"
"$ANONSIM" check-snapshot -n 2 --fingerprint --checkpoint "$ckpt" \
  --max-seconds 0 >/dev/null 2>&1
refused "check-snapshot -n 2 --checkpoint <fingerprint image> --resume" \
  "fpbfs" check-snapshot -n 2 --checkpoint "$ckpt" --resume
rm -rf "$ckpt" "$ckpt.runs"
ckpt=$(mktemp)
cp "$(dirname "$0")/wide_key_dfs_n2.ckpt" "$ckpt"
refused "check-snapshot -n 2 --checkpoint <wide-key DFS image> --resume" \
  "dfs" check-snapshot -n 2 --checkpoint "$ckpt" --resume
rm -f "$ckpt"

# unusable checkpoint (exit 5): an 8-byte ANONCKP2 magic plus a section
# count is refused by format version, with both versions named
ckpt=$(mktemp)
printf 'ANONCKP2\000\000\000\000' > "$ckpt"
err=$("$ANONSIM" check-snapshot -n 2 --checkpoint "$ckpt" --resume 2>&1 >/dev/null)
got=$?
rm -f "$ckpt"
case "$err" in
  *"version 2"*"version 3"*) named=yes ;;
  *) named=no ;;
esac
if [ "$got" -eq 5 ] && [ "$named" = yes ]; then
  echo "ok  5 <- anonsim check-snapshot -n 2 --checkpoint <ANONCKP2 file> --resume"
else
  echo "FAIL: ANONCKP2 checkpoint exited $got, want 5 (stderr: $err)"
  fails=$((fails + 1))
fi

if [ "$fails" -ne 0 ]; then
  echo "$fails exit-code check(s) failed"
  exit 1
fi
echo "all exit-code checks passed"
