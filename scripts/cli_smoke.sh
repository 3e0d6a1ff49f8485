#!/usr/bin/env sh
# End-to-end checks of rsg_cli. Every generation it runs is a
# GenerationSession over a CompiledDesign, so a sample in either format
# reaches every mode. Drives the built binary on a brick sample written
# twice into a temporary directory (text format and CIF) and on
# designs/mult.*, and checks:
#   1. the CIF and text twins with .compact:xy give byte-identical CIF,
#      --compact-stats prints the schedule's round table, and --stats
#      prints nonzero execute and write phases;
#   2. --checkpoint-out writes a checkpoint, and --checkpoint-in resumes it
#      to the same CIF;
#   3. --params-sweep accepts the CIF sample;
#   4. a flag the mode would ignore exits 2: --params-sweep with --svg,
#      --def, --snapshot-out, --checkpoint-in or --checkpoint-out, and
#      --snapshot-in with --checkpoint-in, --checkpoint-out or
#      --compact-stats;
#   5. mult's --snapshot-out, then --snapshot-in -o, round-trips
#      byte-identical CIF.
# Prints one line per failed check and exits 1 if any failed.
#
# Usage: scripts/cli_smoke.sh [build-dir]
set -eu

BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/examples/rsg_cli"
DESIGNS="$(cd "$(dirname "$0")/.." && pwd)/designs"
if [ ! -x "$CLI" ]; then
  echo "error: '$CLI' is missing or not executable (build the examples first)" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}
# cli <args...>: runs rsg_cli, stdout and stderr to $TMP/out and $TMP/err.
cli() {
  "$CLI" "$@" >"$TMP/out" 2>"$TMP/err"
}

cat >"$TMP/brick.sample" <<'EOF'
cell brick
  box metal1 0 0 20 8
end
assembly
  inst a brick 0 0 N
  inst b brick 16 0 N
  label 1 at 18 4
end
EOF
cat >"$TMP/brick.cif" <<'EOF'
DS 1 1 1;
9 brick;
L CM1; B 20 8 10 4;
DF;
DS 2 1 1;
9 assembly1;
C 1 T 0 0;
C 1 T 16 0;
94 1 18 4;
DF;
E
EOF
printf '(mk_instance a brick) (mk_instance b brick) (connect a b 1) (mk_cell "row" a)\n' \
  >"$TMP/row.rsg"
printf '.compact:xy\n' >"$TMP/xy.par"
printf 'unused = 1\nunused = 2\n' >"$TMP/sweep.txt"
TEXT="$TMP/brick.sample $TMP/row.rsg $TMP/xy.par"
CIF="$TMP/brick.cif $TMP/row.rsg $TMP/xy.par"

# 1. The CIF twin compacts like the text twin.
cli $TEXT -o "$TMP/text.cif" || fail "text sample with .compact:xy exited non-zero"
if cli $CIF -o "$TMP/cif.cif" --compact-stats --stats; then
  cmp -s "$TMP/text.cif" "$TMP/cif.cif" ||
    fail "CIF sample with .compact:xy: output differs from the text twin's"
  grep -q '^  round ' "$TMP/err" || fail "CIF sample: --compact-stats printed no round table"
  if grep -Eq 'execute design 0 |write output 0$' "$TMP/err"; then
    fail "CIF sample: --stats printed a zero execute or write phase"
  fi
else
  fail "CIF sample with .compact:xy exited non-zero: $(cat "$TMP/err")"
fi

# 2. Checkpoint out, then resume to the same CIF.
cli $CIF --checkpoint-out "$TMP/ck.rsgc" -o "$TMP/first.cif" ||
  fail "--checkpoint-out run exited non-zero"
if [ -s "$TMP/ck.rsgc" ]; then
  if cli $CIF --checkpoint-in "$TMP/ck.rsgc" -o "$TMP/resumed.cif"; then
    cmp -s "$TMP/first.cif" "$TMP/resumed.cif" ||
      fail "--checkpoint-in: resumed CIF differs from the uninterrupted run's"
  else
    fail "--checkpoint-in run exited non-zero: $(cat "$TMP/err")"
  fi
else
  fail "--checkpoint-out wrote no checkpoint"
fi

# 3. The sweep takes the CIF sample.
if cli $CIF --params-sweep "$TMP/sweep.txt"; then
  [ "$(grep -c '^run ' "$TMP/out")" -eq 2 ] || fail "--params-sweep did not print two runs"
else
  fail "--params-sweep with the CIF sample exited non-zero: $(cat "$TMP/err")"
fi

# 4. Flags the mode would ignore are refused.
expect_refused() {
  status=0
  cli "$@" || status=$?
  [ "$status" -eq 2 ] || fail "rsg_cli $* exited $status, expected 2"
}
for flag in --svg --def --snapshot-out --checkpoint-in --checkpoint-out; do
  expect_refused $TEXT --params-sweep "$TMP/sweep.txt" "$flag" "$TMP/ignored"
done

# 5. A mult snapshot reloads to the same CIF (its file also feeds case 4).
cli "$DESIGNS/mult.sample" "$DESIGNS/mult.rsg" "$DESIGNS/mult.par" -o "$TMP/mult.cif" \
  --snapshot-out "$TMP/mult.rsgb" || fail "mult --snapshot-out exited non-zero"
if cli --snapshot-in "$TMP/mult.rsgb" -o "$TMP/mult2.cif"; then
  cmp -s "$TMP/mult.cif" "$TMP/mult2.cif" ||
    fail "mult: --snapshot-in -o differs from the generated CIF"
else
  fail "mult --snapshot-in exited non-zero: $(cat "$TMP/err")"
fi
expect_refused --snapshot-in "$TMP/mult.rsgb" --checkpoint-in "$TMP/no-such.rsgc"
expect_refused --snapshot-in "$TMP/mult.rsgb" --checkpoint-out "$TMP/ignored"
expect_refused --snapshot-in "$TMP/mult.rsgb" --compact-stats

if [ "$failures" -ne 0 ]; then
  echo "cli smoke: $failures check(s) failed" >&2
  exit 1
fi
echo "cli smoke passed"
