# Sourced from the checkout by each workflow step that drives the command
# line: runs uta from this checkout's src/ (and tests/, for randgen) in a
# fresh directory, and times or pins its commands.
export PYTHONPATH="$PWD/src:$PWD/tests"
cd "$(mktemp -d)"

uta() { python -m uta.cli "$@"; }

# timed LABEL CMD...: run CMD, add "LABEL: N ms" to the step summary and
# return CMD's status
timed() {
  local label=$1 start status=0
  shift
  start=$(date +%s%N)
  "$@" || status=$?
  echo "$label: $(( ($(date +%s%N) - start) / 1000000 )) ms" >> "$GITHUB_STEP_SUMMARY"
  return "$status"
}

# pinned CODE WANT CMD...: run CMD and print its stdout and stderr; fail
# unless it exited CODE and printed exactly WANT
pinned() {
  local code=0 out
  out=$("${@:3}" 2>&1) || code=$?
  echo "$out"
  test "$code" = "$1" || { echo "exited $code, expected $1"; return 1; }
  test "$out" = "$2" || { echo "expected: $2"; return 1; }
}
