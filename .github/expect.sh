# expect CODE ARGS...: run `wefe ARGS...` and fail the step unless it
# exits with CODE.  Source it from a bash step.
expect() {
  want=$1; shift
  got=0
  wefe "$@" > /dev/null || got=$?
  test "$got" -eq "$want" || {
    echo "wefe $*: exit $got, expected $want"; exit 1; }
  echo "wefe $*: exit $got"
}
