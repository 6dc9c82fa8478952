#!/bin/sh
# Stand-in for `byterobust serve` in tests/check_lib_selftest.cmake: writes its
# pid to the --pid-file argument and then idles (exec keeps the pid) until
# signalled, like a daemon waiting for requests.
while [ $# -gt 0 ]; do
  if [ "$1" = "--pid-file" ]; then
    echo $$ > "$2"
  fi
  shift
done
exec sleep 60
