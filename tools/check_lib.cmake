# Shared helpers of the CLI gates (tools/check_*.cmake). Every decision about
# how a gate runs the CLI, compares its outputs and drives the serve daemon
# lives here; a gate script includes this file and keeps only its own
# assertions. Gates run as
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P tools/check_<gate>.cmake
#
# Including this file checks both variables and empties WORK_DIR. Every
# failure goes through br_fail, which stops the gate's serve daemons first.
# tests/check_lib_selftest.cmake (ctest cmake_check_lib_selftest) shows that
# each helper fails on a mismatch and that a failing gate leaks no daemon.

cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()
file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# br_fail(<message>): fails the gate. Each daemon started by br_serve_start
# that has not exited yet (a <name>.pid in WORK_DIR without a <name>.exit) is
# sent SIGTERM first, so a failing gate never leaves a `serve` running.
function(br_fail message)
  file(GLOB pid_files ${WORK_DIR}/*.pid)
  foreach(pid_file IN LISTS pid_files)
    string(REGEX REPLACE "\\.pid$" ".exit" exit_file "${pid_file}")
    file(READ ${pid_file} pid)
    string(STRIP "${pid}" pid)
    if(NOT EXISTS ${exit_file} AND pid MATCHES "^[0-9]+$")
      execute_process(COMMAND kill -TERM ${pid} OUTPUT_QUIET ERROR_QUIET)
    endif()
  endforeach()
  message(FATAL_ERROR "${message}")
endfunction()

# br_run(<cli args>... [EXPECT <rc>] [ENV <VAR=value>...])
# Runs the CLI and fails the gate unless it exits <rc> (default 0). ENV goes
# last: every argument after it is an environment assignment.
function(br_run)
  cmake_parse_arguments(PARSE_ARGV 0 arg "" "EXPECT" "ENV")
  if(NOT DEFINED arg_EXPECT)
    set(arg_EXPECT 0)
  endif()
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E env ${arg_ENV} ${CLI} ${arg_UNPARSED_ARGUMENTS}
      OUTPUT_QUIET ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc STREQUAL arg_EXPECT)
    string(JOIN " " cmd ${arg_ENV} byterobust ${arg_UNPARSED_ARGUMENTS})
    br_fail("`${cmd}` exited ${rc}, expected ${arg_EXPECT}\n${err}")
  endif()
endfunction()

# br_same_bytes(<a> <b> <what>): the two files are byte-identical.
function(br_same_bytes a b what)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${a} ${b} RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    br_fail("${what}: ${a} and ${b} are not byte-identical")
  endif()
endfunction()

# br_same_content(<a> <b> <what>): the two campaign/fleet documents hold equal
# runs, aggregate and header fields, whatever their layout (--stream puts the
# aggregate after the runs). Members are compared as parsed JSON: type plus
# canonical text (object keys sorted, numbers re-rendered).
function(br_same_content a b what)
  file(READ ${a} doc_a)
  file(READ ${b} doc_b)
  foreach(member runs aggregate tool command scenario seeds base_seed days)
    foreach(side a b)
      string(JSON type_${side} ERROR_VARIABLE err TYPE "${doc_${side}}" ${member})
      if(err)
        br_fail("${what}: ${${side}} has no '${member}': ${err}")
      endif()
      string(JSON value_${side} GET "${doc_${side}}" ${member})
    endforeach()
    if(NOT "${type_a}:${value_a}" STREQUAL "${type_b}:${value_b}")
      br_fail("${what}: '${member}' differs between ${a} and ${b}")
    endif()
  endforeach()
endfunction()

# br_indices(<out> <json> <path>...): the indices 0..n-1 of the JSON array at
# <path>; empty for an empty array.
function(br_indices out json)
  string(JSON n LENGTH "${json}" ${ARGN})
  set(indices "")
  if(n GREATER 0)
    math(EXPR last "${n} - 1")
    foreach(i RANGE ${last})
      list(APPEND indices ${i})
    endforeach()
  endif()
  set(${out} ${indices} PARENT_SCOPE)
endfunction()

# br_bash(<what> <script>): runs a bash script; a non-zero exit fails the
# gate with <what>.
function(br_bash what script)
  execute_process(COMMAND bash -c "${script}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    br_fail("${what}")
  endif()
endfunction()

# br_serve_start(<name> [<serve flags>...] [ENV <VAR=value>...])
# Launches a daemon in the background on ${WORK_DIR}/<name>.sock with pid file
# <name>.pid and log <name>.log; its exit code lands in <name>.exit. Clients
# cover startup with --wait-s.
function(br_serve_start name)
  cmake_parse_arguments(PARSE_ARGV 1 arg "" "" "ENV")
  set(base ${WORK_DIR}/${name})
  set(cmd "env")
  foreach(word IN LISTS arg_ENV ITEMS ${CLI} serve --socket ${base}.sock --pid-file ${base}.pid
          ${arg_UNPARSED_ARGUMENTS})
    string(APPEND cmd " '${word}'")
  endforeach()
  br_bash("could not launch serve daemon ${name}"
      "(${cmd} </dev/null >'${base}.log' 2>&1; echo -n $? >'${base}.rc'; mv '${base}.rc' '${base}.exit') </dev/null >/dev/null 2>&1 &")
endfunction()

# br_clients(<name> <body> <out> [<body> <out>]...): one concurrent `request`
# to daemon <name> per (body, out) pair; every client must exit 0.
function(br_clients name)
  set(script "pids=")
  while(ARGN)
    list(POP_FRONT ARGN body out)
    string(APPEND script "; '${CLI}' request --socket '${WORK_DIR}/${name}.sock' --body '${body}' --wait-s 15 --timeout-s 300 --out '${out}' >/dev/null & pids=\"$pids $!\"")
  endwhile()
  br_bash("a concurrent client of serve daemon ${name} failed"
      "${script}; rc=0; for p in $pids; do wait $p || rc=1; done; exit $rc")
endfunction()

# br_serve_wait(<name> <rc>): waits up to 10 s for daemon <name> to exit and
# requires exit code <rc>.
function(br_serve_wait name rc)
  set(exit_file ${WORK_DIR}/${name}.exit)
  br_bash("serve daemon ${name} did not exit within 10 s"
      "for i in $(seq 100); do [ -f '${exit_file}' ] && exit 0; sleep 0.1; done; exit 1")
  file(READ ${exit_file} code)
  if(NOT code STREQUAL rc)
    br_fail("serve daemon ${name} exited '${code}', expected ${rc}")
  endif()
endfunction()

# br_serve_stop(<name> [SIGNALLED])
# Sends {"op":"shutdown"} (unless the daemon was already signalled) and
# requires exit 30 (graceful drain).
function(br_serve_stop name)
  if(NOT "SIGNALLED" IN_LIST ARGN)
    br_run(request --socket ${WORK_DIR}/${name}.sock --body "{\"op\":\"shutdown\"}" --raw
        --wait-s 5 --timeout-s 30)
  endif()
  br_serve_wait(${name} 30)
endfunction()
