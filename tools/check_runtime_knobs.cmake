# ctest helper: runtime knobs are parsed strictly at startup. A malformed
# BYTEROBUST_* value makes `campaign` exit 2 before any seed runs, and makes
# `serve` exit 2 before it binds its socket, naming the variable.
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_runtime_knobs.cmake

include(${CMAKE_CURRENT_LIST_DIR}/check_lib.cmake)

foreach(knob IN ITEMS BYTEROBUST_STEP_BATCHING=false BYTEROBUST_QUIESCENT_MONITOR=2
        BYTEROBUST_SEED_TIMEOUT_S=abc)
  string(REGEX REPLACE "=.*" "" name ${knob})
  br_run(campaign --scenario quickstart --seeds 1 --days 0.05 EXPECT 2 ENV ${knob})
  br_serve_start(${name} ENV ${knob})
  br_serve_wait(${name} 2)
  file(READ ${WORK_DIR}/${name}.log log)
  if(NOT log MATCHES "error: ${name} must be")
    br_fail("serve under ${knob} exited 2 without naming ${name}: ${log}")
  endif()
endforeach()
