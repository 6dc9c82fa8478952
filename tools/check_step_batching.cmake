# ctest helper: batched stepping (the default) and the per-step reference
# path (BYTEROBUST_STEP_BATCHING=0) must emit byte-identical campaign JSON
# for the same scenario and seeds. Batched stepping delivers steps in runs
# that carry every step's semantics (metric rules, checkpoint cadence, ETTR
# and MFU ledgers); the reference path delivers runs of one step. Compared:
# a full production-mix campaign (dense), a targeted single-symptom campaign
# (gpu-fault), two days of the month-scale dense campaign, the 16-machine
# quickstart campaign and the multi-job fleet-mixed scenario.
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_step_batching.cmake

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})

set(scenario_dense "campaign;--scenario;dense;--seeds;2;--days;0.5")
set(scenario_targeted "campaign;--scenario;gpu-fault;--seeds;4;--days;0.2")
set(scenario_dense_month "campaign;--scenario;dense-month;--days;2")
set(scenario_quickstart "campaign;--scenario;quickstart;--seeds;8")
set(scenario_fleet "fleet;--scenario;fleet-mixed;--seeds;4")

foreach(name dense targeted dense_month quickstart fleet)
  foreach(batching 0 1)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env BYTEROBUST_STEP_BATCHING=${batching}
            ${CLI} ${scenario_${name}}
            --out ${WORK_DIR}/batch_${name}_${batching}.json
        OUTPUT_QUIET
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${name} with STEP_BATCHING=${batching} failed: ${rc}")
    endif()
  endforeach()
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/batch_${name}_0.json ${WORK_DIR}/batch_${name}_1.json
      RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
        "${name} JSON differs between batched and per-step stepping")
  endif()
endforeach()
