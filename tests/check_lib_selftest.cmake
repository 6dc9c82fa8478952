# Self-test of tools/check_lib.cmake (ctest cmake_check_lib_selftest): each
# helper must pass on matching inputs and fail on a mismatch — a helper that
# always passes would make every CLI gate vacuous. Negative cases run in a
# nested `cmake -P` of this file (-DCASE=<name>) and must fail with the
# helper's message. The "CLI" under test is cmake itself, so no build is
# needed. Fixtures: a real two-seed quickstart campaign in the default layout
# (campaign.json), the same campaign under --stream (campaign_stream.json),
# and campaign.json with one byte of one run changed (campaign_changed_run.json).
#
#   cmake -DWORK_DIR=<scratch dir> -P tests/check_lib_selftest.cmake

set(CLI ${CMAKE_COMMAND})
include(${CMAKE_CURRENT_LIST_DIR}/../tools/check_lib.cmake)
set(fx ${CMAKE_CURRENT_LIST_DIR}/check_lib_fixtures)

if(CASE STREQUAL "bytes_one_byte")
  br_same_bytes(${fx}/campaign.json ${fx}/campaign_changed_run.json "one byte")
elseif(CASE STREQUAL "content_changed_run")
  br_same_content(${fx}/campaign_stream.json ${fx}/campaign_changed_run.json "changed run")
elseif(CASE STREQUAL "content_changed_header")
  file(READ ${fx}/campaign.json doc)
  string(JSON doc SET "${doc}" days 0.06)
  file(WRITE ${WORK_DIR}/header.json "${doc}")
  br_same_content(${fx}/campaign_stream.json ${WORK_DIR}/header.json "changed header")
elseif(CASE STREQUAL "content_missing_member")
  file(WRITE ${WORK_DIR}/empty.json "{}")
  br_same_content(${fx}/campaign.json ${WORK_DIR}/empty.json "missing member")
elseif(CASE STREQUAL "run_unexpected_exit")
  br_run(-E false)
elseif(CASE STREQUAL "run_env_probe")
  if(NOT "$ENV{BR_SELFTEST}" STREQUAL "on")
    message(FATAL_ERROR "BR_SELFTEST is not set")
  endif()
elseif(CASE STREQUAL "serve_exit_not_30")
  file(WRITE ${WORK_DIR}/daemon.exit "0")
  br_serve_stop(daemon SIGNALLED)
elseif(NOT DEFINED CASE)
  function(expect_failure case message)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -DCASE=${case} -DWORK_DIR=${WORK_DIR}/${case}
            -P ${CMAKE_CURRENT_FUNCTION_LIST_FILE}
        RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(rc EQUAL 0)
      message(FATAL_ERROR "case ${case} passed, but must fail")
    endif()
    string(REGEX REPLACE "[ \n]+" " " err "${err}")  # undo CMake's line wrapping
    if(NOT err MATCHES "${message}")
      message(FATAL_ERROR "case ${case} failed without '${message}':\n${err}")
    endif()
  endfunction()

  br_same_bytes(${fx}/campaign.json ${fx}/campaign.json "identical files")
  expect_failure(bytes_one_byte "one byte: .* are not byte-identical")

  br_same_content(${fx}/campaign.json ${fx}/campaign_stream.json "--stream layout")
  expect_failure(content_changed_run "changed run: 'runs' differs")
  expect_failure(content_changed_header "changed header: 'days' differs")
  expect_failure(content_missing_member "missing member: .* has no 'runs'")

  br_run(-E true)
  br_run(-E false EXPECT 1)
  expect_failure(run_unexpected_exit "exited 1, expected 0")
  br_run(-DCASE=run_env_probe -DWORK_DIR=${WORK_DIR}/env -P ${CMAKE_CURRENT_LIST_FILE}
      ENV BR_SELFTEST=on)
  expect_failure(run_env_probe "BR_SELFTEST is not set")

  file(WRITE ${WORK_DIR}/daemon.exit "30")
  br_serve_stop(daemon SIGNALLED)
  expect_failure(serve_exit_not_30 "exited '0', expected 30")
  message(STATUS "cmake_check_lib_selftest: all helper cases passed")
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
