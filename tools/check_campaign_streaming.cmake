# ctest helper: the campaign engine's streaming run stores must be
# observably equivalent to its memory store (BYTEROBUST_STREAM_CAMPAIGN=0),
# the byte-identity reference:
#   - the spill store (the default), at --jobs 1 and --jobs 4, must emit
#     byte-identical JSON to the memory store;
#   - windowed metric compaction (the default 2 h retention) must emit
#     byte-identical JSON to the unbounded tracker (BYTEROBUST_METRIC_WINDOW=0);
#   - --stream (the ordered store: incremental layout, aggregate trailing)
#     must carry the exact same runs and aggregate values as the reference
#     layout — compared as parsed JSON when python3 is available, with a
#     structural fallback (every seed present + aggregate block) otherwise.
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_campaign_streaming.cmake

foreach(var CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is required")
  endif()
endforeach()

file(MAKE_DIRECTORY ${WORK_DIR})

set(scenario "campaign;--scenario;dense;--seeds;3;--days;0.4")

# Reference: buffered, unbounded metrics.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env BYTEROBUST_STREAM_CAMPAIGN=0 BYTEROBUST_METRIC_WINDOW=0
        ${CLI} ${scenario} --out ${WORK_DIR}/stream_ref.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "buffered reference campaign failed: ${rc}")
endif()

# Spill streaming + windowed metrics, single- and multi-worker.
foreach(jobs 1 4)
  execute_process(
      COMMAND ${CLI} ${scenario} --jobs ${jobs} --out ${WORK_DIR}/stream_spill_${jobs}.json
      OUTPUT_QUIET
      RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "spill-streaming campaign (--jobs ${jobs}) failed: ${rc}")
  endif()
  execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORK_DIR}/stream_ref.json ${WORK_DIR}/stream_spill_${jobs}.json
      RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR
        "campaign JSON differs between buffered and spill-streaming (--jobs ${jobs})")
  endif()
endforeach()

# --stream: incremental layout; must succeed and carry exactly the reference
# document's runs and aggregate values, just reordered.
execute_process(
    COMMAND ${CLI} ${scenario} --jobs 2 --stream --out ${WORK_DIR}/stream_direct.json
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--stream campaign failed: ${rc}")
endif()

find_program(PYTHON3 NAMES python3 python)
if(PYTHON3)
  execute_process(
      COMMAND ${PYTHON3} -c "
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
assert a['runs'] == b['runs'], 'runs differ between --stream and reference'
assert a['aggregate'] == b['aggregate'], 'aggregate differs between --stream and reference'
for k in ('tool', 'command', 'scenario', 'seeds', 'base_seed', 'days'):
    assert a[k] == b[k], 'header field %s differs' % k
" ${WORK_DIR}/stream_direct.json ${WORK_DIR}/stream_ref.json
      RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    message(FATAL_ERROR "--stream content differs from the reference layout")
  endif()
else()
  file(READ ${WORK_DIR}/stream_direct.json direct)
  string(REGEX MATCHALL "\"seed\":" seed_fields "${direct}")
  list(LENGTH seed_fields seed_count)
  if(NOT seed_count EQUAL 3)
    message(FATAL_ERROR "--stream output holds ${seed_count} runs, expected 3")
  endif()
  string(FIND "${direct}" "\"aggregate\":" agg_pos)
  if(agg_pos EQUAL -1)
    message(FATAL_ERROR "--stream output is missing the aggregate block")
  endif()
endif()
