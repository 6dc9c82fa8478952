# ctest helper: observability is a strict side channel. Campaign, fleet and
# serve outputs must be byte-identical with --trace/--dashboard enabled vs.
# disabled — across all three campaign output
# paths (buffered, spill streaming, --stream) at --jobs 1 and 8 — and every
# emitted trace must pass tools/trace_validate.py (balanced B/E spans,
# monotone per-track timestamps) and hold exactly one "seed" span per seed.
# Dashboards must themselves be byte-identical across --jobs and output paths
# (they sample the simulation, not the scheduler).
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_observability.cmake

include(${CMAKE_CURRENT_LIST_DIR}/check_lib.cmake)

find_program(PYTHON3 python3)
function(validate_trace trace)
  if(NOT PYTHON3)
    return()  # trace structure is still exercised; validation needs python3
  endif()
  execute_process(
      COMMAND ${PYTHON3} ${CMAKE_CURRENT_FUNCTION_LIST_DIR}/trace_validate.py ${trace}
      RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    br_fail("trace ${trace} failed trace_validate.py")
  endif()
endfunction()

set(w ${WORK_DIR})
set(campaign_seeds 3)
set(fleet_seeds 2)
set(campaign_cmd campaign --scenario quickstart --seeds ${campaign_seeds} --days 0.1)
set(fleet_cmd fleet --scenario fleet-mixed --seeds ${fleet_seeds})

foreach(kind campaign fleet)
  # Clean references for both document layouts.
  br_run(${${kind}_cmd} --out ${w}/ref_${kind}_default.json)
  br_run(${${kind}_cmd} --stream --out ${w}/ref_${kind}_stream.json)

  # Observability on: every path x jobs combination reproduces the clean
  # bytes, emits a valid trace, and emits the same dashboard as the first.
  set(first_dash "")
  foreach(jobs 1 8)
    foreach(path buffered spill stream)
      set(tag ${kind}_${path}_${jobs})
      set(ref ${w}/ref_${kind}_default.json)
      set(stream_env BYTEROBUST_STREAM_CAMPAIGN=1)
      set(extra "")
      if(path STREQUAL "buffered")
        set(stream_env BYTEROBUST_STREAM_CAMPAIGN=0)
      elseif(path STREQUAL "stream")
        set(extra "--stream")
        set(ref ${w}/ref_${kind}_stream.json)
      endif()
      br_run(${${kind}_cmd} --jobs ${jobs} ${extra} --trace ${w}/trace_${tag}.json
          --dashboard ${w}/dash_${tag}.json --out ${w}/out_${tag}.json ENV ${stream_env})
      br_same_bytes(${ref} ${w}/out_${tag}.json
          "${kind} output (${path}, --jobs ${jobs}) with observability on")
      validate_trace(${w}/trace_${tag}.json)
      # Every path runs its seeds through the same worker loop: exactly one
      # "seed" occupancy span per seed, whatever the path and --jobs.
      file(STRINGS ${w}/trace_${tag}.json seed_spans REGEX "\"ph\":\"B\",.*\"name\":\"seed\",")
      list(LENGTH seed_spans seed_span_count)
      if(NOT seed_span_count EQUAL ${kind}_seeds)
        br_fail("${kind} trace (${path}, --jobs ${jobs}) holds \
${seed_span_count} seed spans, expected ${${kind}_seeds}")
      endif()
      if(first_dash STREQUAL "")
        set(first_dash ${w}/dash_${tag}.json)
      else()
        br_same_bytes(${first_dash} ${w}/dash_${tag}.json
            "${kind} dashboard (${path}, --jobs ${jobs}) vs the first run's")
      endif()
    endforeach()
  endforeach()
endforeach()

# Serve: a traced daemon's response body matches the clean CLI --stream
# reference, and the daemon's drain closes its trace properly.
br_serve_start(serve --workers 2 --jobs 8 --trace ${w}/trace_serve.json)
br_run(request --socket ${w}/serve.sock
    --body "{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":3,\"days\":0.1,\"jobs\":8}"
    --wait-s 15 --timeout-s 300 --out ${w}/serve_body.json)
br_same_bytes(${w}/ref_campaign_stream.json ${w}/serve_body.json "serve body with tracing on")
br_serve_stop(serve)
validate_trace(${w}/trace_serve.json)
