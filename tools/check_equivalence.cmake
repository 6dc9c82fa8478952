# Table-driven A/B gates. Each row runs one CLI command under two variants
# (extra flags, then optionally `ENV VAR=value...`) and requires the outputs to
# match: `bytes` byte for byte, `content` as parsed JSON (br_same_content, for
# the --stream layout). An output shared by several rows of a gate is computed
# once. -DGATE=<ctest name> selects that gate's rows.
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -DGATE=<ctest name> \
#         -P tools/check_equivalence.cmake

include(${CMAKE_CURRENT_LIST_DIR}/check_lib.cmake)

set(rows 0)
# Rows below belong to gate <name> until the next gate() line.
macro(gate name)
  set(gate ${name})
endmacro()

# row(<bytes|content> <command> <variant A> <variant B>)
function(row compare cmd a b)
  if(NOT gate STREQUAL GATE)
    return()
  endif()
  separate_arguments(args UNIX_COMMAND "${cmd} --out")
  foreach(side a b)
    separate_arguments(variant UNIX_COMMAND "${${side}}")
    string(MD5 key "${cmd} | ${${side}}")
    set(out_${side} ${WORK_DIR}/${key}.json)
    if(NOT EXISTS ${out_${side}})
      br_run(${args} ${out_${side}} ${variant})
    endif()
  endforeach()
  cmake_language(CALL br_same_${compare} ${out_a} ${out_b} "`${cmd}` with [${a}] vs [${b}]")
  math(EXPR rows "${rows} + 1")
  set(rows ${rows} PARENT_SCOPE)
  set(last_a ${out_a} PARENT_SCOPE)
endfunction()

# Campaign JSON is byte-identical whatever --jobs is: seeds map to fixed
# output slots and the merge is ordered by seed.
gate(cli_campaign_jobs_determinism)
row(bytes "campaign --scenario gpu-fault --seeds 4 --days 0.2" "--jobs 1" "--jobs 8")

# Batched stepping delivers steps in runs that carry every step's semantics;
# the reference path (BYTEROBUST_STEP_BATCHING=0) delivers runs of one step.
gate(cli_campaign_step_batching_equivalence)
set(per_step "ENV BYTEROBUST_STEP_BATCHING=0")
set(batched "ENV BYTEROBUST_STEP_BATCHING=1")
row(bytes "campaign --scenario dense --seeds 2 --days 0.5" "${per_step}" "${batched}")
row(bytes "campaign --scenario gpu-fault --seeds 4 --days 0.2" "${per_step}" "${batched}")
row(bytes "campaign --scenario dense-month --days 2" "${per_step}" "${batched}")
row(bytes "campaign --scenario quickstart --seeds 8" "${per_step}" "${batched}")
row(bytes "fleet --scenario fleet-mixed --seeds 4" "${per_step}" "${batched}")

# Quiescent monitoring skips only passes that provably find nothing, on the
# periodic reference path's time grid (both watchdog paths: crash + hang).
gate(cli_campaign_quiescent_equivalence)
set(periodic "ENV BYTEROBUST_QUIESCENT_MONITOR=0")
set(quiescent "ENV BYTEROBUST_QUIESCENT_MONITOR=1")
row(bytes "campaign --scenario dense --seeds 2 --days 0.5" "${periodic}" "${quiescent}")
row(bytes "campaign --scenario gpu-fault --seeds 4 --days 0.2" "${periodic}" "${quiescent}")

# The spill store (default) matches the memory store byte for byte; --stream
# (the ordered store) carries the same content in its incremental layout.
# (Windowed vs unbounded metric retention is BatchedStepTest's to compare.)
gate(cli_campaign_streaming_equivalence)
set(cmd "campaign --scenario dense --seeds 3 --days 0.4")
set(memory "ENV BYTEROBUST_STREAM_CAMPAIGN=0")
row(bytes "${cmd}" "${memory}" "--jobs 1")
row(bytes "${cmd}" "${memory}" "--jobs 4")
row(content "${cmd}" "${memory}" "--jobs 2 --stream")

# Fleet campaigns ride the same machinery.
gate(cli_fleet_determinism)
set(cmd "fleet --scenario fleet-mixed --seeds 8 --days 0.3")
row(bytes "${cmd}" "--jobs 1" "--jobs 8")
row(bytes "${cmd}" "--jobs 1" "ENV BYTEROBUST_STREAM_CAMPAIGN=0")
row(content "${cmd}" "--jobs 1" "--jobs 2 --stream")

# Correlated fault-domain campaigns too; every run also carries a non-empty
# blast-radius block (checked below).
gate(cli_campaign_domain_determinism)
set(cmd "campaign --scenario spine-flap --seeds 8 --days 2")
row(bytes "${cmd}" "--jobs 1" "--jobs 8")
row(content "${cmd}" "--jobs 1" "--jobs 2 --stream")

# With no correlated domain stream configured, attaching the fault-domain
# graph is pure bookkeeping: same bytes as the legacy flat path.
gate(cli_fault_domain_equivalence)
set(legacy "ENV BYTEROBUST_FAULT_DOMAINS=0")
row(bytes "campaign --scenario dense --seeds 4 --days 2" "" "${legacy}")
row(bytes "fleet --scenario fleet-mixed --seeds 4 --days 0.3" "" "${legacy}")

# Injected harness faults (crash/throw/hang, 8 retries, 0.5 s watchdog) leave
# the output byte-identical to a clean run, per output path at --jobs 1 and 8.
# Fault draws are keyed on (campaign seed, index, attempt, kind); this spec is
# verified quarantine-free for these seeds, with at least one watchdog retry.
set(cmd "campaign --scenario dense --seeds 6 --days 0.3 --seed 42")
set(faults "--retries 8 ENV BYTEROBUST_HARNESS_FAULTS=crash:0.2,throw:0.15,hang:0.5 BYTEROBUST_SEED_TIMEOUT_S=0.5")
gate(cli_campaign_harness_faults)  # buffered (memory store)
row(bytes "${cmd}" "" "--jobs 1 ${faults} BYTEROBUST_STREAM_CAMPAIGN=0")
row(bytes "${cmd}" "" "--jobs 8 ${faults} BYTEROBUST_STREAM_CAMPAIGN=0")
gate(cli_campaign_harness_faults_spill)
row(bytes "${cmd}" "" "--jobs 1 ${faults} BYTEROBUST_STREAM_CAMPAIGN=1")
row(bytes "${cmd}" "" "--jobs 8 ${faults} BYTEROBUST_STREAM_CAMPAIGN=1")
gate(cli_campaign_harness_faults_stream)
row(bytes "${cmd}" "--stream" "--jobs 1 --stream ${faults} BYTEROBUST_STREAM_CAMPAIGN=1")
row(bytes "${cmd}" "--stream" "--jobs 8 --stream ${faults} BYTEROBUST_STREAM_CAMPAIGN=1")

if(rows EQUAL 0)
  br_fail("no rows for gate '${GATE}'")
endif()

if(GATE STREQUAL "cli_campaign_domain_determinism")
  file(READ ${last_a} doc)
  br_indices(runs "${doc}" runs)
  if(NOT runs STREQUAL "0;1;2;3;4;5;6;7")
    br_fail("expected 8 runs, found indices '${runs}'")
  endif()
  foreach(i IN LISTS runs)
    string(JSON levels LENGTH "${doc}" runs ${i} fault_domains levels)
    if(levels EQUAL 0)
      br_fail("run ${i} has an empty blast-radius block")
    endif()
  endforeach()
endif()
