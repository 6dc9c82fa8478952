# ctest helper: a serve daemon whose seed workers are being crashed, thrown
# at, and hung by BYTEROBUST_HARNESS_FAULTS must still answer every request
# with a body byte-identical to a clean CLI run — the supervisor retries and
# watchdog-cancels inside each request, and fault draws are keyed on
# (campaign seed, index, attempt, kind), so injected faults never leak into
# response bytes. The daemon must then drain cleanly (exit 30).
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_serve_harness_faults.cmake

include(${CMAKE_CURRENT_LIST_DIR}/check_lib.cmake)

set(w ${WORK_DIR})
br_run(campaign --scenario dense --seeds 6 --days 0.3 --stream --out ${w}/ref.json)

# Same fault spec + scenario as the cli_campaign_harness_faults* gates:
# quarantine-free for these seeds, with at least one watchdog cancel/retry.
br_serve_start(serve --workers 2 --jobs 8
    ENV BYTEROBUST_HARNESS_FAULTS=crash:0.2,throw:0.15,hang:0.5 BYTEROBUST_SEED_TIMEOUT_S=0.5)
set(req "{\"op\":\"campaign\",\"scenario\":\"dense\",\"seeds\":6,\"days\":0.3,\"jobs\":8,\"retries\":8}")
br_clients(serve "${req}" ${w}/faulted_1.json "${req}" ${w}/faulted_2.json)
foreach(i 1 2)
  br_same_bytes(${w}/ref.json ${w}/faulted_${i}.json "faulted serve body (client ${i}) vs the clean CLI run")
endforeach()
br_serve_stop(serve)
