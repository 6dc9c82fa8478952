# ctest helper: a seed that fails every attempt must be quarantined — the
# campaign completes, reports the poisoned seed in a structured "failed_runs"
# block, exits with the completed-with-quarantined code (20), and the
# surviving seeds are unchanged. Verified on the default (spill) path and the
# --stream path, each against the same clean run.
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_campaign_quarantine.cmake

include(${CMAKE_CURRENT_LIST_DIR}/check_lib.cmake)

set(scenario campaign --scenario gpu-fault --seeds 4 --days 0.2 --seed 42)

br_run(${scenario} --out ${WORK_DIR}/clean.json)
file(READ ${WORK_DIR}/clean.json clean)

set(flags_stream --stream)
foreach(mode default stream)
  set(out ${WORK_DIR}/quarantine_${mode}.json)
  br_run(${scenario} --jobs 2 ${flags_${mode}} --out ${out}
      EXPECT 20 ENV BYTEROBUST_HARNESS_FAULTS=crash_seed:2)
  file(READ ${out} doc)

  # Exactly one failed run: index 2 (seed 44), with an attempt count and error.
  string(JSON failed LENGTH "${doc}" failed_runs)
  string(JSON index GET "${doc}" failed_runs 0 index)
  string(JSON seed GET "${doc}" failed_runs 0 seed)
  string(JSON attempts GET "${doc}" failed_runs 0 attempts)
  string(JSON error GET "${doc}" failed_runs 0 error)
  if(NOT failed EQUAL 1 OR NOT index EQUAL 2 OR NOT seed EQUAL 44
     OR attempts LESS 1 OR error STREQUAL "")
    br_fail("${out}: expected one failed run (index 2, seed 44, \
attempts >= 1, error text), got ${failed} (index ${index}, seed ${seed}, \
attempts ${attempts}, error '${error}')")
  endif()

  # The survivors are seeds 42, 43 and 45, each run unchanged from the clean run.
  br_indices(runs "${doc}" runs)
  if(NOT runs STREQUAL "0;1;2")
    br_fail("${out}: expected 3 surviving runs")
  endif()
  set(clean_indices 0 1 3)
  set(seeds 42 43 45)
  foreach(i clean_i want_seed IN ZIP_LISTS runs clean_indices seeds)
    string(JSON run GET "${doc}" runs ${i})
    string(JSON clean_run GET "${clean}" runs ${clean_i})
    string(JSON run_seed GET "${run}" seed)
    if(NOT run_seed EQUAL want_seed OR NOT run STREQUAL clean_run)
      br_fail("${out}: surviving run ${i} (seed ${run_seed}) differs \
from the clean run of seed ${want_seed}")
    endif()
  endforeach()
endforeach()
