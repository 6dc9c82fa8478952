# ctest helper: the fleet-contention scenario must exhibit measurable
# spare-pool contention — at least one preemption or queued claim across the
# campaign's per-job JSON.
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_fleet_contention.cmake

include(${CMAKE_CURRENT_LIST_DIR}/check_lib.cmake)

br_run(fleet --scenario fleet-contention --seeds 4 --out ${WORK_DIR}/fleet_contention.json)
file(READ ${WORK_DIR}/fleet_contention.json doc)

set(contention 0)
br_indices(runs "${doc}" runs)
foreach(r IN LISTS runs)
  string(JSON run GET "${doc}" runs ${r})
  br_indices(jobs "${run}" jobs)
  foreach(j IN LISTS jobs)
    string(JSON spares GET "${run}" jobs ${j} spares)
    string(JSON gained GET "${spares}" preemptions_gained)
    string(JSON queued GET "${spares}" queued_claims)
    math(EXPR contention "${contention} + ${gained} + ${queued}")
  endforeach()
endforeach()
if(contention LESS 1)
  br_fail("fleet-contention shows no spare-pool contention")
endif()
message(STATUS "fleet-contention: ${contention} contention events")
