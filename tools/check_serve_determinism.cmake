# ctest helper: the serve daemon's response bodies are a pure function of the
# request parameters. For a campaign and a fleet request, four concurrent
# clients against a daemon at --jobs 1 and at --jobs 8 must all receive bodies
# byte-identical to what the CLI's `campaign --stream` / `fleet --stream`
# prints for the same parameters. The daemon is shut down via {"op":"shutdown"}
# and must exit 30 (graceful drain).
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_serve_determinism.cmake

include(${CMAKE_CURRENT_LIST_DIR}/check_lib.cmake)

set(w ${WORK_DIR})
# CLI references (engine direct, --stream layout == serve body layout).
br_run(campaign --scenario gpu-fault --seeds 6 --stream --out ${w}/ref_campaign.json)
br_run(fleet --scenario fleet-mixed --seeds 4 --stream --out ${w}/ref_fleet.json)

set(campaign_req "{\"op\":\"campaign\",\"scenario\":\"gpu-fault\",\"seeds\":6,\"jobs\":8}")
set(fleet_req "{\"op\":\"fleet\",\"scenario\":\"fleet-mixed\",\"seeds\":4,\"jobs\":8}")

foreach(jobs 1 8)
  br_serve_start(serve_${jobs} --workers 4 --jobs ${jobs})
  # Four concurrent clients: 3x the campaign request + 1 fleet request.
  br_clients(serve_${jobs}
      "${campaign_req}" ${w}/campaign_${jobs}_1.json
      "${campaign_req}" ${w}/campaign_${jobs}_2.json
      "${campaign_req}" ${w}/campaign_${jobs}_3.json
      "${fleet_req}" ${w}/fleet_${jobs}.json)
  foreach(i 1 2 3)
    br_same_bytes(${w}/ref_campaign.json ${w}/campaign_${jobs}_${i}.json
        "serve campaign body (--jobs ${jobs}, client ${i}) vs the CLI")
  endforeach()
  br_same_bytes(${w}/ref_fleet.json ${w}/fleet_${jobs}.json "serve fleet body (--jobs ${jobs}) vs the CLI")
  br_serve_stop(serve_${jobs})
endforeach()
