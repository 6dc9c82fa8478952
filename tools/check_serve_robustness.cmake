# ctest helper: serve robustness end-to-end, through real processes and a
# real socket.
#
#  1. Admission control: on a 1-worker / 0-queue daemon whose seeds are pinned
#     by an injected cooperative hang, a per-request seed-cap violation is
#     rejected (exit 2), and a probe while the slot is occupied is load-shed
#     (exit 75) while the occupying request is unaffected.
#  2. Deadlines: a request whose deadline_s expires mid-campaign returns
#     exit 30 with a valid partial document.
#  3. Graceful drain + resume: SIGTERM mid-request drains the daemon (exit 30),
#     and a restarted daemon resuming the journaled request produces output
#     byte-identical to a straight CLI run.
# Every daemon must exit 30 (graceful drain).
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_serve_robustness.cmake

include(${CMAKE_CURRENT_LIST_DIR}/check_lib.cmake)

set(w ${WORK_DIR})

# 1. Admission control under a pinned worker.
# hang:1.0 pins every seed until the 5s watchdog; retries=0 quarantines it.
# The occupier therefore holds the only in-system slot for ~5s — a stable
# window to probe admission — and then completes as a quarantined response.
br_serve_start(serve_a --workers 1 --jobs 1 --max-queue 0 --max-seeds 8
    ENV BYTEROBUST_HARNESS_FAULTS=hang:1.0 BYTEROBUST_SEED_TIMEOUT_S=5 BYTEROBUST_SEED_RETRIES=0)
set(sock_a ${w}/serve_a.sock)

br_run(request --socket ${sock_a}
    --body "{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":64}"
    --raw --wait-s 15 --timeout-s 30 EXPECT 2)

br_bash("admission check failed (want shed_rc=75 occ_rc=20)" "\
\"${CLI}\" request --socket \"${sock_a}\" --body '{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":1}' --raw --timeout-s 60 >\"${w}/occupier.json\" 2>/dev/null & \
opid=$!; \
for i in $(seq 100); do \
  st=$(\"${CLI}\" request --socket \"${sock_a}\" --body '{\"op\":\"status\"}' --raw --timeout-s 30 2>/dev/null); \
  case \"$st\" in *'\"active_requests\":1'*) break;; esac; \
  sleep 0.05; \
done; \
\"${CLI}\" request --socket \"${sock_a}\" --body '{\"op\":\"campaign\",\"scenario\":\"quickstart\",\"seeds\":1}' --raw >\"${w}/shed.json\" 2>/dev/null; \
shed_rc=$?; \
wait $opid; occ_rc=$?; \
echo \"admission: shed_rc=$shed_rc occ_rc=$occ_rc\" >&2; \
[ $shed_rc -eq 75 ] && [ $occ_rc -eq 20 ]")
file(READ ${w}/shed.json shed_response)
if(NOT shed_response MATCHES "request queue is full")
  message(FATAL_ERROR "shed response lacks the structured reason: ${shed_response}")
endif()
file(READ ${w}/occupier.json occupier_response)
if(NOT occupier_response MATCHES "failed_runs")
  message(FATAL_ERROR "occupier (quarantined) response lacks failed_runs: ${occupier_response}")
endif()
br_serve_stop(serve_a)

# 2 + 3. Deadlines, SIGTERM drain, journal resume.
br_serve_start(serve_b --workers 1 --jobs 1)
set(journal ${w}/request.journal)

br_run(request --socket ${w}/serve_b.sock
    --body "{\"op\":\"campaign\",\"scenario\":\"dense-month\",\"seeds\":512,\"deadline_s\":0.3}"
    --wait-s 15 --timeout-s 120 --out ${w}/deadline.json EXPECT 30)
file(READ ${w}/deadline.json deadline_body)
string(JSON runs_type ERROR_VARIABLE err TYPE "${deadline_body}" runs)
string(JSON aggregate_type ERROR_VARIABLE err TYPE "${deadline_body}" aggregate)
if(NOT "${runs_type} ${aggregate_type}" STREQUAL "ARRAY OBJECT")
  message(FATAL_ERROR "deadline partial document is not a valid campaign doc: ${err}")
endif()

# Journaled request, SIGTERM mid-flight. Whether the kill lands before, during
# or after the request, the daemon must exit 30 and the later resume must
# merge to byte-identical output.
br_bash("journaled client failed across the drain" "\
\"${CLI}\" request --socket \"${w}/serve_b.sock\" --body '{\"op\":\"campaign\",\"scenario\":\"dense-month\",\"seeds\":24,\"jobs\":1,\"journal\":\"${journal}\"}' --raw --timeout-s 120 >\"${w}/journaled.json\" 2>/dev/null & \
cpid=$!; \
sleep 0.4; \
kill -TERM $(cat \"${w}/serve_b.pid\"); \
wait $cpid; client_rc=$?; \
echo \"drain: client_rc=$client_rc\" >&2; \
[ $client_rc -eq 30 ] || [ $client_rc -eq 0 ]")
br_serve_stop(serve_b SIGNALLED)

# A restarted daemon resumes the journal; the merged body must be
# byte-identical to a straight CLI run of the same campaign.
br_run(campaign --scenario dense-month --seeds 24 --jobs 1 --stream --out ${w}/ref_resume.json)
br_serve_start(serve_c --workers 1 --jobs 1)
br_run(request --socket ${w}/serve_c.sock
    --body "{\"op\":\"campaign\",\"scenario\":\"dense-month\",\"seeds\":24,\"jobs\":1,\"resume\":\"${journal}\"}"
    --wait-s 15 --timeout-s 300 --out ${w}/resumed.json)
br_same_bytes(${w}/ref_resume.json ${w}/resumed.json "resumed serve body vs the straight CLI run")
br_serve_stop(serve_c)
