# ctest helper: an interrupted, journalled campaign must resume to output
# byte-identical with an uninterrupted run — across every output path:
#   1. a --journal run is itself byte-identical to a plain run (the journal
#      never perturbs campaign JSON);
#   2. a run interrupted after 2 committed seeds (stop_after harness fault, the
#      deterministic stand-in for SIGINT) exits with the interrupted code (30)
#      and leaves a resumable journal;
#   3. resuming that journal — at --jobs 1, --jobs 8, and under --stream —
#      completes with exit 0 and byte-identical merged output (the --stream
#      resume is compared against a straight --stream run, since --stream uses
#      the incremental document layout);
#   4. a journal with a mismatched campaign identity is refused (exit 2).
#
#   cmake -DCLI=<byterobust binary> -DWORK_DIR=<scratch dir> -P check_campaign_resume.cmake

include(${CMAKE_CURRENT_LIST_DIR}/check_lib.cmake)

set(scenario campaign --scenario gpu-fault --seeds 6 --days 0.2 --seed 42)
set(w ${WORK_DIR})

# References: plain (spill-streaming default) and --stream layouts.
br_run(${scenario} --out ${w}/ref_default.json)
br_run(${scenario} --stream --out ${w}/ref_stream.json)

br_run(${scenario} --journal ${w}/full.journal --out ${w}/journalled.json)
br_same_bytes(${w}/ref_default.json ${w}/journalled.json "--journal output")

br_run(${scenario} --jobs 1 --journal ${w}/partial.journal --out ${w}/interrupted.json
    EXPECT 30 ENV BYTEROBUST_HARNESS_FAULTS=stop_after:2)

# Each resume works on its own copy: completing a resume completes the
# journal, and every variant must start from the interrupted state.
foreach(mode jobs1 jobs8 stream)
  configure_file(${w}/partial.journal ${w}/resume_${mode}.journal COPYONLY)
endforeach()

foreach(jobs 1 8)
  br_run(${scenario} --jobs ${jobs} --resume ${w}/resume_jobs${jobs}.journal
      --out ${w}/resumed_jobs${jobs}.json)
  br_same_bytes(${w}/ref_default.json ${w}/resumed_jobs${jobs}.json
      "resumed campaign (--jobs ${jobs})")
endforeach()

br_run(${scenario} --jobs 8 --stream --resume ${w}/resume_stream.journal
    --out ${w}/resumed_stream.json)
br_same_bytes(${w}/ref_stream.json ${w}/resumed_stream.json "resumed --stream campaign")

# A completed journal resumes to the same bytes again without re-running seeds.
br_run(${scenario} --resume ${w}/resume_jobs1.journal --out ${w}/resumed_again.json)
br_same_bytes(${w}/ref_default.json ${w}/resumed_again.json "full resume of a completed journal")

# Identity mismatch is a setup error, not a silent merge into the wrong campaign.
br_run(campaign --scenario gpu-fault --seeds 7 --days 0.2 --seed 42
    --resume ${w}/resume_jobs8.journal --out ${w}/mismatch.json EXPECT 2)
