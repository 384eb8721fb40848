# The bench smoke-gate comparator (bench_json.h) still fails runs that
# miss a gate. bench_planner --smoke runs in virtual time and is
# deterministic, so no timing decides the outcome: it exits 0 against its
# committed baseline, 1 against a copy with best_cost_usd doubled, 1
# against a copy missing a required key, and 2 on an unknown flag.
# Usage: cmake -DBENCH=<bench_planner> -DBASELINE=<BENCH_planner.baseline.json>
#              -DWORK_DIR=<dir> -P bench_gate_selftest.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_bench want_status want_text)
  execute_process(COMMAND "${BENCH}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status STREQUAL "${want_status}")
    message(FATAL_ERROR
      "bench_planner ${ARGN} exited ${status}, want ${want_status}\n${out}${err}")
  endif()
  string(FIND "${out}${err}" "${want_text}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "bench_planner ${ARGN}: output lacks '${want_text}'\n${out}${err}")
  endif()
endfunction()

file(READ "${BASELINE}" baseline)
run_bench(0 "smoke checks passed" --smoke --baseline "${BASELINE}")

# best_cost_usd doubled, computed on its decimal digits (math is integer).
string(REGEX MATCH "\"best_cost_usd\": ([0-9]+)\\.([0-9]+)" cost "${baseline}")
if(NOT cost)
  message(FATAL_ERROR "no decimal best_cost_usd in ${BASELINE}")
endif()
set(frac "${CMAKE_MATCH_2}")
string(LENGTH "${frac}" frac_len)
math(EXPR doubled "(${CMAKE_MATCH_1}${frac}) * 2")
string(LENGTH "${doubled}" doubled_len)
math(EXPR int_len "${doubled_len} - ${frac_len}")
string(SUBSTRING "${doubled}" 0 ${int_len} doubled_int)
string(SUBSTRING "${doubled}" ${int_len} ${frac_len} doubled_frac)
string(REPLACE "${cost}" "\"best_cost_usd\": ${doubled_int}.${doubled_frac}"
       doubled_baseline "${baseline}")
file(WRITE "${WORK_DIR}/doubled_cost.json" "${doubled_baseline}")
run_bench(1 "SMOKE FAIL: best_cost_usd" --smoke
          --baseline "${WORK_DIR}/doubled_cost.json")

# A required key dropped from the baseline.
string(REGEX REPLACE "\"frontier_size\": [0-9]+, " "" missing "${baseline}")
if(missing STREQUAL baseline)
  message(FATAL_ERROR "no frontier_size to drop in ${BASELINE}")
endif()
file(WRITE "${WORK_DIR}/missing_key.json" "${missing}")
run_bench(1 "SMOKE FAIL: baseline missing key 'frontier_size'" --smoke
          --baseline "${WORK_DIR}/missing_key.json")

run_bench(2 "usage: bench_planner" --smoke --bogus)
