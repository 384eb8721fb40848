# Numeric flags of staratlas_cli reject malformed values with a usage error
# (exit 1, the flag named on stderr) before any file is opened: words,
# signs, trailing text, overflow, and 0 where a count must be positive.
# So does a flag the command does not take.
# Usage: cmake -DCLI=<staratlas_cli> -DWORK_DIR=<dir> -P cli_numeric_flags.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli want_status want_err)
  execute_process(COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status STREQUAL "${want_status}")
    message(FATAL_ERROR
      "staratlas_cli ${ARGN} exited ${status}, want ${want_status}\n${out}${err}")
  endif()
  string(FIND "${err}" "${want_err}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
      "staratlas_cli ${ARGN}: stderr lacks '${want_err}'\n${err}")
  endif()
endfunction()

# The input files do not exist: a value that parses gets as far as opening
# them (exit 2), so exit 1 shows the flag was rejected first.
set(align align --index missing.idx --fastq missing.fastq --out-prefix out)
set(serve serve --index missing.idx --socket missing.sock)
set(bad abc -1 0 "" 3x 18446744073709551616)
foreach(value IN LISTS bad)
  run_cli(1 "--threads expects" ${align} --threads "${value}")
  run_cli(1 "--workers expects" ${serve} --workers "${value}")
  run_cli(1 "--chunk expects" ${serve} --chunk "${value}")
endforeach()
# Index threads may be 0 (one per core); a word is still rejected.
run_cli(1 "--threads expects" index --fasta missing.fa --out out.idx
        --threads abc)

# Unknown flags: the retired index --format and align --shards, and a
# typo of --threads.
run_cli(1 "unknown flag --format" index --fasta missing.fa --out out.idx
        --format v4)
run_cli(1 "unknown flag --shards" ${align} --shards 2)
run_cli(1 "unknown flag --thread" ${align} --thread 4)

# Valid values pass the flag check and fail on the missing input instead;
# every flag a command lists in its usage is accepted.
run_cli(2 "missing.idx" ${align} --threads 3 --gtf missing.gtf --early-stop
        --no-sam)
run_cli(2 "missing.idx" ${serve} --workers 1 --chunk 64 --gtf missing.gtf)
run_cli(2 "missing.fa" index --fasta missing.fa --out out.idx --threads 0
        --release 111)
run_cli(2 "missing.fa" simulate --fasta missing.fa --gtf missing.gtf
        --out out.fastq --profile bulk --reads 5 --seed 1)
run_cli(2 "missing.sock" submit --socket missing.sock --fastq missing.fastq
        --tenant t --name n --out-prefix out)
