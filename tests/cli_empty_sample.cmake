# Aligns an empty FASTQ with staratlas_cli, unsharded and sharded, and
# checks Log.final.out and the SAM.
# Usage: cmake -DCLI=<staratlas_cli> -DWORK_DIR=<dir> -P cli_empty_sample.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli)
  execute_process(COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "staratlas_cli ${ARGN} exited ${status}\n${out}${err}")
  endif()
endfunction()

run_cli(synthesize --out-dir . --seed 7)
run_cli(index --fasta genome.fa --out genome.idx)
file(WRITE "${WORK_DIR}/empty.fastq" "")
run_cli(align --index genome.idx --fastq empty.fastq --gtf annotation.gtf
        --out-prefix empty --threads 2)
# An empty input is a valid empty sample when sharded too.
run_cli(align --index genome.idx --fastq empty.fastq --gtf annotation.gtf
        --out-prefix empty_sharded --threads 2 --shards 2)

foreach(prefix empty empty_sharded)
  file(READ "${WORK_DIR}/${prefix}.Log.final.out" log)
  string(TOLOWER "${log}" lower)
  if(lower MATCHES "\\|\t-?(nan|inf)")
    message(FATAL_ERROR "${prefix}.Log.final.out has a non-finite value:\n${log}")
  endif()
  if(NOT log MATCHES "Average input read length \\|\t0\\.0\n")
    message(FATAL_ERROR "expected a 0 average input read length:\n${log}")
  endif()
  # The SAM of an empty sample is its header alone.
  file(STRINGS "${WORK_DIR}/${prefix}.sam" sam_lines)
  foreach(line IN LISTS sam_lines)
    if(NOT line MATCHES "^@")
      message(FATAL_ERROR "${prefix}.sam has a record line: ${line}")
    endif()
  endforeach()
endforeach()
