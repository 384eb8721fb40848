# Golden artifacts of `staratlas_cli align`: SAM, SJ.out.tab,
# ReadsPerGene.out.tab and Log.final.out (without its timing row) must
# match fixed SHA-256 digests at every thread and shard count, and an
# early-stopped run must stop at the same read count and write no SAM.
# Usage: cmake -DCLI=<staratlas_cli> -DWORK_DIR=<dir> -P cli_sam_golden.cmake

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_cli out_var)
  execute_process(COMMAND "${CLI}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "staratlas_cli ${ARGN} exited ${status}\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Digest of an artifact; Log.final.out without its "Mapping speed" row,
# the one value that depends on wall time.
function(artifact_digest path out_var)
  if(path MATCHES "Log\\.final\\.out$")
    file(READ "${path}" text)
    string(REGEX REPLACE "[^\n]*Mapping speed[^\n]*\n" "" text "${text}")
    string(SHA256 digest "${text}")
  else()
    file(SHA256 "${path}" digest)
  endif()
  set(${out_var} "${digest}" PARENT_SCOPE)
endfunction()

function(expect_digest prefix suffix want)
  artifact_digest("${WORK_DIR}/${prefix}${suffix}" got)
  if(NOT got STREQUAL want)
    message(FATAL_ERROR "${prefix}${suffix}: digest ${got}, want ${want}")
  endif()
endfunction()

run_cli(out synthesize --out-dir . --seed 7)
run_cli(out index --fasta genome.fa --out genome.idx)
run_cli(out simulate --fasta genome.fa --gtf annotation.gtf --out bulk.fastq
        --reads 5000 --seed 11)
run_cli(out simulate --fasta genome.fa --gtf annotation.gtf --out sc.fastq
        --profile single_cell --reads 5000 --seed 13)

# One set of digests for every configuration: thread and shard counts
# must not change a byte.
foreach(config "t1;--threads;1" "t4;--threads;4" "s3;--threads;2;--shards;3")
  list(POP_FRONT config prefix)
  run_cli(out align --index genome.idx --fastq bulk.fastq --gtf annotation.gtf
          --out-prefix ${prefix} ${config})
  expect_digest(${prefix} .sam
    8f124ed9acd3dc1164e3d7df05ed6b46696db92a7b381768c68f5b61fd2f9db2)
  expect_digest(${prefix} .SJ.out.tab
    a6fcfbcaef88f49bc9b20afaa51216892eb5c0d93b3975d8542f2ca553e67af4)
  expect_digest(${prefix} .ReadsPerGene.out.tab
    8728a2a28dcdf758719b3d8d8f9b53ee49deec396ecbb288a5ed8486ccf8a16c)
  expect_digest(${prefix} .Log.final.out
    b1ea76543499d2ab18f224e88a878d5cfc295cd4527447fc915fc4e9b62532b0)
endforeach()

# Early stopping aborts at the first 256-read commit past the 10%
# checkpoint and leaves no SAM behind.
run_cli(out align --index genome.idx --fastq sc.fastq --gtf annotation.gtf
        --out-prefix sc --threads 2 --early-stop)
if(NOT out MATCHES "aligned 512/5000 reads: [^\n]*\\[EARLY-STOPPED\\]")
  message(FATAL_ERROR "expected an early stop at 512/5000 reads:\n${out}")
endif()
if(EXISTS "${WORK_DIR}/sc.sam")
  message(FATAL_ERROR "an early-stopped run wrote sc.sam")
endif()
expect_digest(sc .SJ.out.tab
  535a4cf0a4b5b38ecf2af1293aeb73f2b6ce43f14f4ba5456dee21bcbd0a930b)
expect_digest(sc .ReadsPerGene.out.tab
  790bb6c49a6530f0faa4f63e04c5ca12630b5e25ed164594af20125b93168b79)
expect_digest(sc .Log.final.out
  17f231aa8e0585f21808959586db2bfdbfe451973bb257da7c84bd056c0141ef)
