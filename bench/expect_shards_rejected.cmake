# Runs `${BENCH} ${ARGS}` (ARGS defaults to `--shards 2`) and passes only
# when it exits 2 with a `--shards: ` reason on stderr. Usage:
#   cmake -DBENCH=<bench binary> [-DARGS=<arguments>] -P expect_shards_rejected.cmake
if(NOT DEFINED ARGS)
  set(ARGS "--shards 2")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${args}
  RESULT_VARIABLE exit_code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT exit_code EQUAL 2)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited ${exit_code}, expected 2\n${out}${err}")
endif()
if(NOT err MATCHES "--shards: ")
  message(FATAL_ERROR "${BENCH} ${ARGS} gave no reason on stderr: ${err}")
endif()
message(STATUS "${err}")
