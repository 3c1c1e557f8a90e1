# Runs `${BENCH} --shards 2` and passes only when it exits 2 with a reason on
# stderr. Usage: cmake -DBENCH=<bench binary> -P expect_shards_rejected.cmake
execute_process(COMMAND "${BENCH}" --shards 2
  RESULT_VARIABLE exit_code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT exit_code EQUAL 2)
  message(FATAL_ERROR "${BENCH} --shards 2 exited ${exit_code}, expected 2\n${out}${err}")
endif()
if(NOT err MATCHES "--shards: ")
  message(FATAL_ERROR "${BENCH} --shards 2 gave no reason on stderr: ${err}")
endif()
message(STATUS "${err}")
