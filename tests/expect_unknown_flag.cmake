# Runs BIN with the single argument FLAG and passes only when BIN exits
# non-zero and names the flag on stderr: a flag parser must refuse a
# flag it does not know instead of running without it.
#
#   cmake -DBIN=<binary> -DFLAG=<flag> -P tests/expect_unknown_flag.cmake
execute_process(COMMAND "${BIN}" "${FLAG}"
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 10)
string(FIND "${err}" "unknown flag ${FLAG}" at)
if(rc STREQUAL "0" OR at EQUAL -1)
  message(FATAL_ERROR "${BIN} ${FLAG}: exit '${rc}', stderr: ${err}")
endif()
