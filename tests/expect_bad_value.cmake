# Runs BIN with FLAG and, when VALUE is not empty, VALUE; passes only
# when BIN exits 2 and prints "bad value for FLAG" on stderr: a flag
# parser must refuse a missing, malformed or meaningless value instead
# of running with a guess.
#
#   cmake -DBIN=<binary> -DFLAG=<flag> [-DVALUE=<value>] \
#         -P tests/expect_bad_value.cmake
execute_process(COMMAND "${BIN}" ${FLAG} ${VALUE}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err
                TIMEOUT 10)
string(FIND "${err}" "bad value for ${FLAG}" at)
if(NOT rc STREQUAL "2" OR at EQUAL -1)
  message(FATAL_ERROR "${BIN} ${FLAG} ${VALUE}: exit '${rc}', stderr: ${err}")
endif()
