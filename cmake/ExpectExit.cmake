# ctest helper: run PROGRAM with the space-separated ARGS and fail unless it
# exits with status EXPECT_EXIT.
#   cmake -DPROGRAM=<path> -DARGS="<args>" -DEXPECT_EXIT=<n> -P ExpectExit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args} RESULT_VARIABLE rc)
if(NOT rc STREQUAL "${EXPECT_EXIT}")
  message(FATAL_ERROR "${PROGRAM} ${ARGS}: exit status ${rc}, "
                      "want ${EXPECT_EXIT}")
endif()
