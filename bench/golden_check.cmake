# Golden-output check for a bench: runs BENCH with ARGS (a space-separated
# string) and fails unless everything after the bench's "CSV:" marker line
# equals the file GOLDEN byte for byte. On a mismatch the actual block is
# written next to the build's copy of the test so it can be diffed.
#
#   cmake -DBENCH=<exe> -DARGS="--runs 2" -DGOLDEN=<file> -DACTUAL=<file>
#         -P golden_check.cmake

separate_arguments(bench_args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BENCH}" ${bench_args}
                OUTPUT_VARIABLE output
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${status}")
endif()
string(FIND "${output}" "\nCSV:\n" marker)
if(marker EQUAL -1)
  message(FATAL_ERROR "${BENCH} ${ARGS} printed no CSV block")
endif()
math(EXPR start "${marker} + 6")
string(SUBSTRING "${output}" ${start} -1 csv)
file(READ "${GOLDEN}" golden)
if(NOT csv STREQUAL golden)
  file(WRITE "${ACTUAL}" "${csv}")
  message(FATAL_ERROR
          "CSV block differs from ${GOLDEN}; actual output: ${ACTUAL}")
endif()
