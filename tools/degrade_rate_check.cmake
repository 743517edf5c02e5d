# A bare `--degrade-approx` keeps the default sample rate (0.1): a governed
# run stopped at its first checkpoint must print exactly what an explicit
# `--degrade-approx 0.1` prints, and not what the full-rate run prints.
#
#   cmake -DECENSUS=ecensus -DGRAPH=g.graph -P degrade_rate_check.cmake
set(query "PATTERN t {?A-?B; ?B-?C; ?C-?A;} SELECT ID, COUNTP(t, SUBGRAPH(ID, 2)) FROM nodes")
foreach(rate "" 0.1 1)  # "" = the bare flag
  execute_process(
    COMMAND ${ECENSUS} query --graph ${GRAPH} --query "${query}"
            --algorithm nd-bas --timeout-ms 0 --csv --degrade-approx ${rate}
    OUTPUT_VARIABLE out_${rate} ERROR_QUIET)
endforeach()
if(NOT out_ STREQUAL out_0.1)
  message(FATAL_ERROR "bare --degrade-approx did not use the default rate 0.1")
endif()
if(out_0.1 STREQUAL out_1)
  message(FATAL_ERROR "rates 0.1 and 1 gave the same estimates; the check "
                      "cannot tell the rates apart")
endif()
