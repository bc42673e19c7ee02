# bench_e2e_smoke: every workload shrunk to seconds (--quick), untraced and
# traced. adarts_bench itself fails a run whose printed metrics differ from
# the ones BENCHMARK.json declares or whose correctness checks fail; this
# script additionally requires each result line to parse as JSON and
# tools/trace_stats to load every written trace.
#
#   cmake -DBENCH=... -DTRACE_STATS=... -DWORKDIR=... -DBENCHMARK_JSON=...
#         -P smoke.cmake
foreach(var BENCH TRACE_STATS WORKDIR BENCHMARK_JSON)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "smoke.cmake needs -D${var}=...")
  endif()
endforeach()
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

file(READ ${BENCHMARK_JSON} spec)
string(JSON workload_count LENGTH "${spec}" workloads)
math(EXPR last "${workload_count} - 1")
foreach(i RANGE ${last})
  string(JSON workload GET "${spec}" workloads ${i} name)
  foreach(trace 0 1)
    execute_process(
      COMMAND ${BENCH} --workload ${workload} --seed 1 --seconds 2
              --trace ${trace} --quick --workdir ${WORKDIR}
              --trace-file ${WORKDIR}/trace.${workload}.json
              --benchmark-json ${BENCHMARK_JSON}
      RESULT_VARIABLE code
      OUTPUT_VARIABLE out)
    if(NOT code EQUAL 0)
      message(FATAL_ERROR "${workload} --trace ${trace} failed:\n${out}")
    endif()
    string(STRIP "${out}" out)
    string(REGEX REPLACE "^.*\n" "" result "${out}")
    string(JSON correct GET "${result}" correct)
    if(NOT correct)
      message(FATAL_ERROR "${workload} --trace ${trace}: not correct")
    endif()
    message(STATUS "${workload} --trace ${trace}: ${result}")
  endforeach()
  execute_process(COMMAND ${TRACE_STATS} ${WORKDIR}/trace.${workload}.json
                  RESULT_VARIABLE code OUTPUT_QUIET)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "trace_stats cannot read the ${workload} trace")
  endif()
endforeach()
