# Runs `PROGRAM --model missing.bin --FLAG VALUE` and fails unless it exits 2
# with an error naming --FLAG.
#
#   cmake -DPROGRAM=adarts_serve -DFLAG=port -DVALUE=abc -P expect_bad_flag.cmake
execute_process(
  COMMAND ${PROGRAM} --model missing.bin --${FLAG} ${VALUE}
  RESULT_VARIABLE exit_code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT exit_code EQUAL 2)
  message(FATAL_ERROR "--${FLAG} ${VALUE}: exit ${exit_code}, expected 2\n${out}${err}")
endif()
string(FIND "${err}" "--${FLAG}" named)
if(named EQUAL -1)
  message(FATAL_ERROR "--${FLAG} ${VALUE}: the error does not name the flag\n${err}")
endif()
