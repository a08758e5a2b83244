# Run BINARY with ARGS (a ;-list) and require exit code RC and a line of
# combined stdout+stderr matching the regular expression MATCH. Pins
# usage errors to their exit code: PASS_REGULAR_EXPRESSION alone ignores
# it, so an abort that printed the same text would pass.
if(NOT DEFINED BINARY OR NOT DEFINED RC OR NOT DEFINED MATCH)
  message(FATAL_ERROR "usage: cmake -DBINARY=... [-DARGS=a;b;c] -DRC=... -DMATCH=... -P expect_exit.cmake")
endif()
if(NOT DEFINED ARGS)
  set(ARGS "")
endif()
execute_process(COMMAND ${BINARY} ${ARGS}
                OUTPUT_VARIABLE out ERROR_VARIABLE out
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL RC)
  message(FATAL_ERROR "${BINARY} exited ${rc}, expected ${RC}:\n${out}")
endif()
if(NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "output does not match '${MATCH}':\n${out}")
endif()
