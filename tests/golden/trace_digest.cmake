# Trace-digest test driver: run BINARY (with optional ARGS, a
# semicolon-separated list) with TIMING_TRACE=TRACE and TIMING_SPANS=ids
# in an environment without TIMING_RUNS / TIMING_THREADS, require exit
# code RC, and require the sha256 of the whole trace file to equal
# SHA256. ids-mode traces carry no timestamps, so their bytes are
# deterministic; they are pinned by digest because each is tens to
# hundreds of KB.
if(NOT DEFINED BINARY OR NOT DEFINED TRACE OR NOT DEFINED RC OR
   NOT DEFINED SHA256)
  message(FATAL_ERROR "usage: cmake -DBINARY=... [-DARGS=a;b;c] -DTRACE=... -DRC=... -DSHA256=... -P trace_digest.cmake")
endif()
if(NOT DEFINED ARGS)
  set(ARGS "")
endif()

file(REMOVE ${TRACE})
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env --unset=TIMING_RUNS --unset=TIMING_THREADS
          TIMING_TRACE=${TRACE} TIMING_SPANS=ids ${BINARY} ${ARGS}
  OUTPUT_QUIET
  RESULT_VARIABLE rc)
if(NOT rc STREQUAL RC)
  message(FATAL_ERROR "${BINARY} exited ${rc}, expected ${RC}")
endif()
if(NOT EXISTS ${TRACE})
  message(FATAL_ERROR "${BINARY} wrote no trace to ${TRACE}")
endif()
file(SHA256 ${TRACE} actual)
if(NOT actual STREQUAL SHA256)
  message(FATAL_ERROR "sha256 of ${TRACE} is ${actual}, expected ${SHA256}; "
                      "the trace is kept in the test working directory")
endif()
