# Golden-output test driver: run BINARY (with optional ARGS, a
# semicolon-separated list) in a clean environment (no TIMING_RUNS /
# TIMING_THREADS, which legitimately change the sweep) and require its
# stdout to be byte-identical to the GOLDEN fixture. Pins the migrated
# figure binaries — and machine-readable CLI output like
# `trace_tool summary --json` — to the committed bytes.
#
# With FROM (and optionally TO) only a part of each side is compared:
# the text after the first FROM up to the next TO, if any. That pins a
# block quoted in a document (the GOLDEN) to the command's output.
if(NOT DEFINED BINARY OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "usage: cmake -DBINARY=... [-DARGS=a;b;c] -DGOLDEN=... [-DFROM=... [-DTO=...]] -P run_and_compare.cmake")
endif()
if(NOT DEFINED ARGS)
  set(ARGS "")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E env --unset=TIMING_RUNS --unset=TIMING_THREADS
          ${BINARY} ${ARGS}
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${rc}")
endif()

file(READ ${GOLDEN} expected)

function(cut_section var)
  set(text "${${var}}")
  string(FIND "${text}" "${FROM}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "'${FROM}' not found in the ${var} text")
  endif()
  string(LENGTH "${FROM}" len)
  math(EXPR at "${at} + ${len}")
  string(SUBSTRING "${text}" ${at} -1 text)
  if(DEFINED TO)
    string(FIND "${text}" "${TO}" end)
    if(NOT end EQUAL -1)
      string(SUBSTRING "${text}" 0 ${end} text)
    endif()
  endif()
  set(${var} "${text}" PARENT_SCOPE)
endfunction()
if(DEFINED FROM)
  cut_section(actual)
  cut_section(expected)
endif()
if(NOT actual STREQUAL expected)
  get_filename_component(fixture ${GOLDEN} NAME_WE)
  file(WRITE ${fixture}.actual "${actual}")
  message(FATAL_ERROR
          "stdout differs from ${GOLDEN}; actual output saved in the test "
          "working directory as ${fixture}.actual")
endif()
