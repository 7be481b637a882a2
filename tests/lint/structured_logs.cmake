# Structured-log lint: every SENTINEL_{DEBUG,INFO,WARN,ERROR} << site under
# SRC_DIR must start its message with "event=", so each log line reads as
# `event=<name> key=value ...`.
#
#   cmake -DSRC_DIR=<repo>/src -P tests/lint/structured_logs.cmake
#
# Exits nonzero and names each offending site when one does not.

if(NOT SRC_DIR)
  message(FATAL_ERROR "usage: cmake -DSRC_DIR=<dir> -P structured_logs.cmake")
endif()

set(ws "[ \t\r\n]*")
file(GLOB_RECURSE sources "${SRC_DIR}/*.cc" "${SRC_DIR}/*.h")
set(sites 0)
set(offenders 0)
foreach(path IN LISTS sources)
  file(READ "${path}" text)
  # A site runs to the end of its line or statement; `;` is excluded so a
  # match never splits as a CMake list.
  string(REGEX MATCHALL "SENTINEL_(DEBUG|INFO|WARN|ERROR)${ws}<<[^\n;]*"
         found "${text}")
  foreach(site IN LISTS found)
    math(EXPR sites "${sites} + 1")
    if(NOT site MATCHES "<<${ws}\"event=")
      math(EXPR offenders "${offenders} + 1")
      file(RELATIVE_PATH rel "${SRC_DIR}" "${path}")
      message("${rel}: log site does not start with \"event=: ${site}")
    endif()
  endforeach()
endforeach()

if(sites EQUAL 0)
  message(FATAL_ERROR "no log sites found under ${SRC_DIR}")
endif()
if(offenders GREATER 0)
  message(FATAL_ERROR "${offenders} of ${sites} log sites are not key=value")
endif()
message(STATUS "${sites} log sites, all key=value")
