# Runs a command that must be refused. Passes only if the command exits
# nonzero and its stderr matches EXPECT (a CMake regex).
#
#   cmake -DEXPECT=<regex> -P expect_cli_error.cmake -- <command> [args...]
cmake_minimum_required(VERSION 3.16)

set(cmd)
set(after_dashes FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_dashes)
    list(APPEND cmd "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(after_dashes TRUE)
  endif()
endforeach()
if(NOT cmd OR NOT DEFINED EXPECT)
  message(FATAL_ERROR
    "usage: cmake -DEXPECT=<regex> -P expect_cli_error.cmake -- <command> [args...]")
endif()

execute_process(COMMAND ${cmd}
  RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(status STREQUAL "0")
  message(FATAL_ERROR "expected a nonzero exit, got 0:\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR
    "exit ${status}, but stderr does not match '${EXPECT}':\n${err}")
endif()
message(STATUS "refused as expected (exit ${status}): ${err}")
