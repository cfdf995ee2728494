# Run a command and fail unless it exits with status EXPECT:
#
#   cmake -DEXPECT=N -P expect_exit.cmake -- PROGRAM [ARGS...]
#
# ctest alone only tells zero from non-zero; the JSON tools promise
# distinct codes (1 = difference, 2 = usage or parse error).
set(cmd)
set(start 0)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(start AND i GREATER_EQUAL start)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(NOT start AND CMAKE_ARGV${i} STREQUAL "--")
        math(EXPR start "${i} + 1")
    endif()
endforeach()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL EXPECT)
    message(FATAL_ERROR "${cmd}\nexited ${rc}, expected ${EXPECT}\n"
                        "${out}${err}")
endif()
