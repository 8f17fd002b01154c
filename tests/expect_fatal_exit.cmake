# Exit-status check of the command-line tools: every command given
# after "--" (commands separated by "::") must refuse its input the
# way sim::fatal() promises — exit status 2, a "fatal:" reason on
# stderr, and no abort on an uncaught exception.
#
#   cmake -P expect_fatal_exit.cmake -- TOOL ARGS... [:: TOOL ARGS...]

function(expect_fatal_exit)
    list(JOIN ARGN " " shown)
    execute_process(COMMAND ${ARGN}
        RESULT_VARIABLE status
        OUTPUT_QUIET
        ERROR_VARIABLE stderr)
    if(NOT status STREQUAL "2")
        message(FATAL_ERROR
            "'${shown}' exited with '${status}', want 2:\n${stderr}")
    endif()
    if(NOT stderr MATCHES "fatal: ")
        message(FATAL_ERROR
            "'${shown}' printed no fatal: reason:\n${stderr}")
    endif()
    if(stderr MATCHES "terminate called")
        message(FATAL_ERROR
            "'${shown}' aborted on an uncaught exception:\n${stderr}")
    endif()
endfunction()

set(command "")
set(checked 0)
set(in_commands FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    set(arg "${CMAKE_ARGV${i}}")
    if(NOT in_commands)
        if(arg STREQUAL "--")
            set(in_commands TRUE)
        endif()
    elseif(arg STREQUAL "::")
        expect_fatal_exit(${command})
        math(EXPR checked "${checked} + 1")
        set(command "")
    else()
        list(APPEND command "${arg}")
    endif()
endforeach()
if(command)
    expect_fatal_exit(${command})
    math(EXPR checked "${checked} + 1")
endif()
if(checked EQUAL 0)
    message(FATAL_ERROR "no command to check; pass them after --")
endif()
