# Golden-output check of the examples: the command given after "--"
# must exit 0 and print exactly the bytes of EXPECTED on stdout.  On
# a mismatch the actual output is kept next to the test as
# <name>.actual for diffing.
#
#   cmake -DEXPECTED=FILE -P expect_stdout.cmake -- PROGRAM ARGS...

if(NOT DEFINED EXPECTED)
    message(FATAL_ERROR "pass the golden file as -DEXPECTED=FILE")
endif()

set(command "")
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    set(arg "${CMAKE_ARGV${i}}")
    if(in_command)
        list(APPEND command "${arg}")
    elseif(arg STREQUAL "--")
        set(in_command TRUE)
    endif()
endforeach()
if(NOT command)
    message(FATAL_ERROR "no command to check; pass it after --")
endif()

list(JOIN command " " shown)
execute_process(COMMAND ${command}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "'${shown}' exited with '${status}':\n${stderr}")
endif()

file(READ "${EXPECTED}" expected)
if(NOT stdout STREQUAL expected)
    get_filename_component(name "${EXPECTED}" NAME_WE)
    set(actual "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
    file(WRITE "${actual}" "${stdout}")
    message(FATAL_ERROR
        "'${shown}' stdout differs from ${EXPECTED}; "
        "actual output: ${actual}")
endif()
