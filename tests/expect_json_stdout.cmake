# Stdout check of `ecssd-sim --metrics-json -`: every command given
# after "--" (commands separated by "::") must exit 0 and print the
# metrics dump alone — its first byte "{" and its last non-blank byte
# "}", with no report or summary line around it.
#
#   cmake -P expect_json_stdout.cmake -- TOOL ARGS... [:: TOOL ARGS...]

function(expect_json_stdout)
    list(JOIN ARGN " " shown)
    execute_process(COMMAND ${ARGN}
        RESULT_VARIABLE status
        OUTPUT_VARIABLE stdout
        ERROR_VARIABLE stderr)
    if(NOT status STREQUAL "0")
        message(FATAL_ERROR
            "'${shown}' exited with '${status}', want 0:\n${stderr}")
    endif()
    string(STRIP "${stdout}" dump)
    string(LENGTH "${dump}" length)
    if(length EQUAL 0)
        message(FATAL_ERROR "'${shown}' printed nothing on stdout")
    endif()
    string(SUBSTRING "${stdout}" 0 1 first)
    math(EXPR last_index "${length} - 1")
    string(SUBSTRING "${dump}" ${last_index} 1 last)
    if(NOT first STREQUAL "{" OR NOT last STREQUAL "}")
        string(SUBSTRING "${stdout}" 0 200 head)
        message(FATAL_ERROR
            "'${shown}' stdout is not the JSON dump alone; it "
            "starts:\n${head}")
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
        expect_json_stdout(${command})
        math(EXPR checked "${checked} + 1")
        set(command "")
    else()
        list(APPEND command "${arg}")
    endif()
endforeach()
if(command)
    expect_json_stdout(${command})
    math(EXPR checked "${checked} + 1")
endif()
if(checked EQUAL 0)
    message(FATAL_ERROR "no command to check; pass them after --")
endif()
