# Prometheus dump check of `ecssd-sim --metrics-prom FILE`: every
# command given after "--" (commands separated by "::") runs with
# `--metrics-prom FILE` appended, must exit 0, and its dump must
# declare each metric name in one "# TYPE" line only, as the
# exposition format requires.
#
#   cmake -P expect_unique_prom_types.cmake -- TOOL ARGS... [:: TOOL ARGS...]

cmake_minimum_required(VERSION 3.16)

function(expect_unique_prom_types)
    set(dump "${CMAKE_CURRENT_BINARY_DIR}/unique_prom_types.prom")
    file(REMOVE "${dump}")
    list(JOIN ARGN " " shown)
    execute_process(COMMAND ${ARGN} --metrics-prom ${dump}
        RESULT_VARIABLE status
        OUTPUT_QUIET
        ERROR_VARIABLE stderr)
    if(NOT status STREQUAL "0")
        message(FATAL_ERROR
            "'${shown}' exited with '${status}', want 0:\n${stderr}")
    endif()
    file(STRINGS "${dump}" types REGEX "^# TYPE ")
    if(NOT types)
        message(FATAL_ERROR "'${shown}' dumped no # TYPE line")
    endif()
    set(seen "")
    set(repeated "")
    foreach(line IN LISTS types)
        string(REGEX REPLACE "^# TYPE ([^ ]+) .*$" "\\1" name "${line}")
        if(name IN_LIST seen)
            list(APPEND repeated "${name}")
        else()
            list(APPEND seen "${name}")
        endif()
    endforeach()
    if(repeated)
        list(JOIN repeated "\n  " listed)
        message(FATAL_ERROR
            "'${shown}' declares these # TYPE names more than once:\n"
            "  ${listed}")
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
        expect_unique_prom_types(${command})
        math(EXPR checked "${checked} + 1")
        set(command "")
    else()
        list(APPEND command "${arg}")
    endif()
endforeach()
if(command)
    expect_unique_prom_types(${command})
    math(EXPR checked "${checked} + 1")
endif()
if(checked EQUAL 0)
    message(FATAL_ERROR "no command to check; pass them after --")
endif()
