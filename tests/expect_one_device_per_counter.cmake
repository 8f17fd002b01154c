# Counter check of an `ecssd-sim --metrics-json -` dump: a counter
# must describe one device.  The command given after "--" must exit 0
# and print a dump whose live pipeline counters agree with the
# snapshot of the same device: pipeline.batches with run.batches, and
# pipeline.fp32_bytes_read with the sum of flash.channelNN.bytes_read.
#
#   cmake -P expect_one_device_per_counter.cmake -- TOOL ARGS...

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
    OUTPUT_VARIABLE dump
    ERROR_VARIABLE stderr)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "'${shown}' exited with '${status}':\n${stderr}")
endif()

# The integer value of the unprefixed metric @name in the dump.
function(metric_value name out)
    string(REPLACE "." "\\." pattern "${name}")
    string(REGEX MATCH "\"${pattern}\": ([0-9]+)" match "${dump}")
    if(NOT match)
        message(FATAL_ERROR "'${shown}' dumped no integer ${name}")
    endif()
    set(${out} "${CMAKE_MATCH_1}" PARENT_SCOPE)
endfunction()

metric_value(pipeline.batches pipeline_batches)
metric_value(run.batches run_batches)
if(NOT pipeline_batches EQUAL run_batches)
    message(FATAL_ERROR
        "'${shown}': pipeline.batches ${pipeline_batches} counts "
        "another device's batches beside run.batches ${run_batches}")
endif()

metric_value(pipeline.fp32_bytes_read pipeline_bytes)
string(REGEX MATCHALL "\"flash\\.channel[0-9]+\\.bytes_read\": [0-9]+"
    channels "${dump}")
if(NOT channels)
    message(FATAL_ERROR "'${shown}' dumped no flash.channelNN.bytes_read")
endif()
set(flash_bytes 0)
foreach(entry IN LISTS channels)
    string(REGEX REPLACE "^.*: " "" bytes "${entry}")
    math(EXPR flash_bytes "${flash_bytes} + ${bytes}")
endforeach()
if(NOT pipeline_bytes EQUAL flash_bytes)
    message(FATAL_ERROR
        "'${shown}': pipeline.fp32_bytes_read ${pipeline_bytes} "
        "differs from the ${flash_bytes} bytes its flash channels read")
endif()
