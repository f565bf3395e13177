# Runs `memento_sim figures <ids> --jobs 4` and requires its output to
# equal the slice of the figures golden that starts at the line
# beginning with FIRST and ends before the line beginning with END.
#
#   cmake -DSIM=<memento_sim> -DGOLDEN=<figures.txt> -DIDS=<id,id,...>
#         -DFIRST=<marker> -DEND=<marker> -DOUT=<file prefix>
#         -P figures_slice.cmake
#
# On a mismatch, the expected and actual texts are left in
# <OUT>.expected and <OUT>.actual and their diff is printed.

string(REPLACE "," ";" ids "${IDS}")
execute_process(COMMAND "${SIM}" figures ${ids} --jobs 4
                OUTPUT_VARIABLE actual
                ERROR_VARIABLE progress
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "memento_sim figures exited with ${rc}:\n${progress}")
endif()

file(READ "${GOLDEN}" golden)
string(FIND "${golden}" "\n${FIRST}" begin)
string(FIND "${golden}" "\n${END}" end)
if(begin EQUAL -1 OR end EQUAL -1 OR end LESS begin)
    message(FATAL_ERROR "no slice '${FIRST}' .. '${END}' in ${GOLDEN}")
endif()
math(EXPR begin "${begin} + 1")
math(EXPR length "${end} + 1 - ${begin}")
string(SUBSTRING "${golden}" ${begin} ${length} expected)

if(NOT actual STREQUAL expected)
    file(WRITE "${OUT}.expected" "${expected}")
    file(WRITE "${OUT}.actual" "${actual}")
    execute_process(COMMAND diff -u "${OUT}.expected" "${OUT}.actual"
                    OUTPUT_VARIABLE delta)
    message(FATAL_ERROR "figures output differs from ${GOLDEN} "
                        "('${FIRST}' .. '${END}'):\n${delta}")
endif()
