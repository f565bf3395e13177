# Runs `memento_sim run all --digest --jobs 4` without and then with
# --memento and requires their combined output to equal the digest
# golden byte for byte. Each of the 46 runs (23 workloads, baseline and
# Memento) hashes its statistics, cycle ledger, page tables, VMAs,
# arena headers and lists, and every resident cache line.
#
#   cmake -DSIM=<memento_sim> -DGOLDEN=<run_digests.txt>
#         -DOUT=<file prefix> -P run_digests.cmake
#
# On a mismatch, the actual text is left in <OUT>.actual and its diff
# against the golden is printed.

set(actual "")
foreach(extra "" "--memento")
    execute_process(COMMAND "${SIM}" run all --digest ${extra} --jobs 4
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE progress
                    RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "memento_sim run all --digest ${extra} exited with ${rc}:\n"
                "${progress}")
    endif()
    string(APPEND actual "${out}")
endforeach()

file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
    file(WRITE "${OUT}.actual" "${actual}")
    execute_process(COMMAND diff -u "${GOLDEN}" "${OUT}.actual"
                    OUTPUT_VARIABLE delta)
    message(FATAL_ERROR "run digests differ from ${GOLDEN}:\n${delta}")
endif()
