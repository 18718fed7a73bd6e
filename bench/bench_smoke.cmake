# Runs the fig7_comparison bench at tiny scale (SILC_INSTR=20000,
# SILC_CORES=2) at SILC_THREADS=1 and at 4 (experiment-level job
# parallelism) and fails unless the stdout tables and the --json
# documents are byte-identical — the determinism contract of the
# parallel harness, over the whole registry-driven scheme x workload
# matrix.  In full detail every run of the document carries its
# telemetry series (SILC_EPOCH_TICKS=20000).  The same pair runs again
# under --sample (SILC_SAMPLE_PERIOD=10000), where the thread count is
# the width of the sampler's warming and replay pools.  Invoked by ctest
# via
#   cmake -DBENCH=<fig7 binary> -DWORKDIR=<scratch dir> -P bench_smoke.cmake

foreach(mode full sample)
    set(args)
    if(mode STREQUAL "sample")
        set(args --sample)
    endif()
    set(outputs)
    set(documents)
    foreach(threads 1 4)
        set(out ${WORKDIR}/bench_smoke_${mode}_t${threads}.out)
        set(json ${WORKDIR}/bench_smoke_${mode}_t${threads}.json)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E env
                    SILC_INSTR=20000 SILC_CORES=2 SILC_THREADS=${threads}
                    SILC_SAMPLE_PERIOD=10000 SILC_EPOCH_TICKS=20000
                    ${BENCH} ${args} --json ${json}
            OUTPUT_FILE ${out}
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                    "fig7_comparison ${args} failed (rc=${rc}) with "
                    "SILC_THREADS=${threads}")
        endif()
        list(APPEND outputs ${out})
        list(APPEND documents ${json})
    endforeach()

    foreach(pair outputs documents)
        list(GET ${pair} 0 reference)
        list(GET ${pair} 1 other)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files ${reference} ${other}
            RESULT_VARIABLE diff_rc)
        if(NOT diff_rc EQUAL 0)
            message(FATAL_ERROR
                    "fig7_comparison ${args} ${pair} differ across "
                    "SILC_THREADS: compare ${reference} against ${other}")
        endif()
    endforeach()
endforeach()
