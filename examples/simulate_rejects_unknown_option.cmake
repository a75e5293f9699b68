# ctest script: `simulate` must refuse an option it does not know (here
# `--no-listio`, which it once had) with exit 2 and a message naming it,
# rather than run the default configuration.
#
#   cmake -DSIMULATE=<path to simulate> -P simulate_rejects_unknown_option.cmake
execute_process(COMMAND ${SIMULATE} --workload=ior-write --no-listio
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "simulate exited ${code}, want 2\nstdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "unknown option '--no-listio'")
  message(FATAL_ERROR "stderr does not name the option: ${err}")
endif()
