# CLI determinism across shard counts: arpanet_sim with trunk events must
# print byte-identical stdout at --shards=1, 2 and 4 (docs/performance.md,
# "Sharded engine"), and reject a lone --recover-trunk with exit 1 at each.
# A trunk that stays down must not come back up at the end of the run: its
# update count must differ from a recovery due exactly at the end, which
# originates one update at each endpoint.
#
# Usage: cmake -DARPANET_SIM=<arpanet_sim binary> -P <this file>

# The cli_arpanet_sim_failure case: a trunk that stays down to the end.
set(grid_failure
    --topology=grid:3x3 --fail-trunk=g0_0-g1_0@15
    --warmup-sec=10 --window-sec=20 --load-kbps=40 --utilization)
# A trunk that fails inside the window and recovers before its end.
set(arpanet87_fail_recover
    --load-kbps=500 --warmup-sec=60 --window-sec=120
    --fail-trunk=MIT-LINCOLN@80 --recover-trunk=MIT-LINCOLN@140)

foreach(case grid_failure arpanet87_fail_recover)
  foreach(shards 1 2 4)
    execute_process(
      COMMAND ${ARPANET_SIM} ${${case}} --shards=${shards}
      OUTPUT_VARIABLE out
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${case}: arpanet_sim --shards=${shards} failed "
                          "with ${rc}")
    endif()
    if(shards EQUAL 1)
      set(reference "${out}")
      set(${case}_stdout "${out}")
    elseif(NOT out STREQUAL reference)
      message(FATAL_ERROR "${case}: --shards=${shards} stdout differs from "
                          "--shards=1\n--- shards=1 ---\n${reference}"
                          "--- shards=${shards} ---\n${out}")
    endif()
  endforeach()
endforeach()

# grid_failure's run ends at 30 s.
string(REGEX MATCH "updates [^\n]*" down_to_end "${grid_failure_stdout}")
execute_process(
  COMMAND ${ARPANET_SIM} ${grid_failure} --recover-trunk=g0_0-g1_0@30
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
string(REGEX MATCH "updates [^\n]*" up_at_end "${out}")
if(NOT rc EQUAL 0 OR down_to_end STREQUAL "" OR down_to_end STREQUAL up_at_end)
  message(FATAL_ERROR "grid_failure counts a link-up at the end of the run "
                      "(exit ${rc}): '${down_to_end}' with the trunk down to "
                      "the end, '${up_at_end}' with it up at the end")
endif()

foreach(shards 1 2 4)
  execute_process(
    COMMAND ${ARPANET_SIM} --topology=grid:3x3 --recover-trunk=g0_0-g1_0@15
            --shards=${shards}
    OUTPUT_QUIET ERROR_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "lone --recover-trunk at --shards=${shards}: expected "
                        "exit 1 (usage error), got ${rc}")
  endif()
endforeach()
