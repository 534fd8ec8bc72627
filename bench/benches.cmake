# Figure/table reproduction binaries. They are built straight into
# ${CMAKE_BINARY_DIR}/bench (no add_subdirectory) so that directory holds
# exactly the runnable experiment harnesses.
set(TRIM_BENCH_DIR ${CMAKE_CURRENT_SOURCE_DIR}/bench)

function(trim_bench name)
  add_executable(${name} ${TRIM_BENCH_DIR}/${name}.cpp)
  target_link_libraries(${name} PRIVATE trim_exp)
  target_include_directories(${name} PRIVATE ${TRIM_BENCH_DIR})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

trim_bench(bench_fig01_packet_train)
trim_bench(bench_fig02_workload_cdf)
trim_bench(bench_fig04_motivation)
trim_bench(bench_fig05_concurrency_tcp)
trim_bench(bench_fig06_trim_impairment)
trim_bench(bench_fig07_concurrency_trim)
trim_bench(bench_fig08_large_scale)
trim_bench(bench_fig09_properties)
trim_bench(bench_fig10_convergence)
trim_bench(bench_fig11_multihop)
trim_bench(bench_fig12_fattree)
trim_bench(bench_table1_timeouts)
trim_bench(bench_fig13_testbed)
trim_bench(bench_ablation_trim)

trim_bench(bench_engine_micro)
target_link_libraries(bench_engine_micro PRIVATE benchmark::benchmark)
# The counting operator new/delete behind BM_EventPathAllocations.
target_sources(bench_engine_micro PRIVATE $<TARGET_OBJECTS:trim_alloc_hook>)

trim_bench(bench_flow_datapath)

trim_bench(bench_memory)
# The allocation-counting operator new/delete, so allocs/event is exact.
target_sources(bench_memory PRIVATE $<TARGET_OBJECTS:trim_alloc_hook>)

trim_bench(bench_related_delay)
trim_bench(bench_model_validation)
trim_bench(bench_persistent_connections)
trim_bench(bench_incast_collapse)
trim_bench(bench_resilience)
trim_bench(bench_conn_storm)
