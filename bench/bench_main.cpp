// The main() of every scenario bench binary. bench/CMakeLists.txt builds
// this file once per (binary, scenario) pair of its tm_bench_scenarios
// list, naming the registry entry in TM_SCENARIO; the same run is
// reachable as `timing_lab run <scenario>`.
#include "scenario/cli.hpp"

int main(int argc, char** argv) {
  return timing::scenario::bench_main(TM_SCENARIO, argc, argv);
}
