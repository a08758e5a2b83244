// pb_lab: one end-to-end scenario invocation, exactly as
// `timing_lab run <scenario> --no-jsonl [key=value ...]` executes it
// (registry runner, tables to stdout, the runner's return code as the
// exit code), plus timing the benchmark needs: the (cold) pre-run
// resolution, and the wall and process CPU time of the runner call. The
// timings go to stderr as one line "perfbench-stats {json}" so stdout
// stays the scenario's output.
//
//   pb_lab <scenario> [key=value ...]
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/parallel.hpp"

namespace {

std::int64_t cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

/// Peak resident set of this process image (VmHWM). getrusage's
/// ru_maxrss would also count the parent's pages from before exec.
long max_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: pb_lab <scenario> [key=value ...]\n";
    return 2;
  }
  const std::int64_t s0 = perfbench::now_ns();
  const perfbench::Resolved r = perfbench::resolve(
      argv[1], std::vector<std::string>(argv + 2, argv + argc));
  const std::int64_t setup = perfbench::now_ns() - s0;
  if (!r.error.empty()) {
    std::cerr << "error: " << r.error << "\n";
    return 2;
  }

  timing::scenario::RunContext ctx;
  ctx.out = &std::cout;
  const std::int64_t c0 = cpu_ns();
  const std::int64_t t0 = perfbench::now_ns();
  const int rc = r.scenario->run(r.spec, ctx);
  std::cout.flush();
  const std::int64_t wall = perfbench::now_ns() - t0;
  const std::int64_t cpu = cpu_ns() - c0;

  std::cerr << "perfbench-stats {\"setup_ns\": " << setup
            << ", \"run_ns\": " << wall << ", \"cpu_ns\": " << cpu
            << ", \"max_rss_kb\": " << max_rss_kb() << ", \"rc\": " << rc
            << ", \"threads\": " << timing::effective_threads()
            << ", \"spec\": {\"runs\": " << r.spec.runs
            << ", \"rounds_per_run\": " << r.spec.rounds_per_run << "}"
            << ", \"build_type\": \"" << PB_BUILD_TYPE
            << "\", \"compiler\": \"" << PB_COMPILER << "\"}\n";
  return rc;
}
