// pcqbench — runs one benchmark workload and prints one JSON line.
//
//   pcqbench --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-dir DIR]
//
// Workloads: pq_mixed, sssp_road, exec_dag, service_open (workloads.hpp).
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and a span dump is written to DIR. Exit status is 0
// only if every output check passed. perfbench/run.py builds this
// program and wraps its line into the benchmark's result record.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

#ifndef PCQBENCH_FLAGS
#define PCQBENCH_FLAGS "unknown"
#endif
#ifndef PCQBENCH_COMPILER
#define PCQBENCH_COMPILER __VERSION__
#endif

namespace {

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

void print_map(const std::map<std::string, double>& m) {
  std::putchar('{');
  bool first = true;
  for (const auto& kv : m) {
    if (!first) std::putchar(',');
    first = false;
    print_json_string(kv.first);
    std::printf(":%.17g", kv.second);
  }
  std::putchar('}');
}

int usage() {
  std::fprintf(stderr,
               "usage: pcqbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's adaptive one, so every large
  // buffer (heap slots, graphs, logs) is mapped and unmapped on its own
  // and the peak RSS does not depend on what earlier set-ups left behind.
  // The high trim threshold keeps the executor's churn of small job
  // allocations from shrinking and regrowing the heap between runs.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  pcqbench::options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.workload.empty() || !(opt.seconds > 0.0))
    return usage();

  pcqbench::result r = pcqbench::run_workload(opt);
  if (opt.trace) pcqbench::complete_layer_metrics(r);

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  std::printf("\"error\":");
  print_json_string(r.error);
  std::printf(",\"metrics\":");
  print_map(r.metrics);
  std::printf(",\"info\":");
  print_map(r.info);
  std::printf(",\"build\":{\"compiler\":");
  print_json_string(PCQBENCH_COMPILER);
  std::printf(",\"flags\":");
  print_json_string(PCQBENCH_FLAGS);
  std::printf("},\"threads\":%zu,\"service_workers\":%zu}\n", opt.size.threads,
              opt.size.svc_workers);
  return r.correct ? 0 : 1;
}
