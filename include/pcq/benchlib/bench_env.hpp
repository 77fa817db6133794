// Bench environment knobs. Every bench runs at two scales:
//   default        — seconds per bench, for CI and smoke runs;
//   PCQ_BENCH_FULL — paper-scale parameters (minutes), for real numbers.
// PCQ_MAX_THREADS caps thread sweeps (default: hardware concurrency).

#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstddef>
#include <string>
#include <thread>

namespace pcq {
namespace bench {

inline bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' && !(value[0] == '0' &&
                                                   value[1] == '\0');
}

/// True when PCQ_BENCH_FULL is set: run at the paper's parameters.
inline bool full_scale() {
  static const bool flag = env_flag("PCQ_BENCH_FULL");
  return flag;
}

/// Picks the small or the paper-scale value of a parameter.
template <typename T>
T scaled(T small_value, T full_value) {
  return full_scale() ? full_value : small_value;
}

/// Trials per measured cell (paper: 10; default keeps benches quick).
inline unsigned trials() { return full_scale() ? 10u : 3u; }

/// Where BENCH_*.json artifacts land: $PCQ_BENCH_JSON_DIR/<name>, or the
/// working directory when unset.
inline std::string json_artifact_path(const char* filename) {
  if (const char* dir = std::getenv("PCQ_BENCH_JSON_DIR")) {
    if (dir[0] != '\0') return std::string(dir) + "/" + filename;
  }
  return filename;
}

/// A positive count from the environment, or `fallback` when `name` is
/// unset or empty. Any other value (garbage, zero, a sign, trailing
/// characters, overflow) prints the variable and exits 2, so a mistyped
/// scale fails loudly instead of running at the default.
inline std::size_t env_count(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (value[0] < '0' || value[0] > '9' || *end != '\0' || errno == ERANGE ||
      parsed == 0) {
    std::fprintf(stderr, "%s=%s is not a positive integer\n", name, value);
    std::exit(2);
  }
  return static_cast<std::size_t>(parsed);
}

/// Largest thread count benches sweep to.
inline std::size_t max_threads() {
  static const std::size_t cached = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return env_count("PCQ_MAX_THREADS", hw > 0 ? hw : 1);
  }();
  return cached;
}

}  // namespace bench
}  // namespace pcq
