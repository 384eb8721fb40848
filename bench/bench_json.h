// Minimal JSON emission + flat parsing for the bench harness, so every
// bench can write machine-readable BENCH_*.json result files (the perf
// trajectory future PRs are measured against) without external deps, and
// the harness the gated benches share: their flags, one interleaved
// best-of sampler, and smoke gates declared as data.
//
// Writer: insertion-ordered objects of numbers/strings/bools/nested
// objects. Reader: just enough to pull "key": number pairs back out of an
// emitted object or file for gate evaluation — not a general parser.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"

namespace staratlas::bench {

class JsonObject {
 public:
  JsonObject& add(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value) && value == std::floor(value) &&
        std::abs(value) < 1e15) {
      std::snprintf(buf, sizeof buf, "%.0f", value);
    } else {
      std::snprintf(buf, sizeof buf, "%.6g", value);
    }
    return add_raw(key, buf);
  }
  JsonObject& add(const std::string& key, u64 value) {
    return add_raw(key, std::to_string(value));
  }
  JsonObject& add(const std::string& key, int value) {
    return add_raw(key, std::to_string(value));
  }
  JsonObject& add(const std::string& key, bool value) {
    return add_raw(key, value ? "true" : "false");
  }
  JsonObject& add(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return add_raw(key, quoted);
  }
  JsonObject& add(const std::string& key, const char* value) {
    return add(key, std::string(value));
  }
  JsonObject& add(const std::string& key, const JsonObject& child) {
    return add_raw(key, child.str());
  }

  std::string str() const {
    std::ostringstream out;
    out << "{";
    for (usize i = 0; i < fields_.size(); ++i) {
      if (i) out << ", ";
      out << '"' << fields_[i].first << "\": " << fields_[i].second;
    }
    out << "}";
    return out.str();
  }

  /// Pretty form with one top-level field per line (nested objects stay
  /// on their field's line) — stable for diffs of committed results.
  std::string pretty() const {
    std::ostringstream out;
    out << "{\n";
    for (usize i = 0; i < fields_.size(); ++i) {
      out << "  \"" << fields_[i].first << "\": " << fields_[i].second;
      out << (i + 1 < fields_.size() ? ",\n" : "\n");
    }
    out << "}\n";
    return out.str();
  }

  void write_file(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    out << pretty();
  }

 private:
  JsonObject& add_raw(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Flat numeric view of JSON text: every "key": <number> pair, with
/// true/false read as 1/0, keyed by its unqualified name. Later duplicates
/// win; nesting is ignored. Sufficient for the objects this header emits.
inline std::map<std::string, double> parse_json_numbers(
    const std::string& text) {
  std::map<std::string, double> numbers;
  usize pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const usize key_end = text.find('"', pos + 1);
    if (key_end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, key_end - pos - 1);
    usize after = key_end + 1;
    while (after < text.size() && (text[after] == ' ' || text[after] == ':')) {
      ++after;
    }
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + after, &end);
    if (end != text.c_str() + after) {
      numbers[key] = value;
    } else if (text.compare(after, 4, "true") == 0) {
      numbers[key] = 1;
    } else if (text.compare(after, 5, "false") == 0) {
      numbers[key] = 0;
    }
    pos = key_end + 1;
  }
  return numbers;
}

inline std::map<std::string, double> read_json_numbers(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_json_numbers(buffer.str());
}

// ------------------------------------------------------------------
// Gated-bench harness.

/// The flags every gated bench takes.
struct BenchOptions {
  bool smoke = false;         ///< reduced configuration (the *_smoke ctests)
  std::string out_path;       ///< result JSON, default BENCH_<name>.json
  std::string baseline_path;  ///< committed baseline; empty: no gates run
};

/// Parses `--smoke`, `--out PATH` and `--baseline PATH` for bench_<name>;
/// anything else prints the usage line and exits 2.
inline BenchOptions parse_bench_options(int argc, char** argv,
                                        const std::string& name) {
  BenchOptions options;
  options.out_path = "BENCH_" + name + ".json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      options.out_path = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      options.baseline_path = argv[++i];
    } else {
      std::cerr << "usage: bench_" << name
                << " [--smoke] [--out PATH] [--baseline PATH]\n";
      std::exit(2);
    }
  }
  return options;
}

inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Best-of-`passes` timing of sides measured against each other: the one
/// sampler behind every timed ratio the benches record. Each side runs
/// once per pass and returns its figure for that pass, lower is better:
/// the seconds of its own timed window (setup it does before starting its
/// clock stays out), or a latency percentile. The side that runs first
/// rotates pass by pass (two sides: a then b, b then a), so drift in
/// machine load or clock frequency lands on every side alike instead of
/// on whichever always runs last. Returns each side's best (minimum), in
/// argument order.
template <typename... Sides>
std::array<double, sizeof...(Sides)> interleaved_best_of(usize passes,
                                                         Sides&&... sides) {
  const std::array<std::function<double()>, sizeof...(Sides)> run{
      std::ref(sides)...};
  std::array<double, sizeof...(Sides)> best;
  best.fill(std::numeric_limits<double>::infinity());
  for (usize pass = 0; pass < passes; ++pass) {
    for (usize i = 0; i < run.size(); ++i) {
      const usize side = (pass + i) % run.size();
      best[side] = std::min(best[side], run[side]());
    }
  }
  return best;
}

/// What a gate compares its key against: a constant, a factor times the
/// baseline's value of the same key, or a factor times another key of the
/// same run.
struct GateBound {
  enum class From { kConstant, kBaseline, kRunKey };
  From from = From::kConstant;
  double value = 0;  ///< the constant, or the factor
  std::string key;   ///< kRunKey: the run's key the factor scales
};
inline GateBound constant(double value) {
  return {GateBound::From::kConstant, value, {}};
}
inline GateBound times_baseline(double factor) {
  return {GateBound::From::kBaseline, factor, {}};
}
inline GateBound run_key(std::string key) {
  return {GateBound::From::kRunKey, 1.0, std::move(key)};
}

enum class GateOp { kGe, kGt, kLe, kLt, kEq };
inline constexpr const char* kGateOpNames[] = {">=", ">", "<=", "<", "=="};

inline bool gate_holds(GateOp op, double value, double bound) {
  switch (op) {
    case GateOp::kGe: return value >= bound;
    case GateOp::kGt: return value > bound;
    case GateOp::kLe: return value <= bound;
    case GateOp::kLt: return value < bound;
    case GateOp::kEq: return value == bound;
  }
  return false;
}

/// One smoke check, `key op bound`, over the run's own emitted JSON.
struct Gate {
  std::string key;
  std::optional<GateOp> op;  ///< none: only the baseline must hold `key`
  GateBound bound;
  bool baseline_holds_key = false;  ///< a baseline without `key` fails
};

/// A key the baseline must record, compared against nothing.
inline Gate recorded(std::string key) {
  return {std::move(key), std::nullopt, {}, true};
}

/// The one comparator: evaluates `gates` against `run` (the object the
/// bench wrote) and the baseline file. Prints one SMOKE FAIL line per miss;
/// returns the number of misses.
inline int count_gate_misses(const JsonObject& run,
                             const std::vector<Gate>& gates,
                             const std::string& baseline_path) {
  const auto values = parse_json_numbers(run.str());
  const auto baseline = read_json_numbers(baseline_path);
  int misses = 0;
  const auto miss = [&](const std::string& what) {
    std::cerr << "SMOKE FAIL: " << what << "\n";
    ++misses;
  };
  for (const Gate& gate : gates) {
    const bool in_baseline = baseline.count(gate.key) > 0;
    if (gate.baseline_holds_key && !in_baseline) {
      miss("baseline missing key '" + gate.key + "'");
    }
    if (!gate.op) continue;
    if (!values.count(gate.key)) {
      miss("run did not record '" + gate.key + "'");
      continue;
    }
    double scale = 1;
    std::string scale_name;
    switch (gate.bound.from) {
      case GateBound::From::kConstant:
        break;
      case GateBound::From::kBaseline:
        if (!in_baseline) continue;
        scale = baseline.at(gate.key);
        scale_name = "baseline";
        break;
      case GateBound::From::kRunKey:
        if (!values.count(gate.bound.key)) {
          miss("run did not record '" + gate.bound.key + "'");
          continue;
        }
        scale = values.at(gate.bound.key);
        scale_name = gate.bound.key;
        break;
    }
    const double value = values.at(gate.key);
    const double bound = gate.bound.value * scale;
    if (gate_holds(*gate.op, value, bound)) continue;
    std::ostringstream what;
    what << gate.key << " = " << value << ", want "
         << kGateOpNames[static_cast<int>(*gate.op)] << " " << bound;
    if (!scale_name.empty()) {
      what << " (" << gate.bound.value << " x " << scale_name << " " << scale
           << ")";
    }
    miss(what.str());
  }
  return misses;
}

/// Every gated bench's tail: writes `run` to the --out path, then, when a
/// --baseline was given, evaluates `gates`. Returns the exit code: 0, or 1
/// on any miss.
inline int finish_bench(const JsonObject& run, const BenchOptions& options,
                        const std::vector<Gate>& gates) {
  run.write_file(options.out_path);
  std::cout << "wrote " << options.out_path << "\n";
  if (options.baseline_path.empty()) return 0;
  const int misses = count_gate_misses(run, gates, options.baseline_path);
  if (misses) {
    std::cerr << misses << " smoke check(s) failed\n";
    return 1;
  }
  std::cout << "smoke checks passed vs " << options.baseline_path << "\n";
  return 0;
}

}  // namespace staratlas::bench
