#include "bench_util.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <type_traits>

#include "src/graph/generators.h"
#include "src/simt/log.h"

namespace nestpar::bench {

namespace slog = simt::log;

Args::Args(int argc, char** argv, std::string_view usage) {
  std::vector<std::string> flags;
  flags.reserve(static_cast<std::size_t>(argc > 0 ? argc - 1 : 0));
  for (int i = 1; i < argc; ++i) flags.emplace_back(argv[i]);
  parse(flags, usage);
}

Args::Args(const std::vector<std::string>& flags, std::string_view usage) {
  parse(flags, usage);
}

void Args::parse(const std::vector<std::string>& flags,
                 std::string_view usage) {
  const int usage_len = static_cast<int>(usage.size());
  for (const std::string& arg : flags) {
    if (arg == "--help" || arg == "-h") {
      std::printf("%.*s\n", usage_len, usage.data());
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      slog::error("unknown argument '%s'\n%.*s\n", arg.c_str(), usage_len,
                  usage.data());
      std::exit(2);
    }
    const auto eq = arg.find('=');
    const std::string key =
        eq == std::string::npos ? arg.substr(2) : arg.substr(2, eq - 2);
    const std::string value =
        eq == std::string::npos ? "1" : arg.substr(eq + 1);
    if (values_.count(key)) {
      slog::warn("warning: flag '--%s' given twice; using '%s'\n", key.c_str(),
                 value.c_str());
    }
    values_[key] = value;
  }
  if (usage.empty()) return;
  for (const auto& [k, v] : values_) {
    if (usage.find("--" + k) == std::string_view::npos) {
      slog::error("unknown flag '--%s'\n%.*s\n", k.c_str(), usage_len,
                  usage.data());
      std::exit(2);
    }
  }
}

namespace {

/// Parses all of `text` as one finite T; anything else (trailing garbage,
/// overflow, inf/nan, empty) throws std::invalid_argument naming the flag.
template <class T>
T parse_flag_number(const std::string& name, const std::string& text,
                    const char* what) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) {
    throw std::invalid_argument("flag '--" + name + "' needs " + what +
                                ", got '" + text + "'");
  }
  return v;
}

}  // namespace

double Args::get_double(const std::string& name, double def) const {
  auto it = values_.find(name);
  return it == values_.end()
             ? def
             : parse_flag_number<double>(name, it->second, "a finite number");
}

std::int64_t Args::get_int(const std::string& name, std::int64_t def) const {
  auto it = values_.find(name);
  return it == values_.end()
             ? def
             : parse_flag_number<std::int64_t>(name, it->second,
                                               "an integer");
}

std::string Args::get_string(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

bool Args::get_flag(const std::string& name) const {
  return values_.count(name) > 0;
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(const SuiteSpec& spec) {
  if (count_ >= kCapacity) {
    slog::error("suite registry full (capacity %zu)\n", kCapacity);
    std::exit(2);
  }
  std::size_t pos = count_;
  while (pos > 0 && spec.name < suites_[pos - 1].name) {
    suites_[pos] = suites_[pos - 1];
    --pos;
  }
  suites_[pos] = spec;
  ++count_;
}

const SuiteSpec* Registry::find(std::string_view name) const {
  for (const SuiteSpec& s : suites()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

Registration::Registration(const SuiteSpec& spec) {
  Registry::instance().add(spec);
}

void banner(const std::string& title, const std::string& paper_expectation) {
  std::printf("==================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("paper: %s\n", paper_expectation.c_str());
  std::printf("==================================================================\n");
}

namespace {
void print_cells(const std::vector<std::string>& cells) {
  for (const auto& c : cells) {
    std::printf("%-14s", c.c_str());
  }
  std::printf("\n");
}
}  // namespace

void table_header(const std::vector<std::string>& columns) {
  print_cells(columns);
  std::string rule(columns.size() * 14, '-');
  std::printf("%s\n", rule.c_str());
}

void table_row(const std::vector<std::string>& cells) { print_cells(cells); }

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string fmt_pct(double ratio) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f%%", ratio * 100.0);
  return buf;
}

std::string robustness_note(const simt::RunReport& rep) {
  const simt::RobustnessCounters& rb = rep.robustness;
  if (!rb.any_fault()) return "";
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                " [refused=%llu retried=%llu degraded=%llu]",
                static_cast<unsigned long long>(rb.refused_total()),
                static_cast<unsigned long long>(rb.retries),
                static_cast<unsigned long long>(rb.degraded));
  return buf;
}

std::uint32_t first_active_source(const graph::Csr& g) {
  for (std::uint32_t v = 0; v < g.num_nodes(); ++v) {
    if (g.degree(v) > 0) return v;
  }
  return 0;
}

graph::Csr citeseer(double scale, bool weighted) {
  return graph::generate_citeseer_like(scale, /*seed=*/20150707, weighted);
}

graph::Csr wikivote(double scale) {
  return graph::generate_wikivote_like(scale, /*seed=*/20150707);
}

}  // namespace nestpar::bench
