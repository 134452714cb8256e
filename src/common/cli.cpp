#include "common/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/executor.hpp"
#include "common/thread_pool.hpp"

namespace mcs::common {

namespace {

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty()) return false;
  // strtoull silently negates "-1" to 2^64-1; reject signs outright so
  // --jobs=-1 (or --tasksets=-5) is an error, not a huge count.
  if (text[0] == '-' || text[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  // ERANGE: strtoull clamps an out-of-range value to 2^64-1.
  if (end == nullptr || *end != '\0' || errno == ERANGE) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  // strtod accepts "inf"/"nan" and clamps overflow to HUGE_VAL; none of
  // them is a usable parameter value.
  if (end == nullptr || *end != '\0' || errno == ERANGE ||
      !std::isfinite(v))
    return false;
  out = v;
  return true;
}

}  // namespace

Cli::Cli(std::string program_summary) : summary_(std::move(program_summary)) {}

void Cli::add_u64(const std::string& name, std::uint64_t* target,
                  const std::string& help) {
  options_.push_back({name, help, false,
                      [target](const std::string& v) {
                        return parse_u64(v, *target);
                      },
                      std::to_string(*target)});
}

void Cli::add_double(const std::string& name, double* target,
                     const std::string& help) {
  options_.push_back({name, help, false,
                      [target](const std::string& v) {
                        return parse_double(v, *target);
                      },
                      std::to_string(*target)});
}

void Cli::add_string(const std::string& name, std::string* target,
                     const std::string& help) {
  options_.push_back({name, help, false,
                      [target](const std::string& v) {
                        *target = v;
                        return true;
                      },
                      *target});
}

void Cli::add_flag(const std::string& name, bool* target,
                   const std::string& help) {
  options_.push_back({name, help, true,
                      [target](const std::string& v) {
                        if (v.empty() || v == "true" || v == "1") *target = true;
                        else if (v == "false" || v == "0") *target = false;
                        else return false;
                        return true;
                      },
                      *target ? "true" : "false"});
}

void Cli::add_jobs() {
  options_.push_back({"jobs",
                      "worker threads for parallel evaluation "
                      "(0 = hardware concurrency, 1 = serial; results are "
                      "identical for any value)",
                      false,
                      [](const std::string& v) {
                        std::uint64_t jobs = 0;
                        if (!parse_u64(v, jobs)) return false;
                        set_default_jobs(static_cast<std::size_t>(jobs));
                        return true;
                      },
                      "0"});
}

void Cli::add_output(std::string* target) {
  options_.push_back({"out",
                      "write the CSV block atomically to this file "
                      "instead of stdout (implies --csv)",
                      false,
                      [target](const std::string& v) {
                        if (v.empty()) return false;
                        *target = v;
                        return true;
                      },
                      "(stdout)"});
}

void Cli::add_shard(Shard* target) {
  options_.push_back({"shard",
                      "evaluate only slice i of N (\"i/N\") of the outer "
                      "index space and emit a partial CSV for mcs_merge; "
                      "absent = the whole space",
                      false,
                      [target](const std::string& v) {
                        try {
                          *target = Shard::parse(v);
                        } catch (const std::invalid_argument&) {
                          return false;
                        }
                        return true;
                      },
                      "0/1"});
}

const Cli::Option* Cli::find(const std::string& name) const {
  for (const auto& opt : options_)
    if (opt.name == name) return &opt;
  return nullptr;
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help_text().c_str(), stdout);
      return false;
    }
    // Let google-benchmark own its namespace.
    if (arg.rfind("--benchmark_", 0) == 0) continue;
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
      return false;
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const Option* opt = find(name);
    if (opt == nullptr) {
      std::fprintf(stderr, "unknown option: --%s\n%s", name.c_str(),
                   help_text().c_str());
      return false;
    }
    if (!has_value && !opt->is_flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "option --%s requires a value\n", name.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (!opt->apply(value)) {
      std::fprintf(stderr, "invalid value for --%s: '%s'\n", name.c_str(),
                   value.c_str());
      return false;
    }
  }
  return true;
}

std::string Cli::help_text() const {
  std::ostringstream out;
  out << summary_ << "\n\noptions:\n";
  for (const auto& opt : options_) {
    out << "  --" << opt.name;
    if (!opt.is_flag) out << "=<value>";
    out << "  (default: " << opt.default_repr << ")\n      " << opt.help
        << "\n";
  }
  out << "  --help\n      show this message\n";
  return out.str();
}

}  // namespace mcs::common
