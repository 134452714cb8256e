#include "mc/io.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <map>
#include <sstream>

#include "stats/distributions.hpp"

namespace mcs::mc {

namespace {

/// Round-trip-safe double formatting.
std::string fmt(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

[[noreturn]] void fail(std::size_t line_number, const std::string& message) {
  throw TaskSetParseError("taskset parse error at line " +
                          std::to_string(line_number) + ": " + message);
}

double parse_double_or_fail(const std::string& text, std::size_t line_number,
                            const std::string& key) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty() ||
      !std::isfinite(value))
    fail(line_number, "bad numeric value for " + key + ": '" + text + "'");
  return value;
}

}  // namespace

void save_taskset(std::ostream& out, const TaskSet& tasks) {
  out << "taskset v1\n";
  for (const McTask& task : tasks) {
    out << "task " << task.name << " "
        << (task.criticality == Criticality::kHigh ? "HC" : "LC")
        << " wcet_lo=" << fmt(task.wcet_lo) << " wcet_hi=" << fmt(task.wcet_hi)
        << " period=" << fmt(task.period);
    if (!task.implicit_deadline())
      out << " deadline=" << fmt(task.deadline_override);
    if (task.stats.has_value())
      out << " acet=" << fmt(task.stats->acet)
          << " sigma=" << fmt(task.stats->sigma);
    out << "\n";
  }
}

std::string taskset_to_string(const TaskSet& tasks) {
  std::ostringstream out;
  save_taskset(out, tasks);
  return out.str();
}

TaskSet load_taskset(std::istream& in, bool attach_distributions) {
  TaskSet tasks;
  std::string line;
  std::size_t line_number = 0;
  bool header_seen = false;

  while (std::getline(in, line)) {
    ++line_number;
    // Strip comments and whitespace-only lines.
    if (const auto hash = line.find('#'); hash != std::string::npos)
      line = line.substr(0, hash);
    std::istringstream words(line);
    std::string first;
    if (!(words >> first)) continue;

    if (!header_seen) {
      std::string version;
      if (first != "taskset" || !(words >> version) || version != "v1")
        fail(line_number, "expected 'taskset v1' header");
      header_seen = true;
      continue;
    }

    if (first != "task") fail(line_number, "expected 'task', got '" + first + "'");
    std::string name;
    std::string crit_text;
    if (!(words >> name >> crit_text))
      fail(line_number, "task needs a name and a criticality");
    Criticality crit;
    if (crit_text == "HC") crit = Criticality::kHigh;
    else if (crit_text == "LC") crit = Criticality::kLow;
    else fail(line_number, "criticality must be LC or HC, got '" +
                               crit_text + "'");

    std::map<std::string, double> fields;
    std::string kv;
    while (words >> kv) {
      const auto eq = kv.find('=');
      if (eq == std::string::npos)
        fail(line_number, "expected key=value, got '" + kv + "'");
      const std::string key = kv.substr(0, eq);
      if (fields.count(key) != 0)
        fail(line_number, "duplicate key '" + key + "'");
      fields[key] = parse_double_or_fail(kv.substr(eq + 1), line_number, key);
    }
    for (const char* required : {"wcet_lo", "wcet_hi", "period"})
      if (fields.count(required) == 0)
        fail(line_number, std::string("missing required key '") + required +
                              "'");
    const bool has_acet = fields.count("acet") != 0;
    const bool has_sigma = fields.count("sigma") != 0;
    if (has_acet != has_sigma)
      fail(line_number, "acet and sigma must appear together");
    for (const auto& [key, value] : fields) {
      static const std::set<std::string> known = {
          "wcet_lo", "wcet_hi", "period", "deadline", "acet", "sigma"};
      if (known.count(key) == 0)
        fail(line_number, "unknown key '" + key + "'");
      (void)value;
    }

    McTask task;
    task.name = name;
    task.criticality = crit;
    task.wcet_lo = fields["wcet_lo"];
    task.wcet_hi = fields["wcet_hi"];
    task.period = fields["period"];
    if (fields.count("deadline") != 0)
      task.deadline_override = fields["deadline"];
    if (has_acet) {
      ExecutionStats stats;
      stats.acet = fields["acet"];
      stats.sigma = fields["sigma"];
      if (stats.acet <= 0.0 || stats.sigma < 0.0)
        fail(line_number, "acet must be > 0 and sigma >= 0");
      if (attach_distributions && stats.sigma > 0.0)
        stats.distribution = stats::LogNormalDistribution::from_moments(
            stats.acet, stats.sigma);
      task.stats = stats;
    }
    if (!task.valid())
      fail(line_number,
           "invalid task parameters (need 0 < wcet_lo <= wcet_hi <= period)");
    tasks.add(std::move(task));
  }
  if (!header_seen)
    throw TaskSetParseError("taskset parse error: missing 'taskset v1' header");
  return tasks;
}

TaskSet taskset_from_string(const std::string& text,
                            bool attach_distributions) {
  std::istringstream in(text);
  return load_taskset(in, attach_distributions);
}

}  // namespace mcs::mc
