#include "trace.hpp"

#include <cstdio>

namespace perfbench {

std::int64_t Tracer::begin(std::string_view name, std::uint64_t request) {
  if (!enabled_) return -1;
  auto [it, inserted] = name_ids_.try_emplace(
      std::string(name), static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.emplace_back(name);
  const auto index = static_cast<std::int64_t>(spans_.size());
  Span span;
  span.name = it->second;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void Tracer::end(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::clear() {
  spans_.clear();
  open_.clear();
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  for (const Span& span : spans_)
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -=
          span.end_ns - span.start_ns;
  return self;
}

double Tracer::layer_self_s(std::string_view layer) const {
  std::vector<bool> match(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    const std::string& name = names_[i];
    match[i] = name == layer ||
               (name.size() > layer.size() &&
                name.compare(0, layer.size(), layer) == 0 &&
                name[layer.size()] == '.');
  }
  const std::vector<std::int64_t> self = self_ns();
  std::int64_t total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (match[spans_[i].name]) total += self[i];
  return static_cast<double>(total) * 1e-9;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::vector<std::int64_t> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"name\":\"%s\",\"request\":%llu,\"parent\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"self_ns\":%lld}\n",
                 names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
