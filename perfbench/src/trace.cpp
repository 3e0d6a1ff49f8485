#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

namespace perfbench {

std::map<std::string, double> pass_medians(const std::vector<PassSums>& passes) {
  std::set<std::string> keys;
  for (const PassSums& pass : passes) {
    for (const auto& [key, value] : pass) keys.insert(key);
  }
  std::map<std::string, double> out;
  for (const std::string& key : keys) {
    std::vector<double> values;
    for (const PassSums& pass : passes) {
      const auto it = pass.find(key);
      values.push_back(it == pass.end() ? 0.0 : it->second);
    }
    out[key] = median(values);
  }
  return out;
}

double Trace::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
}

int Trace::open(const char* name, long request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = now_us();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Trace::close(int id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_us = now_us();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  if (sums_ != nullptr) (*sums_)[span.name + "_ms"] += (span.end_us - span.start_us) / 1000.0;
}

void Trace::record(const char* name, long request, Clock::time_point start, Clock::time_point end,
                   int lane) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.request = request;
  span.start_us = std::chrono::duration<double, std::micro>(start - origin_).count();
  span.end_us = std::chrono::duration<double, std::micro>(end - origin_).count();
  span.lane = lane;
  spans_.push_back(std::move(span));
  if (sums_ != nullptr) {
    (*sums_)[std::string(name) + "_ms"] += ms_between(start, end);
  }
}

void Trace::count(const std::string& name, double value) {
  if (!enabled_ || sums_ == nullptr) return;
  (*sums_)[name] += value;
}

bool Trace::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    char buf[160];
    std::snprintf(buf, sizeof(buf), "\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d",
                  span.start_us, span.end_us - span.start_us, span.lane);
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << json_escape(span.name) << "\",\"cat\":\""
        << json_escape(layer) << "\"," << buf << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::string Trace::self_time_table() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_us[static_cast<std::size_t>(span.parent)] += span.end_us - span.start_us;
  }
  struct Row {
    std::size_t spans = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> by_name;
  std::map<std::string, Row> by_layer;
  double all_self_ms = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double total = (span.end_us - span.start_us) / 1000.0;
    const double self = total - child_us[i] / 1000.0;
    Row& row = by_name[span.name];
    ++row.spans;
    row.total_ms += total;
    row.self_ms += self;
    Row& layer = by_layer[span.name.substr(0, span.name.find('.'))];
    ++layer.spans;
    layer.total_ms += total;
    layer.self_ms += self;
    all_self_ms += self;
  }
  std::ostringstream out;
  char line[200];
  std::snprintf(line, sizeof(line), "%-28s %8s %12s %12s %7s\n", "span", "count", "total_ms",
                "self_ms", "self%");
  out << line;
  const auto emit = [&](const std::string& name, const Row& row) {
    std::snprintf(line, sizeof(line), "%-28s %8zu %12.3f %12.3f %6.1f%%\n", name.c_str(),
                  row.spans, row.total_ms, row.self_ms,
                  all_self_ms > 0.0 ? 100.0 * row.self_ms / all_self_ms : 0.0);
    out << line;
  };
  for (const auto& [name, row] : by_name) emit(name, row);
  out << "-- per layer --\n";
  for (const auto& [name, row] : by_layer) emit(name, row);
  return out.str();
}

}  // namespace perfbench
