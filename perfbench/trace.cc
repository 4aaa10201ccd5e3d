#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

uint64_t Tracer::Record(const char* name, double start_us, double end_us,
                        uint64_t parent, uint64_t request) {
  Span s;
  s.name = name;
  s.start_us = start_us;
  s.end_us = end_us;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.request = request;
  spans_.push_back(s);
  return s.id;
}

double Tracer::MedianUs(const std::string& name) const {
  std::vector<double> d;
  for (const Span& s : spans_) {
    if (name == s.name) d.push_back(s.end_us - s.start_us);
  }
  return Median(std::move(d));
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}\n",
                 s.name, s.start_us, s.end_us,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const size_t k = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

}  // namespace perfbench
