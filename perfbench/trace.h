// In-memory spans of the traced run: one per call into a layer and one
// per TCP request, written out when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call. `name` must be a string literal.
struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< spans of one request share this
};

/// Append-only span store (single-threaded).
class Tracer {
 public:
  Tracer() { spans_.reserve(1 << 16); }

  /// Records a finished span and returns its id (ids start at 1).
  uint64_t Record(const char* name, double start_us, double end_us,
                  uint64_t parent, uint64_t request);

  /// Median duration of the spans named `name`; 0 when there are none.
  double MedianUs(const std::string& name) const;

  /// Writes every span as one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Median of `v` (reordered in place); 0 for an empty vector.
double Median(std::vector<double> v);
/// Nearest-rank percentile `p` in [0, 1] of `v`; 0 for an empty vector.
double Percentile(std::vector<double> v, double p);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
