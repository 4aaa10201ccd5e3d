#ifndef OCULAR_COMMON_FLAGS_H_
#define OCULAR_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace ocular {

/// Minimal command-line parser for the CLI tool and the bench binaries.
///
/// Accepts "--name=value", "--name value" and bare "--flag" (boolean true).
/// Anything not starting with "--" is a positional argument. No external
/// dependencies, no global state.
class Flags {
 public:
  /// Parses argv; never fails (later duplicates win).
  static Flags Parse(int argc, const char* const* argv);

  /// True if --name was present (with or without a value).
  bool Has(const std::string& name) const;

  /// Typed getters with defaults.
  std::string GetString(const std::string& name,
                        const std::string& def = "") const;
  int64_t GetInt(const std::string& name, int64_t def) const;
  double GetDouble(const std::string& name, double def) const;
  bool GetBool(const std::string& name, bool def = false) const;

  /// GetInt checked against [lo, hi]. Out of range it returns `def` and,
  /// unless `*error` already holds the first bad flag, sets it to
  /// "--name must be in [lo, hi]".
  int64_t GetIntInRange(const std::string& name, int64_t def, int64_t lo,
                        int64_t hi, Status* error) const;

  /// Strict typed getters: error when the flag is missing or malformed.
  Result<std::string> RequireString(const std::string& name) const;
  Result<int64_t> RequireInt(const std::string& name) const;
  Result<double> RequireDouble(const std::string& name) const;

  /// Positional (non-flag) arguments in order, excluding argv[0].
  const std::vector<std::string>& positional() const { return positional_; }

  /// All parsed flag names (for unknown-flag checks).
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace ocular

#endif  // OCULAR_COMMON_FLAGS_H_
