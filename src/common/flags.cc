#include "common/flags.h"

#include "common/strings.h"

namespace ocular {

Flags Flags::Parse(int argc, const char* const* argv) {
  Flags flags;
  for (int a = 1; a < argc; ++a) {
    std::string arg = argv[a];
    if (!StartsWith(arg, "--")) {
      flags.positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--name value" when the next token is not itself a flag; otherwise a
    // bare boolean.
    if (a + 1 < argc && !StartsWith(argv[a + 1], "--")) {
      flags.values_[body] = argv[a + 1];
      ++a;
    } else {
      flags.values_[body] = "true";
    }
  }
  return flags;
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& def) const {
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

int64_t Flags::GetInt(const std::string& name, int64_t def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  auto parsed = ParseInt64(it->second);
  return parsed.ok() ? parsed.value() : def;
}

int64_t Flags::GetIntInRange(const std::string& name, int64_t def,
                             int64_t lo, int64_t hi, Status* error) const {
  const int64_t value = GetInt(name, def);
  if (value >= lo && value <= hi) return value;
  if (error->ok()) {
    *error = Status::InvalidArgument("--" + name + " must be in [" +
                                     std::to_string(lo) + ", " +
                                     std::to_string(hi) + "]");
  }
  return def;
}

double Flags::GetDouble(const std::string& name, double def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  auto parsed = ParseDouble(it->second);
  return parsed.ok() ? parsed.value() : def;
}

bool Flags::GetBool(const std::string& name, bool def) const {
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  return def;
}

Result<std::string> Flags::RequireString(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) {
    return Status::InvalidArgument("missing required flag --" + name);
  }
  return it->second;
}

Result<int64_t> Flags::RequireInt(const std::string& name) const {
  OCULAR_ASSIGN_OR_RETURN(std::string raw, RequireString(name));
  return ParseInt64(raw);
}

Result<double> Flags::RequireDouble(const std::string& name) const {
  OCULAR_ASSIGN_OR_RETURN(std::string raw, RequireString(name));
  return ParseDouble(raw);
}

std::vector<std::string> Flags::Names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, v] : values_) out.push_back(k);
  return out;
}

}  // namespace ocular
