#include "util/options.hpp"

#include <limits>
#include <stdexcept>

namespace gdiam::util {

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    if (arg.empty()) throw std::invalid_argument("bare '--' flag");
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[arg] = argv[++i];
    } else {
      flags_[arg] = "";  // boolean flag
    }
  }
}

std::map<std::string, std::string>::const_iterator Options::lookup(
    const std::string& name) const {
  read_.insert(name);
  return flags_.find(name);
}

bool Options::has(const std::string& name) const {
  return lookup(name) != flags_.end();
}

std::vector<std::string> Options::unread() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : flags_) {
    if (read_.count(name) == 0) out.push_back(name);
  }
  return out;
}

std::string Options::get_string(const std::string& name,
                                std::string fallback) const {
  const auto it = lookup(name);
  return it == flags_.end() ? std::move(fallback) : it->second;
}

std::int64_t Options::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = lookup(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return std::stoll(it->second);
}

std::uint32_t Options::get_uint32(const std::string& name,
                                  std::uint32_t fallback) const {
  const std::int64_t v = get_int(name, static_cast<std::int64_t>(fallback));
  if (v < 0 || v > static_cast<std::int64_t>(
                      std::numeric_limits<std::uint32_t>::max())) {
    throw std::invalid_argument("flag --" + name + " out of range");
  }
  return static_cast<std::uint32_t>(v);
}

double Options::get_double(const std::string& name, double fallback) const {
  const auto it = lookup(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  return std::stod(it->second);
}

bool Options::get_bool(const std::string& name, bool fallback) const {
  const auto it = lookup(name);
  if (it == flags_.end()) return fallback;
  if (it->second.empty() || it->second == "true" || it->second == "1") {
    return true;
  }
  if (it->second == "false" || it->second == "0") return false;
  throw std::invalid_argument("boolean flag --" + name + "=" + it->second);
}

void Options::set(const std::string& name, std::string value) {
  flags_[name] = std::move(value);
}

}  // namespace gdiam::util
