#pragma once
// Minimal command-line flag parsing for benches and examples.
//
// Supports `--name=value`, `--name value` and boolean `--name` forms; the
// harness binaries use it so every experiment is re-runnable with tweaked
// parameters without recompiling.

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace gdiam::util {

class Options {
 public:
  Options() = default;

  /// Parses argv; throws std::invalid_argument on malformed flags.
  Options(int argc, const char* const* argv);

  /// True when the flag was present (with or without a value). Like every
  /// get_*, marks `name` as read (see unread()).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get_string(const std::string& name,
                                       std::string fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// get_int narrowed to u32 with a range check — for count-like flags such
  /// as --partitions; throws std::invalid_argument on negative or oversized
  /// values instead of silently truncating.
  [[nodiscard]] std::uint32_t get_uint32(const std::string& name,
                                         std::uint32_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Flags given on the command line that no has()/get_*() call has asked
  /// about, in name order. A command that has read all of its flags calls
  /// this to reject the rest: a misspelled or unsupported flag then fails
  /// loudly instead of silently running with the default.
  [[nodiscard]] std::vector<std::string> unread() const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// For tests: inject a flag programmatically.
  void set(const std::string& name, std::string value);

 private:
  /// Returns the flag's entry (end() when absent) and marks it read.
  [[nodiscard]] std::map<std::string, std::string>::const_iterator lookup(
      const std::string& name) const;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  mutable std::set<std::string> read_;
};

}  // namespace gdiam::util
