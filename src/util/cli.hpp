// Tiny argv parser shared by the examples and bench harnesses.
//
// Accepts "--key=value", "--key value" and bare "--flag" forms. Every
// main reads all the flags it knows and then calls reject_unknown(), so
// a typo or a retired flag fails loudly instead of running defaults.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wormsim::util {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  bool has(std::string_view key) const;
  std::optional<std::string> get(std::string_view key) const;

  std::string get_string(std::string_view key, std::string_view def) const;
  long long get_int(std::string_view key, long long def) const;
  unsigned long long get_uint(std::string_view key,
                              unsigned long long def) const;
  double get_double(std::string_view key, double def) const;
  bool get_bool(std::string_view key, bool def) const;

  /// Positional (non --key) arguments in order.
  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Keys that were consumed by none of the get_* calls; call at the end
  /// of argument handling to diagnose typos.
  std::vector<std::string> unused() const;

  /// Throw std::invalid_argument naming every flag in unused(). Call
  /// once, after every flag the program accepts has been read.
  void reject_unknown() const;

  const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string, std::less<>> kv_;
  mutable std::map<std::string, bool, std::less<>> used_;
  std::vector<std::string> positional_;
};

}  // namespace wormsim::util
