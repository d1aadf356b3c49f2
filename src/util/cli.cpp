#include "util/cli.hpp"

#include <charconv>
#include <stdexcept>

namespace wormsim::util {

namespace {

bool looks_like_key(std::string_view s) {
  return s.size() > 2 && s.substr(0, 2) == "--";
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!looks_like_key(arg)) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      kv_.emplace(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
      continue;
    }
    // "--key value" when the next token is not itself a key; else a flag.
    if (i + 1 < argc && !looks_like_key(argv[i + 1])) {
      kv_.emplace(std::string(arg), std::string(argv[i + 1]));
      ++i;
    } else {
      kv_.emplace(std::string(arg), "true");
    }
  }
}

bool ArgParser::has(std::string_view key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return false;
  used_[it->first] = true;
  return true;
}

std::optional<std::string> ArgParser::get(std::string_view key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  used_[it->first] = true;
  return it->second;
}

std::string ArgParser::get_string(std::string_view key,
                                  std::string_view def) const {
  if (auto v = get(key)) return *v;
  return std::string(def);
}

long long ArgParser::get_int(std::string_view key, long long def) const {
  const auto v = get(key);
  if (!v) return def;
  long long out = 0;
  const auto res = std::from_chars(v->data(), v->data() + v->size(), out);
  if (res.ec != std::errc{} || res.ptr != v->data() + v->size()) {
    throw std::invalid_argument("--" + std::string(key) +
                                " expects an integer, got '" + *v + "'");
  }
  return out;
}

unsigned long long ArgParser::get_uint(std::string_view key,
                                       unsigned long long def) const {
  const long long v = get_int(key, static_cast<long long>(def));
  if (v < 0) {
    throw std::invalid_argument("--" + std::string(key) +
                                " expects a non-negative integer");
  }
  return static_cast<unsigned long long>(v);
}

double ArgParser::get_double(std::string_view key, double def) const {
  const auto v = get(key);
  if (!v) return def;
  try {
    std::size_t pos = 0;
    const double out = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + std::string(key) +
                                " expects a number, got '" + *v + "'");
  }
}

bool ArgParser::get_bool(std::string_view key, bool def) const {
  const auto v = get(key);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  throw std::invalid_argument("--" + std::string(key) +
                              " expects a boolean, got '" + *v + "'");
}

std::vector<std::string> ArgParser::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    if (!used_.count(k)) out.push_back(k);
  }
  return out;
}

void ArgParser::reject_unknown() const {
  const std::vector<std::string> unknown = unused();
  if (unknown.empty()) return;
  std::string msg = unknown.size() == 1 ? "unknown flag" : "unknown flags";
  for (std::size_t i = 0; i < unknown.size(); ++i) {
    msg += (i == 0 ? " --" : ", --") + unknown[i];
  }
  throw std::invalid_argument(
      msg + (unknown.size() == 1 ? ": not a flag " : ": not flags ") +
      "this program reads");
}

}  // namespace wormsim::util
