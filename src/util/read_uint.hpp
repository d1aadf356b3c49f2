// Unsigned fields of line-oriented input files (fault schedules, traces).
#pragma once

#include <charconv>
#include <istream>
#include <string>

namespace wormsim::util {

/// Read the next word of `in` into `out`. Unlike `in >> out`, which
/// reads "-5" as 2^64 - 5, this fails (returns false) on a signed,
/// out-of-range or malformed word, or on none.
template <typename Unsigned>
bool read_uint(std::istream& in, Unsigned& out) {
  std::string word;
  if (!(in >> word)) return false;
  const char* const end = word.data() + word.size();
  const auto [ptr, ec] = std::from_chars(word.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace wormsim::util
