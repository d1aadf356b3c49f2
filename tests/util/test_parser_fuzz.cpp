// Seeded mutation fuzz over every text input the simulator reads: fault
// schedules, the `transient:` fault preset, message traces, CLI flag
// values and the observability flags ObsSession checks, the enum names
// the flags select, and the test-side JSON reader. Valid seed inputs are
// mutated by byte flips, inserts, deletes and digit-run splices; every
// mutant must either parse or throw std::invalid_argument. Sign-prefixed
// numbers in schedules and traces must throw. Any other exception fails the test, and a
// crash fails the binary (it runs in the ASan+UBSan preflight).
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "../support/json_parse.hpp"
#include "core/limiter.hpp"
#include "fault/schedule.hpp"
#include "harness/telemetry.hpp"
#include "obs/log.hpp"
#include "routing/routing.hpp"
#include "routing/selection.hpp"
#include "sim/flow_control.hpp"
#include "sim/simulator.hpp"
#include "topology/kary_ncube.hpp"
#include "traffic/injection_process.hpp"
#include "traffic/patterns.hpp"
#include "traffic/trace.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace wormsim {
namespace {

constexpr int kMutantsPerTarget = 5000;

/// Numbers at the edges of the widths the parsers read into.
constexpr std::string_view kEdgeNumbers[] = {
    "0",          "1",          "-1",         "255",
    "256",        "65535",      "65536",      "4294967295",
    "4294967296", "4294967297", "9223372036854775807",
    "9223372036854775808",      "18446744073709551615",
    "18446744073709551616",     "99999999999999999999999999",
    "1e308",      "1e999",      "-0",         "0x10",
};

/// Bytes the parsers give meaning to, plus a few they should never see.
constexpr std::string_view kInteresting = "0123456789-+.eE:@# \t\n\r\"\\{}[],";

bool is_digit(char c) { return c >= '0' && c <= '9'; }

std::string mutate(std::string s, util::SplitMix64& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next() % n);
  };
  const std::size_t edits = 1 + pick(4);
  for (std::size_t e = 0; e < edits; ++e) {
    switch (pick(4)) {
      case 0:  // flip one bit
        if (!s.empty()) {
          s[pick(s.size())] ^= static_cast<char>(1u << pick(8));
        }
        break;
      case 1: {  // insert a meaningful or arbitrary byte
        const char c = pick(2) ? kInteresting[pick(kInteresting.size())]
                               : static_cast<char>(pick(256));
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size() + 1)),
                 c);
        break;
      }
      case 2:  // delete one byte
        if (!s.empty()) {
          s.erase(s.begin() + static_cast<std::ptrdiff_t>(pick(s.size())));
        }
        break;
      default: {  // replace a digit run with an edge number
        std::vector<std::size_t> starts;
        for (std::size_t i = 0; i < s.size(); ++i) {
          if (is_digit(s[i]) && (i == 0 || !is_digit(s[i - 1]))) {
            starts.push_back(i);
          }
        }
        if (starts.empty()) break;
        const std::size_t at = starts[pick(starts.size())];
        std::size_t end = at;
        while (end < s.size() && is_digit(s[end])) ++end;
        s.replace(at, end - at, kEdgeNumbers[pick(std::size(kEdgeNumbers))]);
        break;
      }
    }
  }
  return s;
}

/// Run `parse` on every seed and on kMutantsPerTarget mutants of them.
/// Returns the number of inputs that parsed, so a target whose every
/// input is rejected (a fuzz that exercises nothing) shows up.
int fuzz(std::uint64_t seed, const std::vector<std::string>& seeds,
         const std::function<void(const std::string&)>& parse) {
  int accepted = 0;
  const auto run = [&](const std::string& input) {
    try {
      parse(input);
      ++accepted;
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "input \"" << input << "\" threw a non-"
                    << "invalid_argument exception: " << e.what();
    } catch (...) {
      ADD_FAILURE() << "input \"" << input << "\" threw a non-exception";
    }
  };
  for (const std::string& s : seeds) run(s);
  util::SplitMix64 rng(seed);
  for (int i = 0; i < kMutantsPerTarget; ++i) {
    run(mutate(seeds[rng.next() % seeds.size()], rng));
  }
  return accepted;
}

const topo::KAryNCube& torus() {
  static const topo::KAryNCube t(4, 2);
  return t;
}

const std::vector<std::string> kScheduleSeeds = {
    "100 kill-link 3 1\n200 restore-link 3 1\n",
    "# comment\n50 kill-node 7 # trailing\n60 restore-node 7\n\n",
    "0 kill-link 15 3\n"};
const std::vector<std::string> kTraceSeeds = {
    "#wormsim-trace v1\n0 1 2 16\n5 3 4 16\n5 4 3 8\n",
    "# recorded\n#wormsim-trace v1\n\n10 0 15 1\n"};

void parse_schedule_text(const std::string& text) {
  std::istringstream in(text);
  fault::validate(fault::parse_schedule(in), torus());
}

void load_trace_text(const std::string& text) {
  std::istringstream in(text);
  traffic::Trace::load(in).validate(torus());
}

/// Every variant of `text` with a '-' or '+' put before one of its
/// numbers (digit runs that start a word).
std::vector<std::string> signed_mutants(const std::string& text) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const bool starts_word = i == 0 || text[i - 1] == ' ' || text[i - 1] == '\n';
    if (!is_digit(text[i]) || !starts_word) continue;
    for (const char sign : {'-', '+'}) {
      out.push_back(text.substr(0, i) + sign + text.substr(i));
    }
  }
  return out;
}

/// Every field of a schedule or trace line is unsigned, so a signed
/// number must be refused, never read as its 2^64 wrap.
TEST(ParserFuzz, SignedNumbersAreRefused) {
  const auto refuse_all = [](const std::vector<std::string>& seeds,
                             void (*parse)(const std::string&)) {
    int variants = 0;
    for (const std::string& seed : seeds) {
      ASSERT_NO_THROW(parse(seed)) << seed;
      for (const std::string& text : signed_mutants(seed)) {
        ++variants;
        EXPECT_THROW(parse(text), std::invalid_argument) << text;
      }
    }
    EXPECT_GT(variants, 10);
  };
  refuse_all(kScheduleSeeds, parse_schedule_text);
  refuse_all(kTraceSeeds, load_trace_text);
}

TEST(ParserFuzz, FaultScheduleFile) {
  const int ok = fuzz(1, kScheduleSeeds, parse_schedule_text);
  EXPECT_GT(ok, 3);
}

TEST(ParserFuzz, TransientFaultPreset) {
  // Only the part after the prefix is mutated: any other spec is a
  // schedule file path, and the fuzz must not probe the file system.
  const int ok = fuzz(2, {"2@750+250", "3@100", "32@0+1", "1@0"},
                      [](const std::string& rest) {
                        fault::load_faults("transient:" + rest, torus(), 7);
                      });
  EXPECT_GT(ok, 4);
}

TEST(ParserFuzz, MessageTrace) {
  const int ok = fuzz(3, kTraceSeeds, load_trace_text);
  EXPECT_GT(ok, 2);
}

TEST(ParserFuzz, CliFlagValues) {
  const int ok = fuzz(4, {"42", "-7", "0.25", "1e-3", "true", "off", "0"},
                      [](const std::string& value) {
                        const std::string arg = "--x=" + value;
                        const char* argv[] = {"prog", arg.c_str()};
                        const util::ArgParser args(2, argv);
                        // Each getter on its own: one rejecting the value
                        // must not hide another that mishandles it.
                        const std::function<void()> getters[] = {
                            [&] { args.get_int("x", 0); },
                            [&] { args.get_uint("x", 0); },
                            [&] { args.get_double("x", 0.0); },
                            [&] { args.get_bool("x", false); },
                        };
                        bool any = false;
                        for (const auto& get : getters) {
                          try {
                            get();
                            any = true;
                          } catch (const std::invalid_argument&) {
                          }
                        }
                        if (!any) throw std::invalid_argument("no getter");
                      });
  EXPECT_GT(ok, 7);
}

TEST(ParserFuzz, ObsSessionFlags) {
  // The flags ObsSession validates before a sweep runs. No output path
  // is given, so nothing is written and no tracer is built.
  const int ok = fuzz(7, {"1.2", "0", "256", "64", "alo", "true"},
                      [](const std::string& value) {
                        bool any = false;
                        for (const char* flag :
                             {"--spatial-load=", "--spatial-limiter=",
                              "--online-window=", "--profile=",
                              "--trace-capacity="}) {
                          const std::string arg = flag + value;
                          const char* argv[] = {"prog", arg.c_str()};
                          try {
                            const harness::ObsSession obs(
                                util::ArgParser(2, argv));
                            any = true;
                          } catch (const std::invalid_argument&) {
                          }
                        }
                        if (!any) throw std::invalid_argument("no flag");
                      });
  EXPECT_GT(ok, 5);
}

TEST(ParserFuzz, EnumNames) {
  const std::function<void(std::string_view)> readers[] = {
      [](std::string_view s) { core::parse_limiter(s); },
      [](std::string_view s) { traffic::parse_pattern(s); },
      [](std::string_view s) { traffic::parse_process(s); },
      [](std::string_view s) { routing::parse_algorithm(s); },
      [](std::string_view s) { routing::parse_selection(s); },
      [](std::string_view s) { sim::parse_flow_control(s); },
      [](std::string_view s) { obs::parse_log_level(s); },
  };
  const int ok = fuzz(
      5,
      {"none", "alo", "lf", "dril", "uniform", "bit-reversal", "hotspot",
       "exponential", "bursty", "tfar", "dor", "duato", "max-free",
       "round-robin", "wormhole", "credit", "vct", "warn", "debug"},
      [&readers](const std::string& name) {
        bool any = false;
        for (const auto& read : readers) {
          try {
            read(name);
            any = true;
          } catch (const std::invalid_argument&) {
          }
        }
        if (!any) throw std::invalid_argument("no reader");
      });
  EXPECT_GT(ok, 20);
}

TEST(ParserFuzz, JsonReaderNeverThrows) {
  // json_parse reports errors through its return value, so any
  // exception at all is a failure here.
  const int ok = fuzz(6,
                      {R"({"a": 1.5, "b": [true, null, "s\né"]})",
                       R"([{"schema": "wormsim.telemetry/1", "x": -3e2}])"},
                      [](const std::string& text) {
                        std::string err;
                        if (!util::json_parse(text, &err)) {
                          EXPECT_FALSE(err.empty()) << text;
                        }
                      });
  EXPECT_EQ(ok, kMutantsPerTarget + 2);
}

}  // namespace
}  // namespace wormsim
