#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <string>

namespace wormsim::util {
namespace {

ArgParser parse(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return ArgParser(static_cast<int>(v.size()), v.data());
}

TEST(Cli, KeyEqualsValue) {
  auto args = parse({"prog", "--k=8", "--offered=0.5"});
  EXPECT_EQ(args.get_int("k", 0), 8);
  EXPECT_DOUBLE_EQ(args.get_double("offered", 0), 0.5);
}

TEST(Cli, KeySpaceValue) {
  auto args = parse({"prog", "--k", "8", "--name", "hello"});
  EXPECT_EQ(args.get_int("k", 0), 8);
  EXPECT_EQ(args.get_string("name", ""), "hello");
}

TEST(Cli, BareFlagIsTrue) {
  auto args = parse({"prog", "--verbose", "--k=3"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
}

TEST(Cli, FlagFollowedByFlag) {
  auto args = parse({"prog", "--a", "--b"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_TRUE(args.get_bool("b", false));
}

TEST(Cli, Defaults) {
  auto args = parse({"prog"});
  EXPECT_EQ(args.get_int("k", 42), 42);
  EXPECT_EQ(args.get_string("s", "d"), "d");
  EXPECT_FALSE(args.get_bool("b", false));
}

TEST(Cli, Positional) {
  auto args = parse({"prog", "input.txt", "--k=2", "more"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.txt");
  EXPECT_EQ(args.positional()[1], "more");
}

TEST(Cli, BadIntegerThrows) {
  auto args = parse({"prog", "--k=abc"});
  EXPECT_THROW(args.get_int("k", 0), std::invalid_argument);
}

TEST(Cli, BadDoubleThrows) {
  auto args = parse({"prog", "--x=1.2.3"});
  EXPECT_THROW(args.get_double("x", 0), std::invalid_argument);
}

TEST(Cli, NegativeUintThrows) {
  auto args = parse({"prog", "--k=-1"});
  EXPECT_THROW(args.get_uint("k", 0), std::invalid_argument);
}

TEST(Cli, U32RejectsValuesThatWouldWrap) {
  auto args = parse({"prog", "--k", "4294967300", "--n", "4294967295"});
  EXPECT_EQ(args.get_u32("n", 0), 4294967295u);
  EXPECT_EQ(args.get_u32("vcs", 3), 3u);
  try {
    args.get_u32("k", 8);
    FAIL() << "--k 4294967300 was narrowed";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "--k expects an integer in [0, 4294967295]");
  }
}

TEST(Cli, BoolSpellings) {
  auto args = parse({"prog", "--a=yes", "--b=0", "--c=on", "--d=false"});
  EXPECT_TRUE(args.get_bool("a", false));
  EXPECT_FALSE(args.get_bool("b", true));
  EXPECT_TRUE(args.get_bool("c", false));
  EXPECT_FALSE(args.get_bool("d", true));
}

TEST(Cli, UnusedDetectsTypos) {
  auto args = parse({"prog", "--kk=8", "--used=1"});
  (void)args.get_int("used", 0);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "kk");
}

TEST(Cli, RejectUnknownNamesEveryUnreadFlag) {
  auto typo = parse({"prog", "--job", "4", "--loads=2"});
  (void)typo.get_uint("loads", 7);
  try {
    typo.reject_unknown();
    FAIL() << "a typo'd flag was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown flag --job: not a flag this program reads");
  }

  auto two = parse({"prog", "--shards", "4", "--jbos=1"});
  try {
    two.reject_unknown();
    FAIL() << "unknown flags were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "unknown flags --jbos, --shards: not flags this program reads");
  }
}

TEST(Cli, RepeatedFlagThrowsNamingIt) {
  // Every spelling counts: --key value, --key=value and a bare flag.
  const struct {
    std::vector<const char*> argv;
    std::string flag;
  } cases[] = {
      {{"prog", "--k", "4", "--n", "2", "--k", "4294967300"}, "--k"},
      {{"prog", "--k=4", "--k", "8"}, "--k"},
      {{"prog", "--paper", "--paper"}, "--paper"},
  };
  for (const auto& c : cases) {
    try {
      ArgParser(static_cast<int>(c.argv.size()), c.argv.data());
      FAIL() << c.flag << " given twice was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), c.flag + " given more than once");
    }
  }
}

TEST(Cli, RejectUnknownAcceptsEveryReadFlag) {
  // has() counts as a read too (the bare --profile / --paper forms).
  auto args = parse({"prog", "--k=8", "--paper", "--offered", "0.5"});
  (void)args.get_uint("k", 0);
  (void)args.has("paper");
  (void)args.get_double("offered", 0.0);
  EXPECT_NO_THROW(args.reject_unknown());
  auto none = parse({"prog", "positional"});
  EXPECT_NO_THROW(none.reject_unknown());
}

}  // namespace
}  // namespace wormsim::util
