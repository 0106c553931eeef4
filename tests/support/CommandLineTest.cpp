//===- tests/support/CommandLineTest.cpp ----------------------------------==//

#include "support/CommandLine.h"

#include <gtest/gtest.h>

using namespace pacer;

static FlagSet parse(std::initializer_list<const char *> Args) {
  std::vector<const char *> Argv{"prog"};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  return FlagSet(static_cast<int>(Argv.size()), Argv.data());
}

TEST(CommandLineTest, IntFlag) {
  FlagSet Flags = parse({"--trials=50"});
  EXPECT_EQ(Flags.getInt("trials", 10), 50);
  EXPECT_EQ(Flags.getInt("absent", 10), 10);
}

TEST(CommandLineTest, DoubleFlag) {
  FlagSet Flags = parse({"--rate=0.03"});
  EXPECT_DOUBLE_EQ(Flags.getDouble("rate", 1.0), 0.03);
  EXPECT_DOUBLE_EQ(Flags.getDouble("absent", 1.5), 1.5);
}

TEST(CommandLineTest, StringFlag) {
  FlagSet Flags = parse({"--workload=xalan"});
  EXPECT_EQ(Flags.getString("workload", "eclipse"), "xalan");
  EXPECT_EQ(Flags.getString("absent", "eclipse"), "eclipse");
}

TEST(CommandLineTest, BoolFlag) {
  FlagSet Flags = parse({"--verbose", "--quiet=0", "--slow=false"});
  EXPECT_TRUE(Flags.getBool("verbose", false));
  EXPECT_FALSE(Flags.getBool("quiet", true));
  EXPECT_FALSE(Flags.getBool("slow", true));
  EXPECT_TRUE(Flags.getBool("absent", true));
}

TEST(CommandLineTest, Positional) {
  FlagSet Flags = parse({"alpha", "--x=1", "beta"});
  ASSERT_EQ(Flags.positional().size(), 2u);
  EXPECT_EQ(Flags.positional()[0], "alpha");
  EXPECT_EQ(Flags.positional()[1], "beta");
}

TEST(CommandLineTest, LastOccurrenceWins) {
  FlagSet Flags = parse({"--n=1", "--n=2"});
  EXPECT_EQ(Flags.getInt("n", 0), 2);
}

TEST(CommandLineTest, Has) {
  FlagSet Flags = parse({"--present=x"});
  EXPECT_TRUE(Flags.has("present"));
  EXPECT_FALSE(Flags.has("absent"));
}

TEST(CommandLineTest, NegativeInt) {
  FlagSet Flags = parse({"--offset=-3"});
  EXPECT_EQ(Flags.getInt("offset", 0), -3);
}

//===----------------------------------------------------------------------===//
// OptionRegistry
//===----------------------------------------------------------------------===//

namespace {

OptionRegistry sampleRegistry() {
  OptionRegistry R("prog [options] FILE...");
  R.addInt("trials", 10, "trial count")
      .addDouble("rate", 0.03, "sampling rate")
      .addString("detector", "pacer", "detector name")
      .addFlag("stats", "print statistics");
  return R;
}

bool parseInto(OptionRegistry &R, std::initializer_list<const char *> Args) {
  std::vector<const char *> Argv{"prog"};
  Argv.insert(Argv.end(), Args.begin(), Args.end());
  return R.parse(static_cast<int>(Argv.size()), Argv.data());
}

} // namespace

TEST(OptionRegistryTest, DefaultsWhenAbsent) {
  OptionRegistry R = sampleRegistry();
  EXPECT_TRUE(parseInto(R, {}));
  EXPECT_EQ(R.getInt("trials"), 10);
  EXPECT_DOUBLE_EQ(R.getDouble("rate"), 0.03);
  EXPECT_EQ(R.getString("detector"), "pacer");
  EXPECT_FALSE(R.getBool("stats"));
}

TEST(OptionRegistryTest, ParsesDeclaredFlags) {
  OptionRegistry R = sampleRegistry();
  EXPECT_TRUE(parseInto(
      R, {"--trials=50", "--rate=0.5", "--detector=literace", "--stats"}));
  EXPECT_EQ(R.getInt("trials"), 50);
  EXPECT_DOUBLE_EQ(R.getDouble("rate"), 0.5);
  EXPECT_EQ(R.getString("detector"), "literace");
  EXPECT_TRUE(R.getBool("stats"));
  EXPECT_TRUE(R.has("trials"));
  EXPECT_FALSE(R.has("rate-absent"));
}

TEST(OptionRegistryTest, RejectsUnknownFlag) {
  OptionRegistry R = sampleRegistry();
  EXPECT_FALSE(parseInto(R, {"--trails=50"})); // Typo must not be silent.
  EXPECT_FALSE(R.helpRequested());
}

TEST(OptionRegistryTest, HelpRequested) {
  OptionRegistry R = sampleRegistry();
  EXPECT_FALSE(parseInto(R, {"--help"}));
  EXPECT_TRUE(R.helpRequested());
}

TEST(OptionRegistryTest, PositionalCollected) {
  OptionRegistry R = sampleRegistry();
  EXPECT_TRUE(parseInto(R, {"a.trace", "--trials=2", "b.trace"}));
  ASSERT_EQ(R.positional().size(), 2u);
  EXPECT_EQ(R.positional()[0], "a.trace");
  EXPECT_EQ(R.positional()[1], "b.trace");
}

TEST(OptionRegistryTest, IntInRange) {
  OptionRegistry R = sampleRegistry();
  EXPECT_TRUE(parseInto(R, {"--trials=-1"}));
  EXPECT_FALSE(R.intInRange("trials", 0, 100));
  EXPECT_TRUE(R.intInRange("trials", -1, 100));
  EXPECT_FALSE(R.intInRange("trials", -5, -2));
}

TEST(OptionRegistryTest, DoubleInRangeRejectsNaNAndInfinity) {
  for (const char *Bad : {"--rate=nan", "--rate=-1", "--rate=inf",
                          "--rate=1.5", "--rate=-inf"}) {
    OptionRegistry R = sampleRegistry();
    EXPECT_TRUE(parseInto(R, {Bad}));
    EXPECT_FALSE(R.doubleInRange("rate", 0.0, 1.0)) << Bad;
  }
  for (const char *Good : {"--rate=0", "--rate=1", "--rate=0.03"}) {
    OptionRegistry R = sampleRegistry();
    EXPECT_TRUE(parseInto(R, {Good}));
    EXPECT_TRUE(R.doubleInRange("rate", 0.0, 1.0)) << Good;
  }
}

TEST(OptionRegistryTest, LastOccurrenceWins) {
  OptionRegistry R = sampleRegistry();
  EXPECT_TRUE(parseInto(R, {"--trials=1", "--trials=2"}));
  EXPECT_EQ(R.getInt("trials"), 2);
}
