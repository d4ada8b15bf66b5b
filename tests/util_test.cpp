// Unit tests for src/util: RNG determinism and statistics, logging level
// parsing, CSV escaping, CLI parsing, duration formatting, environment
// parsing.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <utility>
#include <vector>

#include "util/cli.h"
#include "util/crc32.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/runtime_env.h"
#include "util/timer.h"

namespace snnskip {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParams) {
  Rng rng(15);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.02);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, UniformIntRange) {
  Rng rng(19);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(10ULL);
    EXPECT_LT(v, 10ULL);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values reachable
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(21);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(std::int64_t{-5}, std::int64_t{5});
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(42);
  Rng c0 = parent.split(0);
  Rng c1 = parent.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c0.next() == c1.next()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitIsDeterministic) {
  Rng a(42), b(42);
  Rng ca = a.split(7), cb = b.split(7);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(ca.next(), cb.next());
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<std::size_t> v(50);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i;
  auto orig = v;
  rng.shuffle(v);
  std::set<std::size_t> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), orig.size());
  EXPECT_NE(v, orig);  // overwhelmingly likely for n=50
}

TEST(Logging, ParseLevels) {
  EXPECT_EQ(parse_log_level("trace"), LogLevel::Trace);
  EXPECT_EQ(parse_log_level("DEBUG"), LogLevel::Debug);
  EXPECT_EQ(parse_log_level("Info"), LogLevel::Info);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::Warn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::Error);
  EXPECT_EQ(parse_log_level("bogus"), LogLevel::Info);
}

TEST(Logging, SetAndGetLevel) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  set_log_level(saved);
}

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = testing::TempDir() + "csv_test1.csv";
  {
    CsvWriter w(path, {"a", "b"});
    ASSERT_TRUE(w.ok());
    w.row({"1", "2"});
    w.row({"x", "y"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::remove(path.c_str());
}

TEST(Csv, EscapesSpecialCharacters) {
  const std::string path = testing::TempDir() + "csv_test2.csv";
  {
    CsvWriter w(path, {"f"});
    w.row({"has,comma"});
    w.row({"has\"quote"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);  // header
  std::getline(in, line);
  EXPECT_EQ(line, "\"has,comma\"");
  std::getline(in, line);
  EXPECT_EQ(line, "\"has\"\"quote\"");
  std::remove(path.c_str());
}

TEST(Csv, NumFormatting) {
  EXPECT_EQ(CsvWriter::num(1.5), "1.5");
  EXPECT_EQ(CsvWriter::num(std::size_t{42}), "42");
}

TEST(Cli, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--alpha", "3", "--beta=0.5", "--flag"};
  CliArgs args(5, const_cast<char**>(argv));
  EXPECT_TRUE(args.has("alpha"));
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(args.get_double("beta", 0.0), 0.5);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("missing"));
  EXPECT_EQ(args.get_int("missing", 9), 9);
}

TEST(Cli, U64Parsing) {
  const char* argv[] = {"prog", "--seed=18446744073709551615"};
  CliArgs args(2, const_cast<char**>(argv));
  EXPECT_EQ(args.get_u64("seed", 0), 18446744073709551615ULL);
}

TEST(Timer, FormatDuration) {
  EXPECT_EQ(format_duration(0.0000005), "0.5 us");
  EXPECT_EQ(format_duration(0.002), "2.0 ms");
  EXPECT_EQ(format_duration(1.5), "1.50 s");
  EXPECT_EQ(format_duration(600.0), "10.0 min");
}

TEST(Timer, ElapsedIsMonotonic) {
  Timer t;
  const double a = t.elapsed_s();
  const double b = t.elapsed_s();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(RuntimeEnv, RangedDoubleFallsBackOutsideRangeAndOnNan) {
  const char* name = "SNNSKIP_UTIL_TEST_RANGED";
  for (const char* bad : {"nan", "inf", "-0.5", "2"}) {
    setenv(name, bad, 1);
    EXPECT_EQ(env::get_double(name, 0.25, 0.0, 1.0), 0.25) << bad;
  }
  const std::pair<const char*, double> good[] = {
      {"0", 0.0}, {"0.4", 0.4}, {"1", 1.0}};
  for (const auto& [text, want] : good) {
    setenv(name, text, 1);
    EXPECT_EQ(env::get_double(name, 0.25, 0.0, 1.0), want) << text;
  }
  unsetenv(name);
}

TEST(Splitmix, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), a);
}

/// The byte-at-a-time CRC-32 (reflected 0xEDB88320, zlib's) that the
/// slicing-by-8 implementation must reproduce.
std::uint32_t crc32_bytewise(const unsigned char* p, std::size_t n,
                             std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SlicingBy8MatchesBytewiseReference) {
  Rng rng(29);
  std::vector<unsigned char> buf(16384 + 8);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.uniform_int(0, 255));
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 80; ++n) lengths.push_back(n);
  lengths.push_back(16384);
  for (const std::uint32_t seed : {0u, 0x9E3779B9u}) {
    for (std::size_t off = 0; off < 8; ++off) {
      for (const std::size_t n : lengths) {
        EXPECT_EQ(crc32(buf.data() + off, n, seed),
                  crc32_bytewise(buf.data() + off, n, seed))
            << "n=" << n << " offset=" << off << " seed=" << seed;
      }
    }
  }
  // Chaining: crc(a || b) == crc(b, crc(a)), split inside and across the
  // 8-byte blocks.
  for (const std::size_t split : {0, 1, 7, 8, 13, 64, 4099, 16384}) {
    const std::uint32_t whole = crc32(buf.data(), 16384);
    const std::uint32_t head = crc32(buf.data(), split);
    EXPECT_EQ(crc32(buf.data() + split, 16384 - split, head), whole)
        << "split=" << split;
  }
}

}  // namespace
}  // namespace snnskip
