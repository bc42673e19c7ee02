// Tests of the tools' shared command line (tools/tool_args.h): `--key value`
// parsing, switches, and numeric getters that accept only a fully parsed,
// in-range value.

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/tool_args.h"

namespace adarts::tools {
namespace {

/// Parses `tokens` as if they followed the program name on a command line.
Result<Args> ParseTokens(std::vector<std::string> tokens,
                         const std::set<std::string>& switches = {}) {
  std::vector<char*> argv = {const_cast<char*>("tool")};
  for (std::string& token : tokens) argv.push_back(token.data());
  return Args::Parse(static_cast<int>(argv.size()), argv.data(), 1, switches);
}

TEST(ToolArgsTest, ParsesKeyValuePairsWithOrWithoutDashes) {
  auto args = ParseTokens({"--model", "m.bin", "port", "80"});
  ASSERT_TRUE(args.ok()) << args.status();
  EXPECT_EQ(args->Get("model"), "m.bin");
  EXPECT_EQ(args->Get("port"), "80");
  EXPECT_TRUE(args->Has("model"));
  EXPECT_FALSE(args->Has("queue"));
  EXPECT_EQ(args->Get("queue", "64"), "64");
}

TEST(ToolArgsTest, RepeatedKeyKeepsTheLastValue) {
  auto args = ParseTokens({"--seed", "1", "--seed", "2"});
  ASSERT_TRUE(args.ok()) << args.status();
  EXPECT_EQ(args->Get("seed"), "2");
}

TEST(ToolArgsTest, KeyWithoutValueIsAnError) {
  auto args = ParseTokens({"--model", "m.bin", "--port"});
  ASSERT_FALSE(args.ok());
  EXPECT_EQ(args.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(args.status().message().find("--port"), std::string::npos);
}

TEST(ToolArgsTest, SwitchesTakeNoValue) {
  auto args = ParseTokens({"--once", "--port", "9"}, {"once", "plain"});
  ASSERT_TRUE(args.ok()) << args.status();
  EXPECT_TRUE(args->Has("once"));
  EXPECT_FALSE(args->Has("plain"));
  EXPECT_EQ(args->Get("port"), "9");
}

TEST(ToolArgsTest, AbsentNumericFlagKeepsTheDefault) {
  auto args = ParseTokens({});
  ASSERT_TRUE(args.ok());
  std::size_t workers = 1;
  double deadline_ms = 2.5;
  EXPECT_TRUE(args->GetUint("workers", &workers).ok());
  EXPECT_TRUE(args->GetDouble("deadline-ms", &deadline_ms).ok());
  EXPECT_EQ(workers, 1u);
  EXPECT_EQ(deadline_ms, 2.5);
}

TEST(ToolArgsTest, UintAcceptsOnlyAFullyParsedInRangeValue) {
  auto args = ParseTokens({"--a", "65535", "--b", "-1", "--c", "70000",
                           "--d", "abc", "--e", "12x", "--f", "", "--g",
                           " 7", "--h", "99999999999999999999"});
  ASSERT_TRUE(args.ok());
  std::uint16_t port = 0;
  EXPECT_TRUE(args->GetUint("a", &port).ok());
  EXPECT_EQ(port, 65535);
  for (const char* bad : {"b", "c", "d", "e", "f", "g", "h"}) {
    std::uint16_t value = 7;
    const Status st = args->GetUint(bad, &value);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(st.message().find(std::string("--") + bad), std::string::npos)
        << st.message();
    EXPECT_EQ(value, 7) << "a rejected value must not overwrite the default";
  }
}

TEST(ToolArgsTest, UintHonoursAnExplicitMaximum) {
  auto args = ParseTokens({"--workers", "1025", "--queue", "1024"});
  ASSERT_TRUE(args.ok());
  std::size_t workers = 1;
  std::size_t queue = 64;
  EXPECT_FALSE(args->GetUint("workers", &workers, std::size_t{1024}).ok());
  EXPECT_TRUE(args->GetUint("queue", &queue, std::size_t{1024}).ok());
  EXPECT_EQ(queue, 1024u);
}

TEST(ToolArgsTest, DoubleRejectsGarbageNegativeAndNan) {
  auto args = ParseTokens({"--ok", "0.25", "--neg", "-1", "--junk", "1.5ms",
                           "--nan", "nan", "--empty", ""});
  ASSERT_TRUE(args.ok());
  double value = 0.0;
  EXPECT_TRUE(args->GetDouble("ok", &value).ok());
  EXPECT_EQ(value, 0.25);
  for (const char* bad : {"neg", "junk", "nan", "empty"}) {
    EXPECT_EQ(args->GetDouble(bad, &value).code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(value, 0.25);
}

TEST(ToolArgsTest, FirstErrorReportsTheFirstFailure) {
  EXPECT_TRUE(FirstError({Status::OK(), Status::OK()}).ok());
  const Status first = Status::InvalidArgument("first");
  EXPECT_EQ(
      FirstError({Status::OK(), first, Status::InvalidArgument("second")}),
      first);
}

TEST(ToolArgsTest, DaemonPortReadsTheFlagOrThePortFile) {
  auto direct = ParseTokens({"--port", "8080"});
  ASSERT_TRUE(direct.ok());
  auto port = DaemonPort(*direct);
  ASSERT_TRUE(port.ok()) << port.status();
  EXPECT_EQ(*port, 8080);

  const std::string path = ::testing::TempDir() + "/tool_args_port";
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("4242\n", file);
  std::fclose(file);
  auto from_file = ParseTokens({"--port-file", path});
  ASSERT_TRUE(from_file.ok());
  port = DaemonPort(*from_file);
  ASSERT_TRUE(port.ok()) << port.status();
  EXPECT_EQ(*port, 4242);
  std::remove(path.c_str());

  auto neither = ParseTokens({});
  ASSERT_TRUE(neither.ok());
  EXPECT_EQ(DaemonPort(*neither).status().code(),
            StatusCode::kInvalidArgument);
  auto missing_file = ParseTokens({"--port-file", path});
  ASSERT_TRUE(missing_file.ok());
  EXPECT_FALSE(DaemonPort(*missing_file).ok());
}

}  // namespace
}  // namespace adarts::tools
