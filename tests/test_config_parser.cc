#include "common/config_parser.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace s4d {
namespace {

TEST(ConfigParser, BasicSectionsAndKeys) {
  ConfigParser config;
  ASSERT_TRUE(config
                  .Parse("top = 1\n"
                         "[alpha]\n"
                         "x = hello\n"
                         "y = 2\n"
                         "[beta]\n"
                         "x = world\n")
                  .ok());
  EXPECT_EQ(config.GetString("", "top"), "1");
  EXPECT_EQ(config.GetString("alpha", "x"), "hello");
  EXPECT_EQ(config.GetInt("alpha", "y"), 2);
  EXPECT_EQ(config.GetString("beta", "x"), "world");
  EXPECT_FALSE(config.Has("beta", "y"));
  EXPECT_EQ(config.entry_count(), 4u);
}

TEST(ConfigParser, CommentsAndWhitespace) {
  ConfigParser config;
  ASSERT_TRUE(config
                  .Parse("# full line comment\n"
                         "  [ s ]  \n"
                         "  key  =  value with spaces  ; trailing comment\n"
                         "\n"
                         "empty =\n")
                  .ok());
  EXPECT_EQ(config.GetString("s", "key"), "value with spaces");
  EXPECT_EQ(config.GetString("s", "empty"), "");
}

TEST(ConfigParser, SyntaxErrorsReportLine) {
  ConfigParser config;
  const Status bad_section = config.Parse("[unterminated\n");
  EXPECT_FALSE(bad_section.ok());
  EXPECT_NE(bad_section.message().find("line 1"), std::string::npos);

  const Status missing_eq = config.Parse("[ok]\njust words\n");
  EXPECT_FALSE(missing_eq.ok());
  EXPECT_NE(missing_eq.message().find("line 2"), std::string::npos);

  EXPECT_FALSE(config.Parse("[s]\n= novalue\n").ok());
}

TEST(ConfigParser, TypedGetters) {
  ConfigParser config;
  ASSERT_TRUE(config
                  .Parse("[t]\n"
                         "i = -42\n"
                         "d = 2.5\n"
                         "b1 = true\nb2 = off\nb3 = 1\n"
                         "junk = 12ab\n")
                  .ok());
  EXPECT_EQ(config.GetInt("t", "i"), -42);
  EXPECT_EQ(config.GetDouble("t", "d"), 2.5);
  EXPECT_EQ(config.GetBool("t", "b1"), true);
  EXPECT_EQ(config.GetBool("t", "b2"), false);
  EXPECT_EQ(config.GetBool("t", "b3"), true);
  EXPECT_EQ(config.GetInt("t", "junk"), std::nullopt);
  EXPECT_EQ(config.GetInt("t", "missing"), std::nullopt);
}

TEST(ConfigParser, SizeSuffixes) {
  ConfigParser config;
  ASSERT_TRUE(config
                  .Parse("[s]\n"
                         "plain = 4096\n"
                         "kilo = 64k\nmega = 2M\ngiga = 1g\nbad = k\n")
                  .ok());
  EXPECT_EQ(config.GetSize("s", "plain"), 4096);
  EXPECT_EQ(config.GetSize("s", "kilo"), 64 * KiB);
  EXPECT_EQ(config.GetSize("s", "mega"), 2 * MiB);
  EXPECT_EQ(config.GetSize("s", "giga"), 1 * GiB);
  EXPECT_EQ(config.GetSize("s", "bad"), std::nullopt);
}

TEST(ConfigParser, DurationSuffixes) {
  ConfigParser config;
  ASSERT_TRUE(config
                  .Parse("[d]\n"
                         "a = 250ms\nb = 2s\nc = 100us\ne = 50ns\nf = 42\n"
                         "g = 1.5ms\n")
                  .ok());
  EXPECT_EQ(config.GetDuration("d", "a"), FromMillis(250));
  EXPECT_EQ(config.GetDuration("d", "b"), FromSeconds(2));
  EXPECT_EQ(config.GetDuration("d", "c"), FromMicros(100));
  EXPECT_EQ(config.GetDuration("d", "e"), 50);
  EXPECT_EQ(config.GetDuration("d", "f"), 42);
  EXPECT_EQ(config.GetDuration("d", "g"), FromMillis(1.5));
}

TEST(ConfigParser, DefaultsAndSet) {
  ConfigParser config;
  ASSERT_TRUE(config.Parse("[x]\nk = 7\n").ok());
  EXPECT_EQ(config.IntOr("x", "k", 0), 7);
  EXPECT_EQ(config.IntOr("x", "nope", 13), 13);
  EXPECT_EQ(config.SizeOr("x", "nope", 5 * MiB), 5 * MiB);
  EXPECT_EQ(config.StringOr("x", "nope", "fb"), "fb");
  config.Set("x", "k", "9");
  EXPECT_EQ(config.IntOr("x", "k", 0), 9);
  config.Set("y", "new", "64k");
  EXPECT_EQ(config.SizeOr("y", "new", 0), 64 * KiB);
}

TEST(ConfigParser, MalformedTypedReadIsRecorded) {
  ConfigParser config;
  ASSERT_TRUE(config.Parse("[w]\nranks = 4x\nrandom = ture\nok = 3\n").ok());
  EXPECT_EQ(config.IntOr("w", "ok", 0), 3);
  EXPECT_EQ(config.IntOr("w", "absent", 5), 5);
  EXPECT_TRUE(config.typed_error().ok()) << "absent and valid keys are fine";
  EXPECT_EQ(config.IntOr("w", "ranks", 32), 32) << "still the fallback";
  EXPECT_TRUE(config.BoolOr("w", "random", true));
  const Status st = config.typed_error();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("w.ranks"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("'4x'"), std::string::npos)
      << "the first malformed read wins: " << st.ToString();

  // One read of s.v = `value` through `read`; true iff it was recorded.
  const auto recorded = [](const char* value, auto read) {
    ConfigParser one;
    one.Set("s", "v", value);
    read(one);
    return !one.typed_error().ok();
  };
  EXPECT_TRUE(recorded("2..5", [](const ConfigParser& c) {
    (void)c.DoubleOr("s", "v", 0.0);
  }));
  EXPECT_TRUE(recorded("16kb", [](const ConfigParser& c) {
    (void)c.SizeOr("s", "v", 0);
  }));
  EXPECT_TRUE(recorded("100mz", [](const ConfigParser& c) {
    (void)c.DurationOr("s", "v", 0);
  }));
  EXPECT_FALSE(recorded("100ms", [](const ConfigParser& c) {
    (void)c.DurationOr("s", "v", 0);
  }));
}

TEST(ConfigParser, HasSectionMatchesWholeSectionNames) {
  ConfigParser config;
  ASSERT_TRUE(config.Parse("[calibration]\nk = 1\n[z]\nk = 2\n").ok());
  EXPECT_TRUE(config.HasSection("calibration"));
  EXPECT_TRUE(config.HasSection("z"));
  EXPECT_FALSE(config.HasSection("calib"));
  EXPECT_FALSE(config.HasSection("y"));
  config.Set("calib", "enable", "true");
  EXPECT_TRUE(config.HasSection("calib"));
}

TEST(ConfigParser, LaterKeysOverrideEarlier) {
  ConfigParser config;
  ASSERT_TRUE(config.Parse("[s]\nk = 1\nk = 2\n").ok());
  EXPECT_EQ(config.GetInt("s", "k"), 2);
}

TEST(ConfigParser, ParseFile) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("s4d_cfg_" + std::to_string(::getpid()) + ".ini");
  {
    std::ofstream out(path);
    out << "[w]\nranks = 8\n";
  }
  ConfigParser config;
  ASSERT_TRUE(config.ParseFile(path.string()).ok());
  EXPECT_EQ(config.GetInt("w", "ranks"), 8);
  std::filesystem::remove(path);

  ConfigParser missing;
  EXPECT_EQ(missing.ParseFile("/nonexistent/path.ini").code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace s4d
