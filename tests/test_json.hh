/**
 * @file
 * Shared test helpers for validating emitted JSON documents (trace
 * files, metrics exports, telemetry payloads): slurp a file, a temp
 * file removed at scope exit, and parseFile, which reads a file
 * through the strict obs::parseJson — a truncated or trailing-comma
 * file must fail the test.
 */

#ifndef FA3C_TESTS_TEST_JSON_HH
#define FA3C_TESTS_TEST_JSON_HH

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/json.hh"

namespace fa3c::test {

inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** A temp file path removed at scope exit. */
class TempFile
{
  public:
    explicit TempFile(const std::string &name)
        : path_(::testing::TempDir() + name)
    {
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Parse the file at @p path as one strict JSON document. */
inline obs::Json
parseFile(const std::string &path)
{
    const std::string text = slurp(path);
    EXPECT_FALSE(text.empty()) << path;
    return obs::parseJson(text);
}

} // namespace fa3c::test

#endif // FA3C_TESTS_TEST_JSON_HH
