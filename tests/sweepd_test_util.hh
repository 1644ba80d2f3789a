/**
 * @file
 * Shared plumbing for the suites that drive sweeps end to end
 * (test_sweepd, test_smoke): scoped scratch directories, scoped
 * environment variables and store overrides, file reads, metrics
 * counters, and the running test binary as a sweepd worker
 * executable.
 */

#ifndef QCC_TESTS_SWEEPD_TEST_UTIL_HH
#define QCC_TESTS_SWEEPD_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "common/json.hh"
#include "store/store.hh"
#include "sweepd/service.hh"

namespace qcc_test {

/** Scoped scratch directory, deleted on exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
    {
        static std::atomic<int> seq{0};
        path_ = (std::filesystem::temp_directory_path() /
                 ("qcc_sweepd_" + tag + "_" +
                  std::to_string(::getpid()) + "_" +
                  std::to_string(seq++)))
                    .string();
        std::filesystem::create_directories(path_);
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Scoped environment variable (restores the prior value). */
class EnvGuard
{
  public:
    EnvGuard(std::string name, const std::string &value)
        : EnvGuard(std::move(name))
    {
        ::setenv(name_.c_str(), value.c_str(), 1);
    }

    /** Unset `name` for the guard's lifetime. */
    explicit EnvGuard(std::string name) : name_(std::move(name))
    {
        if (const char *old = std::getenv(name_.c_str())) {
            had_ = true;
            old_ = old;
        }
        ::unsetenv(name_.c_str());
    }

    ~EnvGuard()
    {
        if (had_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool had_ = false;
};

/**
 * Scoped persistent-store overrides: restores the effective root and
 * switch on exit (as overrides — the store has no way back to "read
 * the environment").
 */
class StoreConfigGuard
{
  public:
    StoreConfigGuard()
        : dir_(qcc::storeDir()), enabled_(qcc::storeEnabled())
    {
    }

    ~StoreConfigGuard()
    {
        qcc::setStoreDir(dir_);
        qcc::setStoreEnabled(enabled_);
    }

  private:
    std::string dir_;
    bool enabled_;
};

inline std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(bool(in)) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** A counter of a metricsJson() document; absent reads as 0. */
inline uint64_t
counterIn(const qcc::JsonValue &metrics, const std::string &name)
{
    uint64_t n = 0;
    if (const qcc::JsonValue *counters = metrics.find("counters"))
        if (const qcc::JsonValue *v = counters->find(name))
            v->asUint64(n);
    return n;
}

/** This test binary, invokable as `<self> --worker`. */
inline std::string
selfPath()
{
    return qcc::sweepd::selfExecutablePath(nullptr);
}

} // namespace qcc_test

#endif // QCC_TESTS_SWEEPD_TEST_UTIL_HH
