/**
 * @file
 * Thread-pool tests: long runs of back-to-back pool jobs with varying
 * chunk counts and lane caps, where every chunk must run exactly once
 * and no job may hang (a worker still in one job's claim loop must
 * never claim a chunk of the next), chunk-order reductions that stay
 * bit-identical under a lane cap, and a forked child that exits while
 * the parent's workers are parked. QCC_THREADS is pinned to 4 before
 * the pool first sizes itself, so the pool has worker lanes on any
 * runner, single-core ones included.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parallel.hh"
#include "common/rng.hh"

using namespace qcc;

namespace {

// Static initialization runs before any test can size the pool.
const bool kLanesPinned = [] {
    setenv("QCC_THREADS", "4", 1);
    unsetenv("QCC_JOB_WIDTH");
    return true;
}();

/**
 * Aborts the process when `progress` stops moving for `limit`, so a
 * hung pool job fails the suite with a message instead of running
 * into the ctest timeout.
 */
class Watchdog
{
  public:
    Watchdog(const std::atomic<uint64_t> &progress,
             std::chrono::seconds limit)
        : thread([&progress, limit, this] {
              using clock = std::chrono::steady_clock;
              std::unique_lock<std::mutex> lk(mtx);
              uint64_t last = progress.load();
              auto lastMove = clock::now();
              while (!cv.wait_for(lk, std::chrono::seconds(1),
                                  [&] { return done; })) {
                  const uint64_t now = progress.load();
                  if (now != last) {
                      last = now;
                      lastMove = clock::now();
                  } else if (clock::now() - lastMove >= limit) {
                      std::fprintf(stderr,
                                   "pool job hung after %llu jobs\n",
                                   (unsigned long long)now);
                      std::abort();
                  }
              }
          })
    {
    }

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lk(mtx);
            done = true;
        }
        cv.notify_all();
        thread.join();
    }

  private:
    std::mutex mtx;
    std::condition_variable cv;
    bool done = false;
    std::thread thread; ///< last: starts after the members above
};

constexpr uint64_t kJobs = 60000;

} // namespace

TEST(ParallelDeathTest, ForkedChildExitsWhileWorkersAreParked)
{
    // The parent's workers sit on the pool's condition variable; a
    // forked child (as death tests fork) has the pool's memory but
    // none of its threads, and must still exit cleanly.
    parallelFor(0, size_t{1} << 16, [](size_t, size_t) {}, 1024);
    EXPECT_EXIT(std::exit(0), ::testing::ExitedWithCode(0), "");
}

TEST(Parallel, BackToBackJobsRunEveryChunkOnce)
{
    ASSERT_GE(parallelThreads(), 2u);
    ASSERT_GE(parallelLanes(), 2u);
    std::atomic<uint64_t> jobsDone{0};
    Watchdog dog(jobsDone, std::chrono::seconds(20));
    std::vector<std::atomic<int>> hits(63);
    for (uint64_t j = 0; j < kJobs; ++j) {
        const size_t chunks = 3 + (j * 7) % 61; // 3 ... 63
        for (size_t c = 0; c < chunks; ++c)
            hits[c].store(0, std::memory_order_relaxed);
        auto job = [&] {
            detail::poolRun(chunks, [&](size_t ci) {
                hits[ci].fetch_add(1, std::memory_order_relaxed);
            });
        };
        if (j % 3 == 0) {
            // Capped jobs leave workers without a lane: the losers
            // must stay out of this job and the next.
            ParallelWidthCap cap(2);
            job();
        } else {
            job();
        }
        for (size_t c = 0; c < chunks; ++c)
            ASSERT_EQ(hits[c].load(std::memory_order_relaxed), 1)
                << "job " << j << " chunk " << c << " of " << chunks;
        jobsDone.fetch_add(1, std::memory_order_relaxed);
    }
}

TEST(Parallel, BackToBackSweepsCoverTheirRange)
{
    std::atomic<uint64_t> jobsDone{0};
    Watchdog dog(jobsDone, std::chrono::seconds(20));
    std::vector<int> seen(1024);
    for (uint64_t j = 0; j < kJobs / 3; ++j) {
        const size_t n = 3 + (j * 13) % 1021;
        std::fill(seen.begin(), seen.begin() + n, 0);
        parallelFor(
            0, n,
            [&](size_t lo, size_t hi) {
                for (size_t i = lo; i < hi; ++i)
                    ++seen[i];
            },
            /*grain=*/1);
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(seen[i], 1) << "sweep " << j << " index " << i;
        jobsDone.fetch_add(1, std::memory_order_relaxed);
    }
}

TEST(Parallel, ReduceIsBitIdenticalUnderLaneCap)
{
    // Values over many magnitudes make the sum order-sensitive, so
    // equality pins the fixed chunk structure and combine order.
    Rng rng(41);
    std::vector<double> v(size_t{1} << 16);
    for (double &e : v)
        e = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-8, 8));
    auto sum = [&] {
        return parallelReduce(0, v.size(), 0.0,
                              [&](size_t lo, size_t hi) {
                                  double s = 0.0;
                                  for (size_t i = lo; i < hi; ++i)
                                      s += v[i];
                                  return s;
                              },
                              /*grain=*/256);
    };
    const double wide = sum();
    for (unsigned lanes : {1u, 2u, 3u}) {
        ParallelWidthCap cap(lanes);
        EXPECT_EQ(sum(), wide) << lanes;
    }
}
