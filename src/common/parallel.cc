#include "common/parallel.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace qcc {

namespace {

uint64_t
nowNs()
{
    return uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

unsigned
parallelThreads()
{
    static const unsigned n = [] {
        if (const char *env = std::getenv("QCC_THREADS")) {
            long v = std::strtol(env, nullptr, 10);
            if (v >= 1)
                return unsigned(v);
        }
        unsigned hw = std::thread::hardware_concurrency();
        return hw ? hw : 1u;
    }();
    return n;
}

namespace {

/**
 * Process-wide lane cap (QCC_JOB_WIDTH, 0/unset = uncapped): the
 * knob the sweepd service sets on worker processes so N concurrent
 * workers split the machine instead of each sizing to all of it.
 */
unsigned
envLaneCap()
{
    static const unsigned n = [] {
        if (const char *env = std::getenv("QCC_JOB_WIDTH")) {
            long v = std::strtol(env, nullptr, 10);
            if (v >= 1)
                return unsigned(v);
        }
        return 0u;
    }();
    return n;
}

thread_local unsigned tlsLaneCap = 0;

} // namespace

unsigned
parallelLanes()
{
    unsigned lanes = parallelThreads();
    if (envLaneCap() && envLaneCap() < lanes)
        lanes = envLaneCap();
    if (tlsLaneCap && tlsLaneCap < lanes)
        lanes = tlsLaneCap;
    return lanes;
}

ParallelWidthCap::ParallelWidthCap(unsigned lanes)
    : previous(tlsLaneCap)
{
    if (lanes)
        tlsLaneCap = lanes;
}

ParallelWidthCap::~ParallelWidthCap()
{
    tlsLaneCap = previous;
}

BoundedExecutor::BoundedExecutor(unsigned width)
    : concurrency(width ? width : parallelThreads())
{
}

void
BoundedExecutor::run(size_t n_tasks,
                     const std::function<void(size_t)> &task) const
{
    if (n_tasks == 0)
        return;
    const unsigned width =
        unsigned(std::min<size_t>(concurrency, n_tasks));
    if (width <= 1) {
        for (size_t i = 0; i < n_tasks; ++i)
            task(i);
        return;
    }
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n_tasks)
                return;
            TraceSpan span("executor.task");
            span.arg("task", i);
            task(i);
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(width - 1);
    for (unsigned t = 0; t + 1 < width; ++t)
        threads.emplace_back(worker);
    worker(); // the caller is the width-th lane
    for (auto &t : threads)
        t.join();
}

namespace detail {

namespace {

thread_local bool insideJob = false;

/**
 * Persistent pool of parallelThreads() - 1 workers plus the calling
 * thread. One job runs at a time; workers claim chunk indices from a
 * shared atomic counter, so uneven chunks load-balance naturally.
 *
 * A worker joins a job only by winning one of its lanes under `mtx`,
 * in the critical section that also reads the job's generation, and
 * run() returns only after every lane winner has left work() and the
 * unclaimed lanes are withdrawn. So no worker is ever still in one
 * job's claim loop when the next job resets the chunk counter, the
 * chunk total and the job pointer.
 *
 * The pool is immortal (heap-allocated and never destroyed, like the
 * trace and metrics registries): an exit-time teardown would have to
 * wake and join the workers, and in a forked child (gtest death
 * tests) the workers do not exist while the condition variable still
 * holds the parent's waiters, so the teardown could block forever.
 */
class ThreadPool
{
  public:
    static ThreadPool &
    instance()
    {
        // Under a process-wide lane cap (QCC_JOB_WIDTH) the extra
        // workers could never win a lane — don't create them.
        static ThreadPool *pool = new ThreadPool(
            envLaneCap() ? std::min(parallelThreads(), envLaneCap())
                         : parallelThreads());
        return *pool;
    }

    void
    run(size_t n_chunks, const std::function<void(size_t)> &fn,
        unsigned max_lanes)
    {
        // Per-job accounting, not per-chunk: two histogram records
        // per pool job, invisible next to the kernel work a job
        // represents. queue_wait_us (recorded by the workers) is
        // the ROADMAP contention probe — how long a submitted job
        // sat before each worker actually got onto it.
        static MetricCounter &jobs = metricCounter("parallel.pool_jobs");
        static MetricHistogram &jobUs =
            metricHistogram("parallel.job_us");
        std::unique_lock<std::mutex> jobLock(jobMutex);
        const uint64_t t0 = nowNs();
        {
            std::lock_guard<std::mutex> lk(mtx);
            job = &fn;
            nextChunk.store(0, std::memory_order_relaxed);
            totalChunks = n_chunks;
            // The caller is always one lane; workers claim the rest.
            laneBudget = max_lanes > 0 ? max_lanes - 1 : 0;
            submitNs = t0;
            ++generation;
        }
        cv.notify_all();
        work();
        // Every chunk is claimed once the caller's loop ends; wait
        // for the lane winners still running theirs, and withdraw
        // the lanes nobody won so a late waker cannot join a job
        // that is over.
        std::unique_lock<std::mutex> lk(mtx);
        doneCv.wait(lk, [&] { return activeLanes == 0; });
        laneBudget = 0;
        job = nullptr;
        jobs.add();
        jobUs.record((nowNs() - t0) / 1000);
    }

  private:
    explicit ThreadPool(unsigned n_threads)
        : queueWaitUs(metricHistogram("parallel.queue_wait_us"))
    {
        for (unsigned i = 0; i + 1 < n_threads; ++i)
            workers.emplace_back([this] { workerLoop(); });
        // Return only once every worker is parked in cv.wait: a
        // caller that forks right after its first pool job (gtest
        // death tests) must not catch a worker mid-start-up, inside
        // the allocator or a registry lock.
        std::unique_lock<std::mutex> lk(mtx);
        doneCv.wait(lk, [&] { return parkedWorkers == workers.size(); });
    }

    void
    work()
    {
        for (;;) {
            size_t ci = nextChunk.fetch_add(1, std::memory_order_relaxed);
            if (ci >= totalChunks)
                return;
            (*job)(ci);
        }
    }

    void
    workerLoop()
    {
        insideJob = true; // nested sweeps inside a chunk stay serial
        uint64_t seen = 0;
        // mtx is held from the check-in until cv.wait releases it,
        // so the constructor, woken under mtx, sees this worker
        // parked.
        std::unique_lock<std::mutex> lk(mtx);
        ++parkedWorkers;
        doneCv.notify_all();
        for (;;) {
            cv.wait(lk, [&] { return generation != seen; });
            seen = generation;
            // Capped jobs (ParallelWidthCap, QCC_JOB_WIDTH) budget
            // fewer lanes than there are workers; a worker that wins
            // none goes back to sleep, leaving the job to the caller
            // and the lanes that did win.
            if (laneBudget == 0)
                continue;
            --laneBudget;
            ++activeLanes;
            const uint64_t submitted = submitNs;
            lk.unlock();
            // Submission-to-lane latency: wakeup plus any time lost
            // to contention on the pool. One record per lane win,
            // before the chunk work starts.
            const uint64_t now = nowNs();
            queueWaitUs.record(
                now > submitted ? (now - submitted) / 1000 : 0);
            work();
            lk.lock();
            if (--activeLanes == 0)
                doneCv.notify_all();
        }
    }

    MetricHistogram &queueWaitUs;
    std::vector<std::thread> workers; ///< run until exit, unjoined
    std::mutex jobMutex; ///< serializes run() callers
    std::mutex mtx;      ///< guards the job state below
    std::condition_variable cv, doneCv;
    size_t parkedWorkers = 0; ///< workers that reached cv.wait
    // job and totalChunks are written under mtx only while no lane
    // winner is active, so work() reads them without the lock.
    const std::function<void(size_t)> *job = nullptr;
    std::atomic<size_t> nextChunk{0};
    size_t totalChunks = 0;
    unsigned laneBudget = 0;  ///< worker lanes still open to claim
    unsigned activeLanes = 0; ///< lane winners inside work()
    uint64_t submitNs = 0;
    uint64_t generation = 0;
};

} // namespace

void
poolRun(size_t n_chunks, const std::function<void(size_t)> &chunk_fn)
{
    if (n_chunks == 0)
        return;
    // Nested parallelism (a chunk spawning chunks) runs serially: the
    // pool executes one job at a time and re-entering would deadlock.
    // A lane budget of 1 also runs inline — chunk for chunk, so the
    // results match the pooled execution bit for bit — which lets
    // width-capped sweep jobs proceed without ever touching (or
    // waiting on) the shared pool.
    const unsigned lanes = parallelLanes();
    if (insideJob || lanes <= 1 || n_chunks == 1) {
        static MetricCounter &inlineJobs =
            metricCounter("parallel.inline_jobs");
        inlineJobs.add();
        for (size_t ci = 0; ci < n_chunks; ++ci)
            chunk_fn(ci);
        return;
    }
    insideJob = true;
    ThreadPool::instance().run(n_chunks, chunk_fn, lanes);
    insideJob = false;
}

} // namespace detail

} // namespace qcc
