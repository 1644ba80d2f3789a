/**
 * @file
 * Block-parallel helpers for the simulator's amplitude sweeps. A
 * persistent std::thread pool executes chunked index ranges; small
 * ranges (or single-core machines, or QCC_THREADS=1) run inline so
 * the kernels stay deterministic and cheap at low qubit counts.
 * Reductions combine per-chunk partials in chunk order, so results
 * are bit-identical regardless of thread timing.
 */

#ifndef QCC_COMMON_PARALLEL_HH
#define QCC_COMMON_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <vector>

namespace qcc {

/**
 * Worker count used for parallel sweeps: QCC_THREADS when set,
 * otherwise std::thread::hardware_concurrency (at least 1). This is
 * the number that shapes chunking — and therefore results — so it
 * never varies at runtime.
 */
unsigned parallelThreads();

/**
 * Pool lanes a data-parallel sweep started on the calling thread may
 * occupy right now: parallelThreads() clamped by the process-wide
 * `QCC_JOB_WIDTH` cap and any ParallelWidthCap active on this
 * thread. Chunk structure is NOT derived from this (see
 * ParallelWidthCap), so capping changes scheduling, never results.
 */
unsigned parallelLanes();

/**
 * RAII per-thread cap on the pool lanes parallelFor/parallelReduce
 * sweeps may occupy — the fix for nested-parallelism
 * oversubscription: when the sweep engine runs N concurrent jobs,
 * each job caps its own sweeps to parallelThreads() / N lanes
 * instead of letting every job contend for the whole machine. A cap
 * of 1 runs sweeps inline on the caller (jobs stop serializing on
 * the shared pool entirely); a cap of 0 is a no-op. Chunking still
 * follows parallelThreads(), and chunk partials combine in chunk
 * order, so a capped sweep is bit-identical to an uncapped one —
 * the concurrency-1-vs-N byte-identity contract survives.
 */
class ParallelWidthCap
{
  public:
    explicit ParallelWidthCap(unsigned lanes);
    ~ParallelWidthCap();

    ParallelWidthCap(const ParallelWidthCap &) = delete;
    ParallelWidthCap &operator=(const ParallelWidthCap &) = delete;

  private:
    unsigned previous;
};

namespace detail {

/**
 * Run chunk_fn(0) ... chunk_fn(n_chunks - 1) on the shared pool,
 * blocking until every chunk finishes. Chunks must be independent.
 * Nested calls from inside a chunk run serially, as does any call
 * while parallelLanes() <= 1 (single core, QCC_THREADS=1, or a
 * width cap of 1).
 */
void poolRun(size_t n_chunks, const std::function<void(size_t)> &chunk_fn);

/** Split [begin, end) into at most max_chunks grain-sized pieces. */
inline size_t
chunkCount(size_t begin, size_t end, size_t grain, size_t max_chunks)
{
    const size_t n = end - begin;
    return std::min(max_chunks, (n + grain - 1) / grain);
}

} // namespace detail

/** Default minimum elements per chunk; below ~2*this a sweep is serial. */
constexpr size_t kParallelGrain = size_t{1} << 14;

/**
 * Cooperative cancellation flag shared between a controller and the
 * workers it fans out. Cancellation is a request, not a kill: code
 * that honors the token checks cancelled() at its own safe points
 * (the sweep engine checks before claiming each job), so in-flight
 * work always completes and its results stay consistent.
 */
class CancellationToken
{
  public:
    void requestCancel() { flag.store(true, std::memory_order_release); }
    bool cancelled() const { return flag.load(std::memory_order_acquire); }
    void reset() { flag.store(false, std::memory_order_release); }

  private:
    std::atomic<bool> flag{false};
};

/**
 * Bounded-concurrency executor for coarse independent jobs — whole
 * Experiment runs, not the amplitude-sweep chunks poolRun schedules.
 * Jobs claim indices from a shared counter on up to `width` dedicated
 * threads (plus load-balancing for free); a job may itself fan out
 * over the shared data-parallel pool, which serializes pool use
 * across jobs rather than deadlocking. Width 1 (or a single task)
 * runs inline on the caller with no thread traffic at all, which is
 * what makes concurrency-1 sweep runs bit-identical baselines.
 *
 * Tasks must not throw: exceptions cannot cross the thread boundary,
 * so callers catch inside the task (the sweep engine records a
 * failed-job status instead).
 */
class BoundedExecutor
{
  public:
    /** width 0 falls back to parallelThreads(). */
    explicit BoundedExecutor(unsigned width = 0);

    unsigned width() const { return concurrency; }

    /** Run task(0) ... task(n_tasks - 1); blocks until all finish. */
    void run(size_t n_tasks,
             const std::function<void(size_t)> &task) const;

  private:
    unsigned concurrency;
};

/**
 * Reusable heap buffers for per-task scratch state. Batched fan-outs
 * (the parameter-shift gradient's per-task statevectors) acquire a
 * buffer at task start and release it at task end, so steady-state
 * gradient calls recycle a few large allocations instead of paying
 * one O(2^n) allocation per task. Thread-safe; acquire() resizes the
 * recycled buffer to the requested length (no reallocation once the
 * pool has warmed up at that size). The pool caps both how many free
 * buffers it retains and their total retained capacity — beyond
 * either limit, released buffers are simply freed — so one wide
 * fan-out on a large problem cannot pin peak-size scratch memory
 * for the rest of the process.
 */
template <typename T>
class BufferPool
{
  public:
    /** Defaults: 32 buffers, 2^26 elements (1 GiB of cplx) total. */
    explicit BufferPool(size_t max_free = 32,
                        size_t max_elements = size_t{1} << 26)
        : maxFree(max_free), maxElements(max_elements)
    {
    }

    /** A buffer of exactly n elements (recycled when available). */
    std::vector<T>
    acquire(size_t n)
    {
        std::vector<T> buf;
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (!freeList.empty()) {
                buf = std::move(freeList.back());
                freeList.pop_back();
                pooledElements -= buf.capacity();
            }
        }
        buf.resize(n);
        return buf;
    }

    /** Return a buffer to the pool (dropped when over a cap). */
    void
    release(std::vector<T> &&buf)
    {
        if (buf.capacity() == 0)
            return;
        std::lock_guard<std::mutex> lock(mutex);
        if (freeList.size() >= maxFree ||
            pooledElements + buf.capacity() > maxElements)
            return; // freed on scope exit
        pooledElements += buf.capacity();
        freeList.push_back(std::move(buf));
    }

  private:
    std::mutex mutex;
    std::vector<std::vector<T>> freeList;
    size_t maxFree;
    size_t maxElements;
    size_t pooledElements = 0;
};

/**
 * Apply body(lo, hi) over a partition of [begin, end). The body may
 * write freely inside its own subrange (and to pair partners that no
 * other subrange selects, as the bit-mask kernels do).
 */
template <typename Body>
void
parallelFor(size_t begin, size_t end, Body &&body,
            size_t grain = kParallelGrain)
{
    const unsigned nt = parallelThreads();
    if (nt <= 1 || end - begin <= 2 * grain) {
        if (begin < end)
            body(begin, end);
        return;
    }
    const size_t chunks =
        detail::chunkCount(begin, end, grain, size_t{nt} * 4);
    const size_t step = (end - begin + chunks - 1) / chunks;
    detail::poolRun(chunks, [&](size_t ci) {
        const size_t lo = begin + ci * step;
        const size_t hi = std::min(end, lo + step);
        if (lo < hi)
            body(lo, hi);
    });
}

/**
 * Reduce body(lo, hi) -> T over a partition of [begin, end); partials
 * are combined with += in chunk order (deterministic).
 */
template <typename T, typename Body>
T
parallelReduce(size_t begin, size_t end, T init, Body &&body,
               size_t grain = kParallelGrain)
{
    const unsigned nt = parallelThreads();
    if (nt <= 1 || end - begin <= 2 * grain) {
        T acc = init;
        if (begin < end)
            acc += body(begin, end);
        return acc;
    }
    const size_t chunks =
        detail::chunkCount(begin, end, grain, size_t{nt} * 4);
    const size_t step = (end - begin + chunks - 1) / chunks;
    std::vector<T> partial(chunks, init);
    detail::poolRun(chunks, [&](size_t ci) {
        const size_t lo = begin + ci * step;
        const size_t hi = std::min(end, lo + step);
        if (lo < hi)
            partial[ci] = body(lo, hi);
    });
    T acc = init;
    for (size_t ci = 0; ci < chunks; ++ci)
        acc += partial[ci];
    return acc;
}

} // namespace qcc

#endif // QCC_COMMON_PARALLEL_HH
