#include "thread_pool.hh"

namespace ecssd
{
namespace sim
{

namespace
{

/** Set while this thread is executing a parallelFor body, so nested
 *  calls run inline instead of deadlocking the pool. */
thread_local bool inParallelBody = false;

} // namespace

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads == 0 ? 1 : threads)
{
    for (unsigned t = 1; t < threads_; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

std::size_t
ThreadPool::drainChunks(
    const std::function<void(std::size_t, std::size_t)> &body)
{
    // Claim chunks until none remain.  Chunk geometry is fixed at
    // job start, so the claimed index alone determines the range.
    std::size_t executed = 0;
    inParallelBody = true;
    for (;;) {
        const std::size_t chunk =
            nextChunk_.fetch_add(1, std::memory_order_relaxed);
        if (chunk >= chunkCount_)
            break;
        const std::size_t chunk_begin =
            jobBegin_ + chunk * jobGrain_;
        const std::size_t chunk_end =
            std::min(jobEnd_, chunk_begin + jobGrain_);
        body(chunk_begin, chunk_end);
        ++executed;
    }
    inParallelBody = false;
    return executed;
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen_job = 0;
    for (;;) {
        const std::function<void(std::size_t, std::size_t)> *body =
            nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stopping_
                    || (jobActive_ && jobId_ != seen_job);
            });
            if (stopping_)
                return;
            seen_job = jobId_;
            body = body_;
            // Joining under the lock pins the job: its owner cannot
            // retire it, and so cannot reset the chunk cursor for its
            // next job, until this worker has left.
            ++participants_;
        }
        const std::size_t executed = drainChunks(*body);
        std::lock_guard<std::mutex> lock(mutex_);
        chunksDone_ += executed;
        --participants_;
        if (chunksDone_ == chunkCount_ && participants_ == 0)
            done_.notify_all();
    }
}

void
ThreadPool::parallelFor(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)> &body)
{
    if (end <= begin)
        return;
    if (grain == 0)
        grain = 1;
    const std::size_t count = end - begin;
    const std::size_t chunks = (count + grain - 1) / grain;

    // The serial pool, a single chunk, and nested calls all run
    // inline — over the exact same chunk boundaries the parallel
    // path would use, so the two paths are interchangeable bit for
    // bit under the chunk-independence contract.
    if (threads_ == 1 || chunks == 1 || inParallelBody) {
        for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
            const std::size_t chunk_begin = begin + chunk * grain;
            body(chunk_begin, std::min(end, chunk_begin + grain));
        }
        return;
    }

    {
        std::unique_lock<std::mutex> lock(mutex_);
        // One job at a time: a concurrent caller parks here until
        // the active job's owner retires it.
        done_.wait(lock, [&] { return !jobActive_; });
        body_ = &body;
        jobBegin_ = begin;
        jobEnd_ = end;
        jobGrain_ = grain;
        chunkCount_ = chunks;
        chunksDone_ = 0;
        nextChunk_.store(0, std::memory_order_relaxed);
        ++jobId_;
        jobActive_ = true;
    }
    wake_.notify_all();

    // The caller is a full participant.
    const std::size_t executed = drainChunks(body);

    std::unique_lock<std::mutex> lock(mutex_);
    chunksDone_ += executed;
    // Only the owning caller retires the job, and only once every
    // worker that joined it has left: a worker still inside
    // drainChunks() would otherwise claim chunks of the next job and
    // run them with this job's (by then dead) body.
    done_.wait(lock, [&] {
        return chunksDone_ == chunkCount_ && participants_ == 0;
    });
    jobActive_ = false;
    body_ = nullptr;
    done_.notify_all();
}

} // namespace sim
} // namespace ecssd
