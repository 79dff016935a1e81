#include "mem/transfer.hpp"

#include <atomic>
#include <cstring>
#include <thread>

#include "metrics/instruments.hpp"

namespace altis::mem {

namespace {

std::atomic<parallel_runner> g_runner{nullptr};  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

/// Copies currently executing through an installed runner. set_parallel_runner
/// spins on this before returning, so a runner (and the pool behind it) can
/// never be torn down underneath an in-flight graph transfer node.
std::atomic<int> g_inflight{0};  // NOLINT(cppcoreguidelines-avoid-non-const-global-variables)

/// Chunk granularity: big enough that per-chunk scheduling cost is noise
/// against the memcpy, small enough that a 64 MiB copy still spreads across
/// every worker.
constexpr std::size_t kChunkBytes = std::size_t{2} * 1024 * 1024;

/// Copies below this stay one memcpy: under it the chunk fan-out costs more
/// than it saves.
constexpr std::size_t kParallelMinBytes = std::size_t{4} * 1024 * 1024;

struct copy_job {
    char* dst;
    const char* src;
    std::size_t bytes;
};

void copy_chunk(void* ctx, std::size_t i) {
    const auto* job = static_cast<const copy_job*>(ctx);
    const std::size_t off = i * kChunkBytes;
    const std::size_t len =
        off + kChunkBytes > job->bytes ? job->bytes - off : kChunkBytes;
    std::memcpy(job->dst + off, job->src + off, len);
}

}  // namespace

void set_parallel_runner(parallel_runner r) {
    g_runner.store(r, std::memory_order_release);
    // Drain: a copy that loaded the previous runner may still be executing.
    // Copies that raced past the store re-check the pointer after raising
    // g_inflight (see copy_bytes), so once the count reaches zero no copy can
    // use the old runner again and the caller may safely tear it down.
    while (g_inflight.load(std::memory_order_acquire) != 0)
        std::this_thread::yield();
}

parallel_runner parallel_runner_installed() {
    return g_runner.load(std::memory_order_acquire);
}

std::size_t parallel_copy_threshold() { return kParallelMinBytes; }

void copy_bytes(void* dst, const void* src, std::size_t bytes) {
    if (bytes == 0) return;
    if (g_runner.load(std::memory_order_acquire) == nullptr ||
        bytes < parallel_copy_threshold()) {
        std::memcpy(dst, src, bytes);
        return;
    }
    // Enter the in-flight window first, then re-read the runner: if a
    // concurrent set_parallel_runner(nullptr) won the race its drain loop
    // already observed count 0, so this copy must not use the stale pointer.
    g_inflight.fetch_add(1, std::memory_order_acq_rel);
    struct inflight_release {
        ~inflight_release() {
            g_inflight.fetch_sub(1, std::memory_order_acq_rel);
        }
    } release;
    const parallel_runner run = g_runner.load(std::memory_order_acquire);
    if (run == nullptr) {
        std::memcpy(dst, src, bytes);
        return;
    }
    copy_job job{static_cast<char*>(dst), static_cast<const char*>(src),
                 bytes};
    const std::size_t chunks = (bytes + kChunkBytes - 1) / kChunkBytes;
    run(chunks, &copy_chunk, &job);
    if (altis::metrics::collecting()) {
        namespace mi = altis::metrics::instruments;
        mi::mem_parallel_copies().add();
        mi::mem_parallel_copy_bytes().add(bytes);
    }
}

}  // namespace altis::mem
