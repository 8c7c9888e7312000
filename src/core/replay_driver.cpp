#include "core/replay_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <numeric>
#include <string>
#include <thread>

#include "common/error.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "device/platform.h"

namespace mystique::core {

namespace {

/// MYST_LOG=1 is the documented env toggle for sweep-stats output (printed
/// unconditionally to stderr); it is unrelated to the MYST_LOG(level, msg)
/// macro in common/logging.h, whose level comes from MYSTIQUE_LOG_LEVEL.
bool
sweep_log_enabled()
{
    const char* v = std::getenv("MYST_LOG");
    return v != nullptr && v[0] == '1';
}

/// Resilience env knobs parse like MYST_OPT_LEVEL: unset/empty means the
/// built-in default, anything else goes through strtoull (a garbage value
/// reads as 0, which is a safe setting for every knob here).
std::optional<uint64_t>
env_u64(const char* name)
{
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return std::nullopt;
    return std::strtoull(v, nullptr, 10);
}

std::string
env_string(const char* name)
{
    const char* v = std::getenv(name);
    return v != nullptr ? v : "";
}

} // namespace

std::vector<std::vector<std::size_t>>
assign_groups(const std::vector<uint64_t>& costs, std::size_t workers)
{
    std::vector<std::size_t> order(costs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (workers <= 1)
        return {order};

    std::stable_sort(order.begin(), order.end(),
                     [&costs](std::size_t a, std::size_t b) { return costs[a] > costs[b]; });
    std::vector<std::vector<std::size_t>> lists(workers);
    std::vector<uint64_t> load(workers, 0);
    for (const std::size_t i : order) {
        const std::size_t w =
            static_cast<std::size_t>(std::min_element(load.begin(), load.end()) - load.begin());
        lists[w].push_back(i);
        load[w] += costs[i];
    }
    return lists;
}

/// One pooled replay worker: a Session + CommFabric constructed once and
/// reused for every group this worker replays.
struct ReplayDriver::Worker {
    explicit Worker(const ReplayConfig& cfg)
    {
        fw::SessionOptions opts;
        opts.platform = dev::platform(cfg.platform);
        opts.mode = cfg.mode;
        opts.seed = cfg.seed;
        opts.rank = 0;
        opts.world_size = 1;
        opts.power_limit_w = cfg.power_limit_w;
        opts.dispatch = fw::DispatchProfile::replay();
        session = std::make_unique<fw::Session>(opts);
        fabric = std::make_shared<comm::CommFabric>(1);
    }

    std::unique_ptr<fw::Session> session;
    std::shared_ptr<comm::CommFabric> fabric;
};

/// Per-sweep snapshot of the resilience knobs plus the shared mutable state
/// of one replay_groups call.  Snapshotting once keeps every group of a sweep
/// under the same policy even if the environment changes mid-sweep; the
/// counters are atomics because workers bump them concurrently.
struct ReplayDriver::ResolvedResilience {
    int max_retries = 0;
    uint64_t backoff_ms = 10;
    std::optional<uint64_t> group_deadline_ms;
    bool probe_quarantined = false;
    /// Sweep-level deadline (never cancelled explicitly; no deadline armed
    /// when the knob is unset, so expired() stays false forever).
    CancelToken sweep_token;
    bool sweep_deadline_armed = false;
    /// Identity of this sweep for journal lookups: the selected groups
    /// (fingerprints, weights, representatives) × the full config, harness
    /// knobs included — a sweep with different iteration counts must not
    /// resume from another's timings.
    uint64_t sweep_fp = 0;
    std::unique_ptr<SweepJournal> journal; ///< null = journaling off
    std::atomic<uint64_t> retries{0};
    std::atomic<uint64_t> backoff_slept_ms{0};
    std::atomic<std::size_t> journal_resumed{0};
    std::atomic<std::size_t> journal_write_failures{0};
};

ReplayDriver::ReplayDriver(ReplayConfig cfg, PlanCache* cache, std::size_t parallelism)
    : cfg_(std::move(cfg)), cache_(cache), parallelism_(std::max<std::size_t>(1, parallelism))
{
    MYST_CHECK(cache_ != nullptr);
}

ReplayDriver::~ReplayDriver() = default;

void
ReplayDriver::set_parallelism(std::size_t parallelism)
{
    parallelism_ = std::max<std::size_t>(1, parallelism);
}

ReplayDriver::Worker&
ReplayDriver::ensure_worker(std::size_t index)
{
    while (workers_.size() <= index)
        workers_.push_back(std::make_unique<Worker>(cfg_));
    return *workers_[index];
}

void
ReplayDriver::resolve_resilience(const et::TraceDatabase& db,
                                 const std::vector<et::TraceGroup>& groups,
                                 ResolvedResilience& res) const
{
    (void)db;
    res.max_retries = max_retries_.has_value()
                          ? *max_retries_
                          : static_cast<int>(env_u64("MYST_SWEEP_RETRIES").value_or(0));
    res.max_retries = std::max(0, res.max_retries);
    res.backoff_ms =
        backoff_ms_.has_value() ? *backoff_ms_ : env_u64("MYST_SWEEP_BACKOFF_MS").value_or(10);
    res.group_deadline_ms = group_deadline_ms_.has_value()
                                ? group_deadline_ms_
                                : env_u64("MYST_SWEEP_GROUP_DEADLINE_MS");
    res.probe_quarantined = probe_quarantined_;
    if (sweep_deadline_ms_.has_value()) {
        res.sweep_token.set_deadline_after_ms(*sweep_deadline_ms_);
        res.sweep_deadline_armed = true;
    }

    Fnv1a h;
    h.mix(cfg_.to_json().dump());
    for (const et::TraceGroup& g : groups) {
        h.mix_pod(g.fingerprint);
        h.mix_pod(g.population_weight);
        h.mix_pod(g.representative());
    }
    res.sweep_fp = h.value();

    const std::string dir =
        journal_dir_.has_value() ? *journal_dir_ : env_string("MYST_SWEEP_JOURNAL");
    if (!dir.empty()) {
        res.journal = std::make_unique<SweepJournal>(dir);
        res.journal->load(); // absorbs journal.load faults: worst case, no resume
    }
}

GroupReplayResult
ReplayDriver::replay_one(Worker& worker, const et::TraceDatabase& db,
                         const et::TraceGroup& group,
                         const std::vector<const prof::ProfilerTrace*>* profs,
                         const CancelToken* cancel)
{
    const std::size_t rep = group.representative();
    const prof::ProfilerTrace* prof =
        profs != nullptr && rep < profs->size() ? (*profs)[rep] : nullptr;

    // trace_handle: the plan shares the database's trace — a disk-tier hit
    // costs one parse + IR compile, never an O(trace) deep copy.
    const std::shared_ptr<const ReplayPlan> plan =
        cache_->get_or_build(db.trace_handle(rep), prof, cfg_);

    // Every group replays from identical session state (clocks, RNG, device,
    // pg-id space) so the result is a pure function of (plan, config) — the
    // parallel sweep's bit-identity with the sequential one depends on this.
    // The session's StorageArena survives the reset: successive groups on
    // this worker recycle the previous group's tensor buffers.  The reset
    // also makes retries safe: a session abandoned mid-iteration by a
    // timeout or failure is rewound, never reused dirty.
    worker.session->reset_for_replay();
    Replayer executor(plan, cfg_);
    GroupReplayResult g;
    g.group = group;
    g.representative = rep;
    g.result = executor.run_with(*worker.session, worker.fabric, cancel);
    g.status = GroupStatus::kOk;
    g.attempts = 1;
    return g;
}

GroupReplayResult
ReplayDriver::run_group_resilient(Worker& worker, const et::TraceDatabase& db,
                                  const et::TraceGroup& group,
                                  const std::vector<const prof::ProfilerTrace*>* profs,
                                  ResolvedResilience& res)
{
    GroupReplayResult g;
    g.group = group;
    g.representative = group.representative();

    // Resume: a completed group restores its recorded (bit-exact) timings
    // for free — even past the sweep deadline, since no replay is burned.
    if (res.journal != nullptr) {
        if (const auto rec = res.journal->completed(res.sweep_fp, group.fingerprint)) {
            g.status = GroupStatus::kOk;
            g.from_journal = true;
            g.attempts = 0;
            g.result.iter_us = rec->iter_us;
            g.result.mean_iter_us = rec->mean_iter_us;
            res.journal_resumed.fetch_add(1, std::memory_order_relaxed);
            return g;
        }
    }

    // Quarantine: a fingerprint with repeated recorded failures is skipped
    // (carrying the last recorded error for reporting) unless this sweep is
    // probing — a probe gives it exactly one healing attempt, no retries.
    const bool quarantined =
        res.journal != nullptr && res.journal->quarantined(group.fingerprint);
    if (quarantined && !res.probe_quarantined) {
        g.status = GroupStatus::kQuarantined;
        g.attempts = 0;
        if (const auto fail = res.journal->last_failure(group.fingerprint))
            g.error = fail->error;
        return g;
    }

    // Sweep deadline: groups not started before it passes are skipped, not
    // failed — nothing is known about them, and they carry no error.
    if (res.sweep_deadline_armed && res.sweep_token.expired()) {
        g.status = GroupStatus::kSkipped;
        g.attempts = 0;
        return g;
    }

    const int max_attempts = quarantined ? 1 : 1 + res.max_retries;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        if (attempt > 1) {
            // Deterministic exponential backoff: 1×, 2×, 4×, ... the base.
            const uint64_t sleep_ms = res.backoff_ms << (attempt - 2);
            res.retries.fetch_add(1, std::memory_order_relaxed);
            res.backoff_slept_ms.fetch_add(sleep_ms, std::memory_order_relaxed);
            if (sleep_ms > 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        }
        g.attempts = static_cast<uint32_t>(attempt);
        try {
            if (FaultInjection::instance().should_fail("sweep.group"))
                MYST_THROW(ReplayError, "injected fault: sweep group replay failed "
                                        "(group fp " << group.fingerprint << ")");
            CancelToken token;
            const CancelToken* cancel = nullptr;
            if (res.group_deadline_ms.has_value()) {
                token.set_deadline_after_ms(*res.group_deadline_ms);
                cancel = &token;
            }
            GroupReplayResult done = replay_one(worker, db, group, profs, cancel);
            g.result = std::move(done.result);
            g.status = GroupStatus::kOk;
            g.error.clear();
            break;
        } catch (const CancelledError& e) {
            // A deadline that expired once would expire again: no retry.
            g.status = GroupStatus::kTimedOut;
            g.error = e.what();
            break;
        } catch (const std::exception& e) {
            g.status = GroupStatus::kFailed;
            g.error = e.what();
        }
    }

    // Journal the terminal outcome.  An ok record after failures resets the
    // quarantine streak (heals); a failed probe extends it.
    if (res.journal != nullptr) {
        SweepJournalRecord rec;
        rec.sweep_fp = res.sweep_fp;
        rec.group_fp = group.fingerprint;
        rec.status = g.status;
        rec.attempts = g.attempts;
        rec.error = g.error;
        rec.population_weight = group.population_weight;
        if (g.status == GroupStatus::kOk) {
            rec.iter_us = g.result.iter_us;
            rec.mean_iter_us = g.result.mean_iter_us;
        }
        if (!res.journal->append(rec))
            res.journal_write_failures.fetch_add(1, std::memory_order_relaxed);
    }
    return g;
}

DatabaseReplayResult
ReplayDriver::replay_groups(const et::TraceDatabase& db, std::size_t top_k,
                            const std::vector<const prof::ProfilerTrace*>* profs)
{
    DatabaseReplayResult out;
    if (db.size() == 0 || top_k == 0) {
        out.cache = cache_->stats();
        return out;
    }

    std::vector<et::TraceGroup> groups = db.analyze();
    if (groups.size() > top_k)
        groups.resize(top_k);
    out.groups.resize(groups.size());

    ResolvedResilience res;
    resolve_resilience(db, groups, res);

    // Static cost-balanced schedule.  A group's cost is estimated by its
    // representative trace's node count, which the sweep already holds.
    std::vector<uint64_t> costs(groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i)
        costs[i] = db.trace(groups[i].representative()).size();
    const std::size_t workers = std::min(parallelism_, groups.size());
    const std::vector<std::vector<std::size_t>> schedule = assign_groups(costs, workers);
    for (std::size_t w = 0; w < workers; ++w)
        ensure_worker(w); // construct on the driver thread, use on pool threads

    // Each worker session is owned by exactly one task; only the PlanCache
    // and the resilience state (both thread-safe) are shared.  Tasks never
    // throw: every per-group outcome — including an injected sweep.group
    // fault on several workers at once — lands in its own GroupReplayResult,
    // so one sick group can no longer mask another's error or abort the
    // sweep.
    auto replay_list = [&](std::size_t w) {
        for (const std::size_t i : schedule[w]) {
            const auto t0 = std::chrono::steady_clock::now();
            out.groups[i] = run_group_resilient(*workers_[w], db, groups[i], profs, res);
            out.groups[i].host_ms = std::chrono::duration<double, std::milli>(
                                        std::chrono::steady_clock::now() - t0)
                                        .count();
        }
    };
    if (workers <= 1) {
        replay_list(0);
    } else {
        if (pool_ == nullptr || pool_->size() != workers)
            pool_ = std::make_unique<ThreadPool>(workers);
        // Each task waits until all K have started, so every list runs on
        // its own pool thread.  Without the latch a thread that starts early
        // (pool threads can start milliseconds apart on a busy host) finishes
        // its list and takes a late thread's list too, and the busiest
        // thread carries two lists no matter how well they were balanced.
        std::latch started(static_cast<std::ptrdiff_t>(workers));
        std::vector<std::future<void>> done;
        done.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            done.push_back(pool_->submit([&replay_list, &started, w] {
                started.arrive_and_wait();
                replay_list(w);
            }));
        for (std::future<void>& d : done)
            d.get();
    }

    // Merge in group order regardless of which worker replayed what, so the
    // weighted mean's floating-point summation order is fixed.  Only ok
    // groups (replayed or journal-restored) contribute to the mean; on a
    // fully healthy sweep this is arithmetic-identical to summing everything.
    double weight_sum = 0.0;
    double ok_weight_sum = 0.0;
    double weighted_us = 0.0;
    for (const GroupReplayResult& g : out.groups) {
        weight_sum += g.group.population_weight;
        switch (g.status) {
        case GroupStatus::kOk:
            ok_weight_sum += g.group.population_weight;
            weighted_us += g.group.population_weight * g.result.mean_iter_us;
            ++out.groups_ok;
            break;
        case GroupStatus::kFailed: ++out.groups_failed; break;
        case GroupStatus::kTimedOut: ++out.groups_timed_out; break;
        case GroupStatus::kQuarantined: ++out.groups_quarantined; break;
        case GroupStatus::kSkipped: ++out.groups_skipped; break;
        }
    }
    out.population_covered = weight_sum;
    out.population_covered_ok = ok_weight_sum;
    out.weighted_mean_iter_us = ok_weight_sum > 0.0 ? weighted_us / ok_weight_sum : 0.0;
    out.retries = res.retries.load(std::memory_order_relaxed);
    out.backoff_ms = res.backoff_slept_ms.load(std::memory_order_relaxed);
    out.journal_resumed = res.journal_resumed.load(std::memory_order_relaxed);
    out.journal_write_failures = res.journal_write_failures.load(std::memory_order_relaxed);
    out.cache = cache_->stats();
    for (const auto& w : workers_) {
        const fw::StorageArenaStats s = w->session->arena().stats();
        out.arena.hits += s.hits;
        out.arena.misses += s.misses;
        out.arena.returns += s.returns;
        out.arena.heap_frees += s.heap_frees;
        out.arena.bytes_outstanding += s.bytes_outstanding;
        // Max, not sum: per-worker peaks happen at different times, so their
        // sum would report a high-water mark no state ever reached.
        out.arena.peak_bytes_outstanding =
            std::max(out.arena.peak_bytes_outstanding, s.peak_bytes_outstanding);
        out.arena.bytes_cached += s.bytes_cached;
    }

    if (sweep_log_enabled()) {
        std::fprintf(stderr,
                     "[mystique] sweep: %zu groups, parallelism=%zu, "
                     "weighted_mean_iter_us=%.2f\n"
                     "[mystique]   resilience: ok=%zu failed=%zu timed_out=%zu "
                     "quarantined=%zu skipped=%zu retries=%llu backoff_ms=%llu "
                     "resumed=%zu journal_write_failures=%zu covered_ok=%.4f\n"
                     "[mystique]   plan cache: hits=%llu misses=%llu disk_hits=%llu "
                     "disk_misses=%llu builds=%llu writebacks=%llu evictions=%llu "
                     "size=%zu/%zu\n"
                     "[mystique]   optimizer: chains=%llu ops_fused=%llu "
                     "ops_eliminated=%llu optimize_us=%.1f (builds only)\n"
                     "[mystique]   arena: hits=%llu misses=%llu returns=%llu "
                     "cached=%lld B outstanding=%lld B (max worker peak %lld B)\n",
                     out.groups.size(), parallelism_, out.weighted_mean_iter_us,
                     out.groups_ok, out.groups_failed, out.groups_timed_out,
                     out.groups_quarantined, out.groups_skipped,
                     static_cast<unsigned long long>(out.retries),
                     static_cast<unsigned long long>(out.backoff_ms),
                     out.journal_resumed, out.journal_write_failures,
                     out.population_covered_ok,
                     static_cast<unsigned long long>(out.cache.hits),
                     static_cast<unsigned long long>(out.cache.misses),
                     static_cast<unsigned long long>(out.cache.disk_hits),
                     static_cast<unsigned long long>(out.cache.disk_misses),
                     static_cast<unsigned long long>(out.cache.builds),
                     static_cast<unsigned long long>(out.cache.writebacks),
                     static_cast<unsigned long long>(out.cache.evictions),
                     out.cache.size, out.cache.capacity,
                     static_cast<unsigned long long>(out.cache.opt_chains_formed),
                     static_cast<unsigned long long>(out.cache.opt_ops_fused),
                     static_cast<unsigned long long>(out.cache.opt_ops_eliminated),
                     out.cache.opt_time_us,
                     static_cast<unsigned long long>(out.arena.hits),
                     static_cast<unsigned long long>(out.arena.misses),
                     static_cast<unsigned long long>(out.arena.returns),
                     static_cast<long long>(out.arena.bytes_cached),
                     static_cast<long long>(out.arena.bytes_outstanding),
                     static_cast<long long>(out.arena.peak_bytes_outstanding));

        // The schedule by its own estimate, then the measured slowest groups:
        // their cost estimates show how well the estimate ranks real work.
        uint64_t max_load = 0;
        uint64_t total = 0;
        for (const std::vector<std::size_t>& list : schedule) {
            uint64_t load = 0;
            for (const std::size_t i : list)
                load += costs[i];
            max_load = std::max(max_load, load);
            total += load;
        }
        std::fprintf(stderr,
                     "[mystique]   schedule: %zu workers, estimated max/mean worker load "
                     "%.3f (%llu / %.1f nodes)\n",
                     workers,
                     total > 0 ? static_cast<double>(max_load) * static_cast<double>(workers) /
                                     static_cast<double>(total)
                               : 1.0,
                     static_cast<unsigned long long>(max_load),
                     static_cast<double>(total) / static_cast<double>(workers));
        std::vector<std::size_t> slowest(out.groups.size());
        std::iota(slowest.begin(), slowest.end(), std::size_t{0});
        const std::size_t shown = std::min<std::size_t>(3, slowest.size());
        std::partial_sort(slowest.begin(), slowest.begin() + static_cast<std::ptrdiff_t>(shown),
                          slowest.end(), [&out](std::size_t a, std::size_t b) {
                              return out.groups[a].host_ms > out.groups[b].host_ms;
                          });
        for (std::size_t k = 0; k < shown; ++k) {
            const GroupReplayResult& g = out.groups[slowest[k]];
            std::fprintf(stderr,
                         "[mystique]   slow group #%zu (%s): %.3f ms host, %llu nodes "
                         "estimated\n",
                         slowest[k], g.group.representative_workload.c_str(), g.host_ms,
                         static_cast<unsigned long long>(costs[slowest[k]]));
        }
    }
    return out;
}

} // namespace mystique::core
