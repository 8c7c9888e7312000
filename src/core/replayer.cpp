#include "core/replayer.h"

#include <algorithm>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "common/error.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "core/plan_cache.h"
#include "sim/timeline.h"

namespace mystique::core {

namespace {

/// Weight of the cross-stream contention penalty applied at the end of each
/// async iteration: the iteration clock advances by
/// `alpha * MultiStreamTimeline::overlap_excess()` after the device drains.
/// alpha = 0 would model perfectly free overlap; a small positive value
/// reflects that concurrent streams share SMs and memory bandwidth, so
/// overlapped busy time is slightly slower than the sum of its parts.
constexpr double kStreamContentionAlpha = 0.05;

/// Immutable per-run scheduling state derived from a plan's DepGraph: the
/// per-stream FIFO lanes (ascending stream id, units in program order) and
/// the reverse dependency adjacency used to retire edges as units finish.
struct AsyncSchedule {
    struct Lane {
        int stream = 0;
        std::vector<int> units; ///< unit indices, program order
    };
    std::vector<Lane> lanes;
    std::vector<std::vector<int>> dependents; ///< unit → later dependent units
    std::vector<int> base_indegree;           ///< unit → number of deps
};

AsyncSchedule
build_schedule(const DepGraph& graph)
{
    AsyncSchedule sched;
    const std::size_t n = graph.units.size();
    sched.dependents.resize(n);
    sched.base_indegree.resize(n, 0);
    for (std::size_t u = 0; u < n; ++u) {
        const DepUnit& unit = graph.units[u];
        sched.base_indegree[u] = static_cast<int>(unit.deps.size());
        for (int d : unit.deps)
            sched.dependents[static_cast<std::size_t>(d)].push_back(static_cast<int>(u));
        auto it = std::find_if(sched.lanes.begin(), sched.lanes.end(),
                               [&](const AsyncSchedule::Lane& l) {
                                   return l.stream >= unit.stream;
                               });
        if (it == sched.lanes.end() || it->stream != unit.stream)
            it = sched.lanes.insert(it, AsyncSchedule::Lane{unit.stream, {}});
        it->units.push_back(static_cast<int>(u));
    }
    return sched;
}

/// Clears the async-executor session state on every exit path (including a
/// CancelledError thrown between units), so a caught cancellation can never
/// leave a dangling clock override or sticky reseed mode on a reused session.
struct AsyncModeGuard {
    fw::Session& session;
    ~AsyncModeGuard()
    {
        session.set_clock_override(nullptr);
        session.set_node_reseed_mode(false);
        session.set_stream_override(std::nullopt);
    }
};

/// Runs one iteration of the dependency-tracked multi-stream executor.
///
/// The scheduler is deterministic and cooperative: every stream is a FIFO
/// lane with its own virtual clock (reset to @p iter_start), and the next
/// unit executed is always the eligible lane head with the earliest lane
/// clock (ties broken by ascending stream id).  Eligible means every
/// dependency edge has retired.  Because per-node reseeding makes each
/// unit's randomness a pure function of its identity, and each kernel's
/// start time is a pure function of its lane clock, stream FIFO tail and
/// input readiness, the resulting timeline and numerics are independent of
/// the interleaving — async replay is bit-identical per stream to any other
/// schedule of the same graph.
///
/// @return the iteration end time: all lanes joined, device drained, plus
///         the cross-stream contention penalty.
sim::TimeUs
run_async_iteration(fw::Session& session, const ReplayPlan& plan, TensorManager& tm,
                    const AsyncSchedule& sched, const CancelToken* cancel,
                    sim::TimeUs iter_start)
{
    const std::vector<ReconstructedOp>& ops = plan.ops();
    const DepGraph& graph = plan.dep_graph();
    const std::size_t n_units = graph.units.size();
    const std::size_t first_record = session.device().records().size();

    std::vector<int> indegree = sched.base_indegree;
    std::vector<std::size_t> next(sched.lanes.size(), 0);
    std::vector<sim::VirtualClock> clocks(sched.lanes.size());
    for (auto& clk : clocks)
        clk.reset(iter_start);

    AsyncModeGuard guard{session};
    session.set_node_reseed_mode(true);

    std::size_t executed = 0;
    while (executed < n_units) {
        // Pick the eligible lane head with the earliest clock.  A stalled
        // graph (no eligible head while work remains) can only mean a
        // malformed dependency graph; validate_dep_graph makes that
        // unreachable for derived graphs, so fail loudly.
        std::size_t pick = sched.lanes.size();
        for (std::size_t li = 0; li < sched.lanes.size(); ++li) {
            if (next[li] >= sched.lanes[li].units.size())
                continue;
            const int u = sched.lanes[li].units[next[li]];
            if (indegree[static_cast<std::size_t>(u)] != 0)
                continue;
            if (pick == sched.lanes.size() || clocks[li].now() < clocks[pick].now())
                pick = li;
        }
        MYST_CHECK_MSG(pick < sched.lanes.size(),
                       "async executor stalled: no eligible stream head");

        // Same cooperative cancel contract as the serial walk: between
        // units, never inside one.
        if (cancel != nullptr)
            cancel->throw_if_expired("replay cancelled between ops");

        const int u = sched.lanes[pick].units[next[pick]];
        const DepUnit& unit = graph.units[static_cast<std::size_t>(u)];
        const ReconstructedOp& op = ops[static_cast<std::size_t>(unit.head)];
        session.set_clock_override(&clocks[pick]);
        if (unit.group >= 0) {
            const FusedGroup& group =
                plan.fused_groups()[static_cast<std::size_t>(unit.group)];
            session.switch_thread(group.tid); // relabel only, under override
            session.set_stream_override(group.stream);
            execute_fused_group(session, group,
                                plan.tensor_layout().groups[static_cast<std::size_t>(unit.group)],
                                tm);
        } else {
            session.reseed_for_node(op.node->id);
            session.switch_thread(op.node->tid);
            session.set_stream_override(op.stream);
            execute_reconstructed(session, op,
                                  plan.tensor_layout().op(static_cast<std::size_t>(unit.head)),
                                  tm);
        }
        session.set_stream_override(std::nullopt);

        ++next[pick];
        ++executed;
        for (int v : sched.dependents[static_cast<std::size_t>(u)])
            --indegree[static_cast<std::size_t>(v)];
    }

    // Join: the main clock resumes at the latest lane time, then blocks on
    // the device drain, then pays the contention penalty for busy time that
    // ran concurrently across streams this iteration.
    sim::TimeUs lanes_end = iter_start;
    for (const auto& clk : clocks)
        lanes_end = std::max(lanes_end, clk.now());
    session.set_clock_override(nullptr);
    session.set_node_reseed_mode(false);
    session.set_tid(fw::kMainThread);
    session.cpu_advance_to(lanes_end);
    session.sync_device();

    sim::MultiStreamTimeline timeline;
    const std::vector<dev::KernelRecord>& records = session.device().records();
    for (std::size_t i = first_record; i < records.size(); ++i)
        timeline.add(records[i].stream_id, records[i].interval);
    session.cpu_advance(kStreamContentionAlpha * timeline.overlap_excess());
    return session.cpu_now();
}

/// Process-wide executor state for run_distributed: one shared ThreadPool
/// (grown to the largest world size seen, then reused) plus one cached
/// Session per rank slot.  Repeated distributed replays — the §7.3 scale-down
/// sweeps and every bench that replays the same job N times — stop paying
/// one OS-thread spawn and one cold Session (device tables, arena, autograd
/// engine) per rank per call: sessions are rewound with reset_for_replay(),
/// which deliberately keeps each rank's StorageArena, so rank r's second
/// replay recycles rank r's buffers.
///
/// Sessions are exclusive state, so concurrent run_distributed calls
/// serialize on `mu` (they used to interleave on private ad-hoc threads; a
/// distributed replay saturates the host anyway, so back-to-back is the
/// faster schedule for the calls too).  Rank tasks rendezvous inside
/// collectives, which means every rank of a call MUST run concurrently —
/// the pool is therefore never smaller than the current world size.
class DistributedReplayPool {
  public:
    static DistributedReplayPool& instance()
    {
        static DistributedReplayPool pool;
        return pool;
    }

    /// Guards the session slots across whole run_distributed calls.
    std::mutex mu;

    /// The shared pool, grown (never shrunk) to hold @p world concurrent
    /// rank tasks.  Growth rebuilds the pool; the common repeated-replay
    /// case reuses the existing threads untouched.
    ThreadPool& thread_pool(std::size_t world)
    {
        if (pool_ == nullptr || pool_->size() < world)
            pool_ = std::make_unique<ThreadPool>(world);
        return *pool_;
    }

    /// The cached session for @p rank, rewound for a fresh replay.  Rebuilt
    /// only when the session-shaping parameters (platform, mode, seed, power
    /// limit, world size) changed since the slot was last used; a rebuild
    /// drops that rank's arena, a reuse keeps it.
    fw::Session& rank_session(int rank, int world, const ReplayConfig& cfg)
    {
        Fnv1a h;
        h.mix(cfg.platform);
        h.mix_pod(cfg.mode);
        h.mix_pod(cfg.seed);
        h.mix_pod(cfg.power_limit_w.has_value());
        if (cfg.power_limit_w.has_value())
            h.mix_pod(*cfg.power_limit_w);
        h.mix_pod(world);
        const uint64_t opts_fp = h.value();

        if (sessions_.size() < static_cast<std::size_t>(world))
            sessions_.resize(static_cast<std::size_t>(world));
        Slot& slot = sessions_[static_cast<std::size_t>(rank)];
        if (slot.session == nullptr || slot.opts_fp != opts_fp) {
            fw::SessionOptions opts;
            opts.platform = dev::platform(cfg.platform);
            opts.mode = cfg.mode;
            opts.seed = cfg.seed;
            opts.rank = rank;
            opts.world_size = world;
            opts.power_limit_w = cfg.power_limit_w;
            opts.dispatch = fw::DispatchProfile::replay();
            slot.session = std::make_unique<fw::Session>(opts);
            slot.opts_fp = opts_fp;
        } else {
            slot.session->reset_for_replay();
        }
        return *slot.session;
    }

  private:
    DistributedReplayPool() = default;

    struct Slot {
        uint64_t opts_fp = 0;
        std::unique_ptr<fw::Session> session;
    };

    std::unique_ptr<ThreadPool> pool_;
    std::vector<Slot> sessions_;
};

} // namespace

Replayer::Replayer(const et::ExecutionTrace& trace, const prof::ProfilerTrace* original_prof,
                   ReplayConfig cfg)
    : plan_(ReplayPlan::build_borrowing(trace, original_prof, cfg)), cfg_(std::move(cfg))
{
}

Replayer::Replayer(std::shared_ptr<const ReplayPlan> plan, ReplayConfig cfg)
    : plan_(std::move(plan)), cfg_(std::move(cfg))
{
    MYST_CHECK(plan_ != nullptr);
    // Executing a plan under a config it was not built for silently replays
    // the wrong selection/embedding/mode; the key makes the misuse loud.
    MYST_CHECK_MSG(plan_->key().config_fp == cfg_.fingerprint(),
                   "ReplayConfig does not match the config the plan was built under");
}

void
Replayer::register_process_groups(fw::Session& session,
                                  const std::shared_ptr<comm::CommFabric>& fabric)
{
    for (const auto& [pg_id, orig_ranks] : plan_->trace().meta().process_groups) {
        // Map the original group onto the replay world: members beyond the
        // replay world size exist only in the emulated dimension (§7.3).
        std::vector<int> ranks;
        for (int r : orig_ranks) {
            if (r < fabric->world_size())
                ranks.push_back(r);
        }
        if (ranks.empty() ||
            std::find(ranks.begin(), ranks.end(), session.rank()) == ranks.end())
            continue;
        const int64_t new_gid = fabric->new_group(ranks);
        auto pg = std::make_shared<comm::ProcessGroup>(fabric, new_gid, session.rank());
        if (cfg_.emulate_world_size > 0) {
            pg->set_emulated_world_size(cfg_.emulate_world_size);
        } else if (cfg_.emulate_world_size == -1) {
            pg->set_emulated_world_size(static_cast<int>(orig_ranks.size()));
        }
        session.add_process_group(pg_id, pg);
    }
}

ReplayResult
Replayer::run(const CancelToken* cancel)
{
    fw::SessionOptions opts;
    opts.platform = dev::platform(cfg_.platform);
    opts.mode = cfg_.mode;
    opts.seed = cfg_.seed;
    opts.rank = 0;
    opts.world_size = 1;
    opts.power_limit_w = cfg_.power_limit_w;
    opts.dispatch = fw::DispatchProfile::replay();
    fw::Session session(opts);
    auto fabric = std::make_shared<comm::CommFabric>(1);
    return run_with(session, fabric, cancel);
}

ReplayResult
Replayer::run_with(fw::Session& session, const std::shared_ptr<comm::CommFabric>& fabric,
                   const CancelToken* cancel)
{
    register_process_groups(session, fabric);

    // Replay executes recorded backward ops explicitly; no taping.
    session.set_grad_enabled(false);

    const std::vector<ReconstructedOp>& ops = plan_->ops();
    const TensorLayout& layout = plan_->tensor_layout();

    // The layout (tensor classification, generation policies, slots) was
    // derived once with the plan; a replay only instantiates externals.
    TensorManager tm(session, cfg_.embedding, layout);
    tm.instantiate_externals();

    // The profiler is a stack local; detach on every exit path (including
    // exceptions) so a reused session can never hold a dangling pointer.
    prof::ProfilerSession profiler;
    session.attach_profiler(&profiler);
    struct ProfilerDetach {
        fw::Session& session;
        ~ProfilerDetach() { session.attach_profiler(nullptr); }
    } detach_guard{session};

    ReplayResult result;
    result.coverage = plan_->coverage();

    // The dependency-tracked multi-stream executor (MYST_ASYNC, §4.5's
    // stream semantics taken to their concurrent conclusion) replaces the
    // program-order walk whenever the config asks for it and the plan
    // carries a dependency graph.  The schedule skeleton is built once per
    // replay; per-iteration state (lane clocks, retired-edge counters) is
    // local to run_async_iteration.
    const bool async_mode = cfg_.async_level > 0 && !plan_->dep_graph().empty();
    AsyncSchedule sched;
    if (async_mode)
        sched = build_schedule(plan_->dep_graph());

    const int total_iters = cfg_.warmup_iterations + cfg_.iterations;
    sim::TimeUs timed_start = 0.0;
    for (int iter = 0; iter < total_iters; ++iter) {
        // Profile exactly one iteration, mirroring the original-run harness
        // (so similarity compares like for like).
        const bool profiled = cfg_.collect_profiler && iter == cfg_.warmup_iterations;
        if (profiled)
            profiler.start();
        const sim::TimeUs iter_start = session.sync_device();
        if (iter == cfg_.warmup_iterations)
            timed_start = iter_start;

        sim::TimeUs iter_end = iter_start;
        if (async_mode) {
            iter_end = run_async_iteration(session, *plan_, tm, sched, cancel, iter_start);
        } else {
            for (std::size_t i = 0; i < ops.size(); ++i) {
                const ReconstructedOp& op = ops[i];
                // Cooperative deadline/cancel point: between ops, never inside
                // one — a kernel that started always completes, so cancellation
                // can never tear the simulated device state.
                if (cancel != nullptr)
                    cancel->throw_if_expired("replay cancelled between ops");
                if (op.kind == ReconstructedOp::Kind::kSkipped)
                    continue;
                if (op.fused_group >= 0) {
                    // Members replay as one loop-fused interpreter call issued
                    // at the head; the rest of the group is already covered.
                    if (!op.fused_head)
                        continue;
                    const FusedGroup& group =
                        plan_->fused_groups()[static_cast<std::size_t>(op.fused_group)];
                    session.switch_thread(group.tid);
                    session.set_stream_override(group.stream);
                    execute_fused_group(
                        session, group,
                        layout.groups[static_cast<std::size_t>(op.fused_group)], tm);
                    session.set_stream_override(std::nullopt);
                    continue;
                }
                session.switch_thread(op.node->tid);
                session.set_stream_override(op.stream);
                execute_reconstructed(session, op, layout.op(i), tm);
                session.set_stream_override(std::nullopt);
            }
            session.switch_thread(fw::kMainThread);
            iter_end = session.sync_device();
        }
        if (iter >= cfg_.warmup_iterations)
            result.iter_us.push_back(iter_end - iter_start);
        if (profiled)
            profiler.stop();
    }

    RunningStat stat;
    for (double t : result.iter_us)
        stat.add(t);
    result.mean_iter_us = stat.mean();
    result.metrics = session.device().metrics(timed_start, session.cpu_now());
    result.prof = profiler.take_trace();
    result.numeric_digest = tm.digest();
    return result;
}

std::vector<ReplayResult>
Replayer::run_distributed(const std::vector<const et::ExecutionTrace*>& traces,
                          const std::vector<const prof::ProfilerTrace*>& profs,
                          ReplayConfig cfg, comm::Topology topo)
{
    MYST_CHECK(!traces.empty());
    MYST_CHECK(profs.size() == traces.size());
    const int world = static_cast<int>(traces.size());
    auto fabric = std::make_shared<comm::CommFabric>(world, comm::NetworkModel(topo));

    // Exclusive use of the shared pool and its per-rank sessions for the
    // whole call; concurrent run_distributed calls queue here.
    DistributedReplayPool& shared = DistributedReplayPool::instance();
    std::lock_guard<std::mutex> lock(shared.mu);
    ThreadPool& pool = shared.thread_pool(static_cast<std::size_t>(world));

    // Sessions are prepared (reused + reset, or rebuilt) on the caller's
    // thread — the rank tasks then each own exactly one session, as before.
    std::vector<fw::Session*> sessions(static_cast<std::size_t>(world));
    for (int rank = 0; rank < world; ++rank)
        sessions[static_cast<std::size_t>(rank)] = &shared.rank_session(rank, world, cfg);

    std::vector<ReplayResult> results(static_cast<std::size_t>(world));
    std::vector<std::string> errors(static_cast<std::size_t>(world));
    std::vector<std::future<void>> done;
    done.reserve(static_cast<std::size_t>(world));
    for (int rank = 0; rank < world; ++rank) {
        done.push_back(pool.submit([&, rank] {
            try {
                // Each rank fetches its plan through the process-wide cache
                // *inside* its task: equivalent ranks — all of them, in the
                // §7.3 scale-down and data-parallel cases — share one plan
                // built exactly once (the cache's per-key future serializes
                // same-key builds), while ranks with structurally distinct
                // traces build their plans in parallel.
                const std::shared_ptr<const ReplayPlan> plan =
                    PlanCache::instance().get_or_build(
                        *traces[static_cast<std::size_t>(rank)],
                        profs[static_cast<std::size_t>(rank)], cfg);
                Replayer replayer(plan, cfg);
                results[static_cast<std::size_t>(rank)] = replayer.run_with(
                    *sessions[static_cast<std::size_t>(rank)], fabric);
            } catch (const std::exception& e) {
                errors[static_cast<std::size_t>(rank)] = e.what();
            }
        }));
    }
    for (auto& f : done)
        f.get(); // rank errors are reported below; the tasks never throw
    for (int rank = 0; rank < world; ++rank) {
        if (!errors[static_cast<std::size_t>(rank)].empty())
            MYST_THROW(ReplayError,
                       "rank " << rank << " replay failed: "
                               << errors[static_cast<std::size_t>(rank)]);
    }
    return results;
}

} // namespace mystique::core
