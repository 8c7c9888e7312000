/// ReplayDriver parallel-sweep tests: a parallelism=K sweep must produce
/// results bit-identical to the sequential sweep (same per-group timings,
/// same weighted mean, same coverage), repeated sweeps on one driver must be
/// stable (buffer recycling cannot perturb virtual time), and the arena
/// stats surfaced per sweep must show the recycling actually happening.
///
/// The ReplayDriverResilience suite covers the fault-isolation layer: group
/// failures recorded instead of thrown, retry with backoff, group and sweep
/// deadlines, journal resume, quarantine + heal — and, crucially, that none
/// of it perturbs a healthy sweep by a single bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/plan_cache.h"
#include "core/replay_driver.h"
#include "workloads/harness.h"

namespace mystique::core {
namespace {

wl::RunConfig
trace_cfg(fw::ExecMode mode)
{
    wl::RunConfig cfg;
    cfg.mode = mode;
    cfg.warmup_iterations = 1;
    cfg.iterations = 2;
    cfg.seed = 7;
    return cfg;
}

ReplayConfig
replay_cfg(fw::ExecMode mode)
{
    ReplayConfig cfg;
    cfg.mode = mode;
    cfg.warmup_iterations = 1;
    cfg.iterations = 3;
    cfg.seed = 11;
    return cfg;
}

/// A database whose groups have distinct op mixes and skewed populations.
struct SweepFixture {
    et::TraceDatabase db;
    std::vector<wl::RunResult> runs;
    std::vector<const prof::ProfilerTrace*> profs;

    explicit SweepFixture(fw::ExecMode mode, bool include_paper_preset)
    {
        wl::WorkloadOptions tiny;
        tiny.preset = wl::Preset::kTiny;
        std::vector<std::pair<const char*, wl::WorkloadOptions>> specs = {
            {"param_linear", tiny}, {"rm", tiny}, {"asr", tiny}, {"resnet", tiny}};
        if (include_paper_preset) {
            wl::WorkloadOptions paper;
            paper.preset = wl::Preset::kPaper;
            specs.emplace_back("param_linear", paper);
        }
        const std::vector<int> copies = {3, 2, 2, 1, 1};
        runs.reserve(specs.size()); // no reallocation: profs point into runs
        for (std::size_t i = 0; i < specs.size(); ++i) {
            runs.push_back(wl::run_original(specs[i].first, specs[i].second,
                                            trace_cfg(mode)));
            for (int c = 0; c < copies[i]; ++c) {
                db.add(runs.back().rank0().trace);
                profs.push_back(&runs.back().rank0().prof);
            }
        }
    }
};

void
expect_identical(const DatabaseReplayResult& a, const DatabaseReplayResult& b)
{
    ASSERT_EQ(a.groups.size(), b.groups.size());
    EXPECT_EQ(a.weighted_mean_iter_us, b.weighted_mean_iter_us);
    EXPECT_EQ(a.population_covered, b.population_covered);
    for (std::size_t i = 0; i < a.groups.size(); ++i) {
        const GroupReplayResult& ga = a.groups[i];
        const GroupReplayResult& gb = b.groups[i];
        EXPECT_EQ(ga.group.fingerprint, gb.group.fingerprint);
        EXPECT_EQ(ga.representative, gb.representative);
        EXPECT_EQ(ga.result.mean_iter_us, gb.result.mean_iter_us);
        ASSERT_EQ(ga.result.iter_us.size(), gb.result.iter_us.size());
        for (std::size_t j = 0; j < ga.result.iter_us.size(); ++j)
            EXPECT_EQ(ga.result.iter_us[j], gb.result.iter_us[j]);
    }
}

TEST(ReplayDriver, ParallelSweepMatchesSequential)
{
    SweepFixture fx(fw::ExecMode::kShapeOnly, /*include_paper_preset=*/true);
    ASSERT_GE(fx.db.analyze().size(), 4u);

    PlanCache cache_seq(16), cache_par(16);
    ReplayDriver seq(replay_cfg(fw::ExecMode::kShapeOnly), &cache_seq, 1);
    ReplayDriver par(replay_cfg(fw::ExecMode::kShapeOnly), &cache_par, 4);
    EXPECT_EQ(par.parallelism(), 4u);

    const DatabaseReplayResult r1 = seq.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    const DatabaseReplayResult r4 = par.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    EXPECT_GT(r1.weighted_mean_iter_us, 0.0);
    expect_identical(r1, r4);
}

TEST(ReplayDriver, NumericParallelSweepMatchesSequential)
{
    // Numeric mode exercises real tensor materialization, so recycled
    // (uninitialized) arena buffers flow through every kernel; virtual time
    // must not depend on their contents.
    SweepFixture fx(fw::ExecMode::kNumeric, /*include_paper_preset=*/false);

    PlanCache cache_seq(16), cache_par(16);
    ReplayDriver seq(replay_cfg(fw::ExecMode::kNumeric), &cache_seq, 1);
    ReplayDriver par(replay_cfg(fw::ExecMode::kNumeric), &cache_par, 3);

    const DatabaseReplayResult r1 = seq.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    const DatabaseReplayResult r3 = par.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    expect_identical(r1, r3);
}

TEST(ReplayDriver, RepeatedSweepsAreStableAndRecycle)
{
    SweepFixture fx(fw::ExecMode::kNumeric, /*include_paper_preset=*/false);
    PlanCache cache(16);
    ReplayDriver driver(replay_cfg(fw::ExecMode::kNumeric), &cache, 2);

    const DatabaseReplayResult first = driver.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    const DatabaseReplayResult second = driver.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    expect_identical(first, second);

    // The second sweep replays every group on warm sessions: all plans come
    // from the cache and tensor buffers come from the arenas.
    EXPECT_EQ(second.cache.misses, first.cache.misses);
    EXPECT_GT(second.arena.hits, first.arena.hits);
    EXPECT_GT(second.arena.hits, 0u);
}

TEST(ReplayDriver, TopKHonoredUnderParallelism)
{
    SweepFixture fx(fw::ExecMode::kShapeOnly, /*include_paper_preset=*/false);
    PlanCache cache(16);
    ReplayDriver driver(replay_cfg(fw::ExecMode::kShapeOnly), &cache, 4);
    const DatabaseReplayResult r = driver.replay_groups(fx.db, 2, &fx.profs);
    ASSERT_EQ(r.groups.size(), 2u);
    EXPECT_GE(r.groups[0].group.population_weight, r.groups[1].group.population_weight);
    EXPECT_LT(r.population_covered, 1.0);
    EXPECT_GT(r.population_covered, 0.0);
}

TEST(ReplayDriver, SetParallelismTakesEffect)
{
    SweepFixture fx(fw::ExecMode::kShapeOnly, /*include_paper_preset=*/false);
    PlanCache cache(16);
    ReplayDriver driver(replay_cfg(fw::ExecMode::kShapeOnly), &cache, 1);
    const DatabaseReplayResult r1 = driver.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    driver.set_parallelism(0); // clamped
    EXPECT_EQ(driver.parallelism(), 1u);
    driver.set_parallelism(3);
    EXPECT_EQ(driver.parallelism(), 3u);
    const DatabaseReplayResult r3 = driver.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    expect_identical(r1, r3);
}

/// Sum of @p costs over each worker's list.
std::vector<uint64_t>
worker_loads(const std::vector<std::vector<std::size_t>>& lists,
             const std::vector<uint64_t>& costs)
{
    std::vector<uint64_t> loads;
    for (const std::vector<std::size_t>& list : lists) {
        uint64_t load = 0;
        for (const std::size_t i : list)
            load += costs[i];
        loads.push_back(load);
    }
    return loads;
}

TEST(AssignGroups, OneWorkerKeepsGroupOrder)
{
    // The sweep.group kOnce fault tests rely on groups[0] being attempted
    // first in a sequential sweep, whatever the costs.
    const std::vector<uint64_t> costs = {1, 9, 4, 9, 2};
    const std::vector<std::vector<std::size_t>> want = {{0, 1, 2, 3, 4}};
    EXPECT_EQ(assign_groups(costs, 1), want);
    EXPECT_EQ(assign_groups(costs, 0), want);
}

TEST(AssignGroups, LongestFirstWithTiesByGroupIndex)
{
    // Equal costs: group index decides the order, lowest worker index
    // breaks load ties.
    const std::vector<std::vector<std::size_t>> even = {{0, 2}, {1, 3}};
    EXPECT_EQ(assign_groups({5, 5, 5, 5}, 2), even);
    // 1 and 2 tie at the top; 1 goes first, to worker 0.
    const std::vector<uint64_t> costs = {1, 3, 3, 2};
    const std::vector<std::vector<std::size_t>> want = {{1, 3}, {2, 0}};
    EXPECT_EQ(assign_groups(costs, 2), want);
    EXPECT_EQ(assign_groups(costs, 2), assign_groups(costs, 2));
    // More workers than groups: the extra workers get nothing.
    const std::vector<std::vector<std::size_t>> wide = {{1}, {2}, {3}, {0}, {}};
    EXPECT_EQ(assign_groups(costs, 5), wide);
}

TEST(AssignGroups, EveryGroupOnceAndMaxLoadWithinGrahamBound)
{
    uint64_t state = 12345;
    for (int round = 0; round < 50; ++round) {
        const std::size_t n = 1 + static_cast<std::size_t>(round % 13);
        std::vector<uint64_t> costs(n);
        for (uint64_t& c : costs) {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            c = (state >> 33) % 1000;
        }
        for (std::size_t k = 2; k <= 5; ++k) {
            const auto lists = assign_groups(costs, k);
            ASSERT_EQ(lists.size(), k);
            std::vector<int> seen(n, 0);
            for (const auto& list : lists)
                for (const std::size_t i : list)
                    ++seen[i];
            EXPECT_EQ(seen, std::vector<int>(n, 1));

            const std::vector<uint64_t> loads = worker_loads(lists, costs);
            uint64_t total = 0;
            for (const uint64_t c : costs)
                total += c;
            const uint64_t max_cost = *std::max_element(costs.begin(), costs.end());
            const uint64_t max_load = *std::max_element(loads.begin(), loads.end());
            EXPECT_LE(static_cast<double>(max_load),
                      static_cast<double>(total) / static_cast<double>(k) +
                          static_cast<double>(max_cost));
        }
    }
}

TEST(AssignGroups, FleetMixNodeCountsBalanceAtFourWorkers)
{
    // Representative-trace node counts of fleet_mix's seven groups, in group
    // order.  Host-independent companion to the wall-clock K=4 gates: by the
    // estimate, the busiest worker carries <= 1.3x the mean load.  LPT gives
    // 488 / 427.5 = 1.14x; striping (group i on worker i % 4) gives 735 =
    // 1.72x, with resnet (307) and asr (428) on one worker.
    const std::vector<uint64_t> costs = {307, 326, 54, 239, 428, 107, 249};
    const std::vector<uint64_t> loads = worker_loads(assign_groups(costs, 4), costs);
    const double mean = 1710.0 / 4.0;
    const uint64_t max_load = *std::max_element(loads.begin(), loads.end());
    EXPECT_EQ(max_load, 488u);
    EXPECT_LE(static_cast<double>(max_load), 1.3 * mean);
}

/// Disarms every fault site on construction and destruction, so a failing
/// assertion mid-test can never leak an armed fault into later tests.
struct FaultGuard {
    FaultGuard() { FaultInjection::instance().disarm_all(); }
    ~FaultGuard() { FaultInjection::instance().disarm_all(); }
};

/// Unique per-test scratch directory for journal files.
struct JournalDir {
    explicit JournalDir(const char* tag)
        : path((std::filesystem::path(::testing::TempDir()) /
                (std::string("myst_sweep_journal_") + tag))
                   .string())
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
        std::filesystem::create_directories(path);
    }
    ~JournalDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
    std::string path;
};

void
expect_all_ok(const DatabaseReplayResult& r)
{
    for (std::size_t i = 0; i < r.groups.size(); ++i)
        EXPECT_EQ(r.groups[i].status, GroupStatus::kOk)
            << "group " << i << " is " << to_string(r.groups[i].status) << ": "
            << r.groups[i].error;
    EXPECT_EQ(r.groups_ok, r.groups.size());
    EXPECT_EQ(r.population_covered_ok, r.population_covered);
}

TEST(ReplayDriverResilience, NoFaultKnobsKeepBitIdentityAtEveryParallelism)
{
    // The headline contract: with nothing failing, the resilience layer is
    // invisible — same bits as a plain sweep, at K=1 and K=4, even with
    // retries and a (generous) group deadline armed.
    FaultGuard guard;
    SweepFixture fx(fw::ExecMode::kShapeOnly, /*include_paper_preset=*/false);

    PlanCache cache_plain(16), cache_k1(16), cache_k4(16);
    ReplayDriver plain(replay_cfg(fw::ExecMode::kShapeOnly), &cache_plain, 1);
    const DatabaseReplayResult want = plain.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    expect_all_ok(want);

    for (auto* setup : {&cache_k1, &cache_k4}) {
        const std::size_t k = setup == &cache_k1 ? 1 : 4;
        ReplayDriver driver(replay_cfg(fw::ExecMode::kShapeOnly), setup, k);
        driver.set_max_retries(2);
        driver.set_backoff_ms(5);
        driver.set_group_deadline_ms(uint64_t{60} * 60 * 1000);
        const DatabaseReplayResult got = driver.replay_groups(fx.db, SIZE_MAX, &fx.profs);
        expect_identical(want, got);
        expect_all_ok(got);
        EXPECT_EQ(got.retries, 0u);
        EXPECT_EQ(got.backoff_ms, 0u);
        EXPECT_EQ(got.journal_resumed, 0u);
        for (const GroupReplayResult& g : got.groups) {
            EXPECT_EQ(g.attempts, 1u);
            EXPECT_FALSE(g.from_journal);
            EXPECT_GT(g.host_ms, 0.0);
        }
    }
}

TEST(ReplayDriverResilience, FailedGroupIsIsolatedAndReported)
{
    FaultGuard guard;
    SweepFixture fx(fw::ExecMode::kShapeOnly, /*include_paper_preset=*/false);

    PlanCache cache_ref(16);
    ReplayDriver ref(replay_cfg(fw::ExecMode::kShapeOnly), &cache_ref, 1);
    const DatabaseReplayResult want = ref.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    ASSERT_GE(want.groups.size(), 3u);

    // First group attempt fails; the sweep must carry on and the weighted
    // mean must cover exactly the surviving groups.
    FaultInjection::instance().arm("sweep.group", 1, FaultMode::kOnce);
    PlanCache cache(16);
    ReplayDriver driver(replay_cfg(fw::ExecMode::kShapeOnly), &cache, 1);
    const DatabaseReplayResult got = driver.replay_groups(fx.db, SIZE_MAX, &fx.profs);

    ASSERT_EQ(got.groups.size(), want.groups.size());
    EXPECT_EQ(got.groups[0].status, GroupStatus::kFailed);
    EXPECT_NE(got.groups[0].error.find("injected fault"), std::string::npos)
        << got.groups[0].error;
    EXPECT_EQ(got.groups[0].attempts, 1u);
    EXPECT_EQ(got.groups_failed, 1u);
    EXPECT_EQ(got.groups_ok, want.groups.size() - 1);
    EXPECT_LT(got.population_covered_ok, got.population_covered);

    // Survivors are bit-identical to the healthy sweep, and the mean is the
    // weighted mean over exactly those survivors.
    double weight = 0.0, weighted = 0.0;
    for (std::size_t i = 1; i < got.groups.size(); ++i) {
        EXPECT_EQ(got.groups[i].status, GroupStatus::kOk);
        EXPECT_EQ(got.groups[i].result.iter_us, want.groups[i].result.iter_us);
        weight += got.groups[i].group.population_weight;
        weighted += got.groups[i].group.population_weight *
                    got.groups[i].result.mean_iter_us;
    }
    EXPECT_EQ(got.weighted_mean_iter_us, weighted / weight);
}

TEST(ReplayDriverResilience, FailedGroupIsIsolatedAtParallelismFour)
{
    // At K=4 the first attempt to reach the fault site can be any worker's
    // first group; whichever it is, exactly that group fails and every other
    // group is bit-identical to the healthy sequential sweep.
    FaultGuard guard;
    SweepFixture fx(fw::ExecMode::kShapeOnly, /*include_paper_preset=*/false);

    PlanCache cache_ref(16);
    ReplayDriver ref(replay_cfg(fw::ExecMode::kShapeOnly), &cache_ref, 1);
    const DatabaseReplayResult want = ref.replay_groups(fx.db, SIZE_MAX, &fx.profs);

    FaultInjection::instance().arm("sweep.group", 1, FaultMode::kOnce);
    PlanCache cache(16);
    ReplayDriver driver(replay_cfg(fw::ExecMode::kShapeOnly), &cache, 4);
    const DatabaseReplayResult got = driver.replay_groups(fx.db, SIZE_MAX, &fx.profs);

    ASSERT_EQ(got.groups.size(), want.groups.size());
    EXPECT_EQ(got.groups_failed, 1u);
    EXPECT_EQ(got.groups_ok, want.groups.size() - 1);
    for (std::size_t i = 0; i < got.groups.size(); ++i) {
        const GroupReplayResult& g = got.groups[i];
        EXPECT_EQ(g.group.fingerprint, want.groups[i].group.fingerprint);
        if (g.status == GroupStatus::kFailed) {
            EXPECT_NE(g.error.find("injected fault"), std::string::npos) << g.error;
            continue;
        }
        EXPECT_EQ(g.status, GroupStatus::kOk);
        EXPECT_EQ(g.result.mean_iter_us, want.groups[i].result.mean_iter_us);
        EXPECT_EQ(g.result.iter_us, want.groups[i].result.iter_us);
    }
}

TEST(ReplayDriverResilience, ConcurrentFailuresAreAllReported)
{
    // Regression for the old fail-fast merge, which kept only the
    // lowest-indexed worker's error: with every group failing across 4
    // workers, every group must carry its own error — and nothing throws.
    FaultGuard guard;
    SweepFixture fx(fw::ExecMode::kShapeOnly, /*include_paper_preset=*/false);
    FaultInjection::instance().arm("sweep.group", 1, FaultMode::kEvery);

    PlanCache cache(16);
    ReplayDriver driver(replay_cfg(fw::ExecMode::kShapeOnly), &cache, 4);
    const DatabaseReplayResult got = driver.replay_groups(fx.db, SIZE_MAX, &fx.profs);

    EXPECT_EQ(got.groups_failed, got.groups.size());
    EXPECT_EQ(got.population_covered_ok, 0.0);
    EXPECT_EQ(got.weighted_mean_iter_us, 0.0);
    for (const GroupReplayResult& g : got.groups) {
        EXPECT_EQ(g.status, GroupStatus::kFailed);
        EXPECT_NE(g.error.find("injected fault"), std::string::npos) << g.error;
    }
}

TEST(ReplayDriverResilience, RetryWithBackoffHeals)
{
    FaultGuard guard;
    SweepFixture fx(fw::ExecMode::kShapeOnly, /*include_paper_preset=*/false);

    PlanCache cache_ref(16);
    ReplayDriver ref(replay_cfg(fw::ExecMode::kShapeOnly), &cache_ref, 1);
    const DatabaseReplayResult want = ref.replay_groups(fx.db, SIZE_MAX, &fx.profs);

    // One transient fault on the first group; a single retry must absorb it
    // and the final result must be indistinguishable from a healthy sweep.
    FaultInjection::instance().arm("sweep.group", 1, FaultMode::kOnce);
    PlanCache cache(16);
    ReplayDriver driver(replay_cfg(fw::ExecMode::kShapeOnly), &cache, 1);
    driver.set_max_retries(1);
    driver.set_backoff_ms(1);
    const DatabaseReplayResult got = driver.replay_groups(fx.db, SIZE_MAX, &fx.profs);

    expect_identical(want, got);
    expect_all_ok(got);
    EXPECT_EQ(got.groups[0].attempts, 2u);
    EXPECT_EQ(got.retries, 1u);
    EXPECT_EQ(got.backoff_ms, 1u); // base_backoff << 0 for the first retry
    for (std::size_t i = 1; i < got.groups.size(); ++i)
        EXPECT_EQ(got.groups[i].attempts, 1u);
}

TEST(ReplayDriverResilience, GroupDeadlineTimesOutWithoutRetry)
{
    FaultGuard guard;
    SweepFixture fx(fw::ExecMode::kShapeOnly, /*include_paper_preset=*/false);

    PlanCache cache(16);
    ReplayDriver driver(replay_cfg(fw::ExecMode::kShapeOnly), &cache, 2);
    driver.set_group_deadline_ms(0); // already expired: deterministic timeout
    driver.set_max_retries(3);       // must NOT be consumed by timeouts
    driver.set_backoff_ms(1);
    const DatabaseReplayResult got = driver.replay_groups(fx.db, SIZE_MAX, &fx.profs);

    EXPECT_EQ(got.groups_timed_out, got.groups.size());
    EXPECT_EQ(got.retries, 0u);
    EXPECT_EQ(got.backoff_ms, 0u);
    EXPECT_EQ(got.weighted_mean_iter_us, 0.0);
    for (const GroupReplayResult& g : got.groups) {
        EXPECT_EQ(g.status, GroupStatus::kTimedOut);
        EXPECT_EQ(g.attempts, 1u);
        EXPECT_NE(g.error.find("deadline"), std::string::npos) << g.error;
    }

    // The sessions were abandoned mid-iteration by the cancellation; the
    // next sweep must reset them and produce a pristine result.
    driver.set_group_deadline_ms(std::nullopt);
    PlanCache cache_ref(16);
    ReplayDriver ref(replay_cfg(fw::ExecMode::kShapeOnly), &cache_ref, 2);
    const DatabaseReplayResult want = ref.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    const DatabaseReplayResult again = driver.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    expect_identical(want, again);
    expect_all_ok(again);
}

TEST(ReplayDriverResilience, SweepDeadlineSkipsUnstartedGroups)
{
    FaultGuard guard;
    SweepFixture fx(fw::ExecMode::kShapeOnly, /*include_paper_preset=*/false);

    PlanCache cache(16);
    ReplayDriver driver(replay_cfg(fw::ExecMode::kShapeOnly), &cache, 1);
    driver.set_sweep_deadline_ms(0); // expired before any group starts
    const DatabaseReplayResult got = driver.replay_groups(fx.db, SIZE_MAX, &fx.profs);

    EXPECT_EQ(got.groups_skipped, got.groups.size());
    EXPECT_EQ(got.population_covered_ok, 0.0);
    for (const GroupReplayResult& g : got.groups) {
        EXPECT_EQ(g.status, GroupStatus::kSkipped);
        EXPECT_EQ(g.attempts, 0u);
        EXPECT_TRUE(g.error.empty());
    }
    // Skipped groups still report their selection metadata.
    EXPECT_GT(got.population_covered, 0.0);
}

TEST(ReplayDriverResilience, JournalResumeSkipsCompletedGroups)
{
    FaultGuard guard;
    JournalDir dir("resume");
    SweepFixture fx(fw::ExecMode::kShapeOnly, /*include_paper_preset=*/false);

    PlanCache cache_a(16);
    ReplayDriver a(replay_cfg(fw::ExecMode::kShapeOnly), &cache_a, 2);
    a.set_journal_dir(dir.path);
    const DatabaseReplayResult first = a.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    expect_all_ok(first);
    EXPECT_EQ(first.journal_resumed, 0u);
    EXPECT_TRUE(std::filesystem::exists(dir.path + "/sweep_journal.jsonl"));

    // A fresh driver + fresh cache (a "restarted process") must restore
    // every group from the journal — zero replays, bit-identical bits.
    PlanCache cache_b(16);
    ReplayDriver b(replay_cfg(fw::ExecMode::kShapeOnly), &cache_b, 1);
    b.set_journal_dir(dir.path);
    const DatabaseReplayResult second = b.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    expect_identical(first, second);
    expect_all_ok(second);
    EXPECT_EQ(second.journal_resumed, second.groups.size());
    EXPECT_EQ(second.cache.misses, 0u);
    for (const GroupReplayResult& g : second.groups) {
        EXPECT_TRUE(g.from_journal);
        EXPECT_EQ(g.attempts, 0u);
    }
}

TEST(ReplayDriverResilience, CrashedSweepResumesAndReplaysOnlyTheFailedGroup)
{
    FaultGuard guard;
    JournalDir dir("crash");
    SweepFixture fx(fw::ExecMode::kShapeOnly, /*include_paper_preset=*/false);

    PlanCache cache_ref(16);
    ReplayDriver ref(replay_cfg(fw::ExecMode::kShapeOnly), &cache_ref, 1);
    const DatabaseReplayResult want = ref.replay_groups(fx.db, SIZE_MAX, &fx.profs);

    // "Crash": the first sweep loses one group to a fault and journals the
    // failure alongside the successes.
    FaultInjection::instance().arm("sweep.group", 1, FaultMode::kOnce);
    PlanCache cache_a(16);
    ReplayDriver a(replay_cfg(fw::ExecMode::kShapeOnly), &cache_a, 1);
    a.set_journal_dir(dir.path);
    const DatabaseReplayResult first = a.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    EXPECT_EQ(first.groups_failed, 1u);
    FaultInjection::instance().disarm_all();

    // Restart: the healthy groups resume from the journal; only the failed
    // one replays (one cache miss), and the journal heals to all-ok.
    PlanCache cache_b(16);
    ReplayDriver b(replay_cfg(fw::ExecMode::kShapeOnly), &cache_b, 1);
    b.set_journal_dir(dir.path);
    const DatabaseReplayResult second = b.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    expect_identical(want, second);
    expect_all_ok(second);
    EXPECT_EQ(second.journal_resumed, second.groups.size() - 1);
    EXPECT_EQ(second.cache.misses, 1u);
    EXPECT_FALSE(second.groups[0].from_journal);
    EXPECT_EQ(second.groups[0].attempts, 1u);
}

TEST(ReplayDriverResilience, QuarantineAfterRepeatedFailuresAndProbeHeals)
{
    FaultGuard guard;
    JournalDir dir("quarantine");
    SweepFixture fx(fw::ExecMode::kShapeOnly, /*include_paper_preset=*/false);

    PlanCache cache_ref(16);
    ReplayDriver ref(replay_cfg(fw::ExecMode::kShapeOnly), &cache_ref, 1);
    const DatabaseReplayResult want = ref.replay_groups(fx.db, SIZE_MAX, &fx.profs);

    // Two sweeps with every attempt failing: every group accumulates two
    // consecutive journaled failures — the quarantine threshold.
    FaultInjection::instance().arm("sweep.group", 1, FaultMode::kEvery);
    for (int sweep = 0; sweep < 2; ++sweep) {
        PlanCache cache(16);
        ReplayDriver driver(replay_cfg(fw::ExecMode::kShapeOnly), &cache, 2);
        driver.set_journal_dir(dir.path);
        const DatabaseReplayResult r = driver.replay_groups(fx.db, SIZE_MAX, &fx.profs);
        EXPECT_EQ(r.groups_failed, r.groups.size());
    }
    FaultInjection::instance().disarm_all();

    // Known-bad fingerprints are now skipped without burning a replay, and
    // carry the recorded error text.
    PlanCache cache_q(16);
    ReplayDriver quarantined(replay_cfg(fw::ExecMode::kShapeOnly), &cache_q, 1);
    quarantined.set_journal_dir(dir.path);
    const DatabaseReplayResult q = quarantined.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    EXPECT_EQ(q.groups_quarantined, q.groups.size());
    EXPECT_EQ(q.cache.misses, 0u);
    for (const GroupReplayResult& g : q.groups) {
        EXPECT_EQ(g.status, GroupStatus::kQuarantined);
        EXPECT_EQ(g.attempts, 0u);
        EXPECT_NE(g.error.find("injected fault"), std::string::npos) << g.error;
    }

    // Probe mode gives each quarantined group one healing attempt; with the
    // fault gone they all succeed, bit-identical to the healthy sweep, and
    // the recorded successes lift the quarantine for the next plain sweep.
    PlanCache cache_p(16);
    ReplayDriver probe(replay_cfg(fw::ExecMode::kShapeOnly), &cache_p, 1);
    probe.set_journal_dir(dir.path);
    probe.set_probe_quarantined(true);
    const DatabaseReplayResult healed = probe.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    expect_identical(want, healed);
    expect_all_ok(healed);

    PlanCache cache_after(16);
    ReplayDriver after(replay_cfg(fw::ExecMode::kShapeOnly), &cache_after, 1);
    after.set_journal_dir(dir.path);
    const DatabaseReplayResult resumed = after.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    expect_all_ok(resumed);
    EXPECT_EQ(resumed.journal_resumed, resumed.groups.size());
}

TEST(ReplayDriverResilience, JournalFaultsAreAbsorbed)
{
    // journal.write: every publish fails — the sweep still succeeds, counts
    // the write failures, and a later sweep simply cannot resume (no record
    // survived), which is degraded, never wrong.
    FaultGuard guard;
    JournalDir dir("journalfault");
    SweepFixture fx(fw::ExecMode::kShapeOnly, /*include_paper_preset=*/false);

    FaultInjection::instance().arm("journal.write", 1, FaultMode::kEvery);
    PlanCache cache_a(16);
    ReplayDriver a(replay_cfg(fw::ExecMode::kShapeOnly), &cache_a, 1);
    a.set_journal_dir(dir.path);
    const DatabaseReplayResult first = a.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    expect_all_ok(first);
    EXPECT_EQ(first.journal_write_failures, first.groups.size());
    FaultInjection::instance().disarm_all();

    // journal.load: an unreadable journal warns and starts fresh — the sweep
    // replays everything instead of resuming.
    PlanCache cache_b(16);
    ReplayDriver b(replay_cfg(fw::ExecMode::kShapeOnly), &cache_b, 1);
    b.set_journal_dir(dir.path);
    const DatabaseReplayResult warm = b.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    expect_all_ok(warm); // journal was never published, so nothing resumes
    EXPECT_EQ(warm.journal_resumed, 0u);

    FaultInjection::instance().arm("journal.load", 1, FaultMode::kEvery);
    PlanCache cache_c(16);
    ReplayDriver c(replay_cfg(fw::ExecMode::kShapeOnly), &cache_c, 1);
    c.set_journal_dir(dir.path);
    const DatabaseReplayResult blind = c.replay_groups(fx.db, SIZE_MAX, &fx.profs);
    expect_all_ok(blind);
    EXPECT_EQ(blind.journal_resumed, 0u);
}

} // namespace
} // namespace mystique::core
