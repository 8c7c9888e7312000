/// @file
/// fleet_bench — host cost of the trace → plan → replay fleet sweep, end to
/// end and per layer (see README.md beside this file for the glossary).
///
///   fleet_bench gen --workload W --seed N --out DIR
///   fleet_bench run --inputs DIR --work DIR --seconds S --trace 0|1
///
/// `gen` writes one workload's seeded inputs (inputs.h).  `run` ingests them
/// through the public pipeline — et::ExecutionTrace::load → et::TraceDatabase
/// → core::ReplayDriver::replay_groups over a core::PlanCache at its default
/// capacity with a core::PlanStore disk tier under --work — checks the
/// outputs, and ends with a single JSON line.  `--trace 0` measures the
/// end-to-end timings and prints every raw sample; run.py pools the samples
/// of several such processes into the reported medians.  `--trace 1` is the
/// separate traced run that times calls into each layer's public functions
/// from outside and prints the per-layer metrics as the final result.

#include <dirent.h>
#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "comm/process_group.h"
#include "common/hash.h"
#include "common/json.h"
#include "core/plan_cache.h"
#include "core/plan_optimizer.h"
#include "core/plan_store.h"
#include "core/reconstruction.h"
#include "core/replay_driver.h"
#include "core/replayer.h"
#include "core/selection.h"
#include "core/tensor_manager.h"
#include "device/platform.h"
#include "et/trace_db.h"
#include "framework/session.h"
#include "inputs.h"

namespace {

namespace fs = std::filesystem;
using namespace mystique;
using fleetbench::Manifest;

constexpr std::size_t kAllGroups = std::numeric_limits<std::size_t>::max();
/// Sweep widths.  Fixed (not derived from the core count) so a metric means
/// the same thing on every host.
constexpr std::size_t kWidths[2] = {1, 4};
/// Repetitions of the tier sequence per process, at least, even past
/// --seconds.  The first is a warm-up: it is checked but not timed, so every
/// sample comes from a process whose allocator, page cache and code are warm.
constexpr int kWarmupReps = 1;
constexpr int kMinReps = kWarmupReps + 1;
/// Passes over the plan stages in the traced run; each stage reports the
/// median of its per-pass totals.
constexpr int kStagePasses = 3;

double
now_s()
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sum(const std::vector<double>& v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

/// CPU time, so far, of every thread of this process, by thread id.
std::map<long, double>
thread_cpu_s()
{
    std::map<long, double> out;
    DIR* dir = opendir("/proc/self/task");
    if (dir == nullptr)
        return out;
    while (const dirent* e = readdir(dir)) {
        if (e->d_name[0] == '.')
            continue;
        const long tid = std::atol(e->d_name);
        // The thread's CPU-time clock, as glibc's pthread_getcpuclockid makes it.
        const clockid_t clock =
            static_cast<clockid_t>((~static_cast<unsigned>(tid) << 3) | 6U);
        timespec ts;
        if (clock_gettime(clock, &ts) == 0)
            out[tid] = static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
    }
    closedir(dir);
    return out;
}

/// What every end-to-end timing measures: the CPU time of the process's
/// busiest thread over the timed call, i.e. its critical path when each
/// thread has a core to itself.  At K=1 that is the one worker's time, at
/// K=4 the slowest worker's.  Unlike wall-clock time it leaves out the time
/// the host ran other tenants' work instead (steal, run-queue waits).
class CpuTimer {
  public:
    CpuTimer() : wall0_(now_s()), start_(thread_cpu_s()) {}

    /// {busiest thread's CPU seconds, wall-clock seconds} since construction.
    std::pair<double, double> elapsed() const
    {
        const double wall = now_s() - wall0_;
        double busiest = 0.0;
        for (const auto& [tid, t] : thread_cpu_s()) {
            const auto it = start_.find(tid); // threads born since start from 0
            busiest = std::max(busiest, t - (it == start_.end() ? 0.0 : it->second));
        }
        return {busiest, wall};
    }

  private:
    double wall0_;
    std::map<long, double> start_;
};

/// CPU seconds the calling thread has used so far.
double
own_cpu_s()
{
    timespec ts;
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Times, on the calling thread's CPU clock, a fixed amount of work that
/// shares no code with the program: a dependent chain of float
/// multiply-adds that reads and rewrites a 4 MB buffer, larger than a core's
/// private caches.  Run between sweeps, while the program is idle, it
/// measures how fast the host runs this process at that moment.  On a
/// shared 4-vCPU VM the host's speed drifted by up to ~30% between runs a
/// minute apart, as other tenants loaded the shared caches and memory; this
/// work drifted with it much as the sweeps did, so run.py scales every
/// timing by the run's median of it.
double
reference_work_s()
{
    static std::vector<float> buf(std::size_t{1} << 20, 1.0f);
    const double t0 = own_cpu_s();
    float acc = 0.0f; // the sign flips keep |acc| below ~1e6
    for (int pass = 0; pass < 3; ++pass)
        for (float& x : buf) {
            acc += x * 1.0001f;
            x = -x;
        }
    [[maybe_unused]] static volatile float sink;
    sink = acc;
    return own_cpu_s() - t0;
}

// ------------------------------------------------------------------ stamp

int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 0;
    return CPU_COUNT(&set);
}

/// Filesystem type of @p path: writebacks fsync, so the disk tier's cost
/// depends on it.
std::string
fs_type(const std::string& path)
{
    struct statfs st;
    if (statfs(path.c_str(), &st) != 0)
        return "unknown";
    switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL: return "tmpfs";
    case 0xEF53UL: return "ext4";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    default: break;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
    return buf;
}

/// Flushes the dirty data of the filesystem holding @p dir, so a timed cold
/// sweep's writeback fsyncs do not also pay for the benchmark's own earlier
/// writes (generated inputs, the previous repetition's store).
void
settle_disk(const std::string& dir)
{
    const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    (void)syncfs(fd);
    close(fd);
}

void
print_stamp(const Manifest& m, const std::string& work, int trace)
{
    std::printf("stamp: workload=%s seed=%llu traces=%zu nproc=%d build_type=%s "
                "store_fs=%s trace=%d\n",
                m.workload.c_str(), static_cast<unsigned long long>(m.seed),
                m.entries.size(), nproc(), FLEETBENCH_BUILD_TYPE, fs_type(work).c_str(),
                trace);
}

// ----------------------------------------------------------------- result

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    bool integral = false;
};

/// The run's last line: one JSON object (doubles print in their shortest
/// round-trip form, so every measured digit survives).
void
print_result(bool correct, uint64_t attempted, uint64_t failed,
             const std::vector<Metric>& metrics)
{
    Json ms = Json::object();
    for (const Metric& mt : metrics) {
        Json v = Json::object();
        v.set("value", mt.integral ? Json(static_cast<int64_t>(std::llround(mt.value)))
                                   : Json(mt.value));
        v.set("unit", Json(mt.unit));
        ms.set(mt.name, std::move(v));
    }
    Json out = Json::object();
    out.set("correct", Json(correct));
    out.set("attempted", Json(attempted));
    out.set("failed", Json(failed));
    out.set("metrics", std::move(ms));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
}

// ------------------------------------------------------------------ fleet

/// The ingested database: traces, their profiler traces (parallel to the
/// database indices; null where the fleet has none) and the groups.
struct Fleet {
    et::TraceDatabase db;
    std::vector<std::unique_ptr<prof::ProfilerTrace>> profs;
    std::vector<const prof::ProfilerTrace*> prof_ptrs;
    std::vector<et::TraceGroup> groups;
};

std::unique_ptr<Fleet>
ingest(const Manifest& m)
{
    auto f = std::make_unique<Fleet>();
    for (const fleetbench::Entry& e : m.entries) {
        f->db.add(et::ExecutionTrace::load(e.trace_path));
        f->profs.push_back(e.prof_path.empty()
                               ? nullptr
                               : std::make_unique<prof::ProfilerTrace>(
                                     prof::ProfilerTrace::from_json(Json::parse_file(e.prof_path))));
        f->prof_ptrs.push_back(f->profs.back().get());
    }
    return f;
}

std::unique_ptr<core::PlanCache>
make_cache(const std::string& store_dir)
{
    auto c = std::make_unique<core::PlanCache>(core::PlanCache::kDefaultCapacity);
    c->set_store_dir(store_dir);
    return c;
}

/// A driver with the resilience knobs pinned to the fail-fast defaults, so
/// the environment cannot add retries or a journal to a measured sweep.
std::unique_ptr<core::ReplayDriver>
make_driver(const core::ReplayConfig& cfg, core::PlanCache* cache, std::size_t k)
{
    auto d = std::make_unique<core::ReplayDriver>(cfg, cache, k);
    d->set_max_retries(0);
    d->set_journal_dir("");
    return d;
}

/// What setup_s times: ingest, analyze(), and a cold cache + driver per width.
/// Drivers are declared after the caches they point into, so they die first.
/// Workers are built lazily, so their sessions are paid in the first sweep.
struct Rig {
    std::unique_ptr<Fleet> fleet;
    std::unique_ptr<core::PlanCache> cache[2];
    std::unique_ptr<core::ReplayDriver> driver[2];
};

Rig
set_up(const Manifest& m, const core::ReplayConfig& cfg, const std::string& store_root)
{
    Rig rig;
    rig.fleet = ingest(m);
    rig.fleet->groups = rig.fleet->db.analyze();
    for (int k = 0; k < 2; ++k) {
        rig.cache[k] = make_cache(store_root + "/k" + std::to_string(kWidths[k]));
        rig.driver[k] = make_driver(cfg, rig.cache[k].get(), kWidths[k]);
    }
    return rig;
}

core::DatabaseReplayResult
sweep(core::ReplayDriver& driver, const Fleet& fleet)
{
    return driver.replay_groups(fleet.db, kAllGroups, &fleet.prof_ptrs);
}

/// Population-weighted |replayed − calibrated original| / calibrated original
/// over the groups whose representative has a recorded original time, in
/// percent.  As in Table 4 the original is calibrated by the exposed time of
/// the ops replay cannot cover.  NaN when no group has an original time.
double
replay_error_pct(const Manifest& m, const core::DatabaseReplayResult& r)
{
    double err = 0.0, weight = 0.0;
    for (const core::GroupReplayResult& g : r.groups) {
        const double orig = m.entries.at(g.representative).original_us;
        if (orig < 0.0 || g.status != core::GroupStatus::kOk)
            continue;
        const double calibrated = orig - g.result.coverage.unsupported_exposed_us;
        err += g.group.population_weight * std::fabs(g.result.mean_iter_us - calibrated) /
               calibrated;
        weight += g.group.population_weight;
    }
    return weight > 0.0 ? 100.0 * err / weight : std::nan("");
}

// ----------------------------------------------------------------- checks

/// Output checks shared by both run modes.  The first sweep is the reference;
/// every later sweep — any width, any plan tier — must reproduce its
/// per-group mean iteration times, numeric digests and weighted mean bit for
/// bit.
class Checker {
  public:
    void sweep(const std::string& label, const core::DatabaseReplayResult& r)
    {
        attempted_ += r.groups.size();
        for (std::size_t i = 0; i < r.groups.size(); ++i) {
            const core::GroupReplayResult& g = r.groups[i];
            if (g.status != core::GroupStatus::kOk) {
                ++failed_;
                fail(label + ": group " + std::to_string(i) + " (" +
                     g.group.representative_workload + ") is " + core::to_string(g.status) +
                     ": " + g.error);
            }
        }
        if (!have_ref_) {
            have_ref_ = true;
            for (const core::GroupReplayResult& g : r.groups) {
                ref_mean_.push_back(bits(g.result.mean_iter_us));
                ref_digest_.push_back(g.result.numeric_digest);
            }
            ref_weighted_ = bits(r.weighted_mean_iter_us);
            return;
        }
        if (r.groups.size() != ref_mean_.size()) {
            fail(label + ": group count differs from the reference sweep");
            return;
        }
        for (std::size_t i = 0; i < r.groups.size(); ++i)
            group(label, i, r.groups[i].result);
        if (bits(r.weighted_mean_iter_us) != ref_weighted_)
            fail(label + ": weighted mean differs from the reference sweep");
    }

    /// One group replayed outside the driver: must match the driver's result.
    void group(const std::string& label, std::size_t i, const core::ReplayResult& r)
    {
        if (i >= ref_mean_.size()) {
            fail(label + ": no reference for group " + std::to_string(i));
            return;
        }
        if (bits(r.mean_iter_us) != ref_mean_[i])
            fail(label + ": group " + std::to_string(i) + " mean_iter_us differs");
        if (r.numeric_digest != ref_digest_[i])
            fail(label + ": group " + std::to_string(i) + " numeric_digest differs");
    }

    void cache(const std::string& label, const core::PlanCacheStats& s, bool disk_pass)
    {
        if (s.misses != s.disk_hits + s.builds)
            fail(label + ": misses != disk_hits + builds (" + std::to_string(s.misses) +
                 " vs " + std::to_string(s.disk_hits) + " + " + std::to_string(s.builds) + ")");
        if (disk_pass && s.builds != 0)
            fail(label + ": disk pass built " + std::to_string(s.builds) + " plans");
    }

    void count_group(bool ok)
    {
        ++attempted_;
        failed_ += ok ? 0 : 1;
    }

    void fail(const std::string& what)
    {
        if (failures_.size() < 20)
            failures_.push_back(what);
        ok_ = false;
    }

    bool ok() const { return ok_; }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    void report() const
    {
        for (const std::string& f : failures_)
            std::printf("CHECK FAILED: %s\n", f.c_str());
    }

    /// Hash of the reference sweep's per-group results, so that separate
    /// processes can be checked against each other.
    std::string reference() const
    {
        Fnv1a h;
        for (std::size_t i = 0; i < ref_mean_.size(); ++i) {
            h.mix_pod(ref_mean_[i]);
            h.mix_pod(ref_digest_[i]);
        }
        h.mix_pod(ref_weighted_);
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h.value()));
        return buf;
    }

  private:
    static uint64_t bits(double d) { return std::bit_cast<uint64_t>(d); }

    bool ok_ = true;
    bool have_ref_ = false;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<uint64_t> ref_mean_;
    std::vector<uint64_t> ref_digest_;
    uint64_t ref_weighted_ = 0;
    std::vector<std::string> failures_;
};

// ------------------------------------------------------- end-to-end (untraced)

enum Tier { kCold, kDisk, kWarm };
const char* const kTierNames[3] = {"cold", "disk", "warm"};

int
run_end_to_end(const Manifest& m, const std::string& work, double seconds)
{
    const core::ReplayConfig cfg = fleetbench::replay_config(m);
    Checker chk;
    // Per timing: busiest-thread CPU seconds, and wall-clock seconds.
    std::vector<double> setup_s, setup_wall;
    std::vector<double> times[3][2], walls[3][2];
    std::vector<double> reference_s;
    double error_pct = std::nan("");

    // Repetitions of set-up plus the whole tier sequence at both widths.
    // Each repetition's sweeps run on the fleet, caches and drivers its own
    // set-up produced, so a cold sweep is a first sweep in every respect but
    // the process's.  Past kMinReps, a repetition starts only while the
    // previous one's duration still fits the budget.
    const double deadline = now_s() + seconds;
    double rep_s = 0.0;
    for (int rep = 0; rep < kMinReps || now_s() + rep_s <= deadline; ++rep) {
        const bool timed = rep >= kWarmupReps;
        auto record = [timed, &reference_s](std::vector<double>& cpu, std::vector<double>& wall,
                              const CpuTimer& t) {
            const auto [c, w] = t.elapsed();
            if (timed) {
                cpu.push_back(c);
                wall.push_back(w);
                reference_s.push_back(reference_work_s());
            }
        };
        settle_disk(work);
        const double r0 = now_s();
        const std::string rep_dir = work + "/rep" + std::to_string(rep);
        const CpuTimer setup_timer;
        Rig rig = set_up(m, cfg, rep_dir);
        record(setup_s, setup_wall, setup_timer);
        const Fleet& fleet = *rig.fleet;
        for (int k = 0; k < 2; ++k) {
            const std::string tag = "rep" + std::to_string(rep) + " k" + std::to_string(kWidths[k]);
            core::ReplayDriver& driver = *rig.driver[k];
            core::PlanCache& cache = *rig.cache[k];

            // Cold: empty memory tier, empty store.  The sweep builds every
            // plan and queues its writeback; like replay_groups itself, the
            // timing stops when the sweep returns.  The wait for the queued
            // fsyncs is left out: on a shared disk it flips between ~20 and
            // ~60 ms from one run to the next (store.flush_ms reports it).
            const CpuTimer cold;
            core::DatabaseReplayResult r = sweep(driver, fleet);
            record(times[kCold][k], walls[kCold][k], cold);
            cache.flush_writebacks();
            if (rep == 0 && k == 0)
                error_pct = replay_error_pct(m, r);
            chk.sweep(tag + " cold", r);

            // Warm: repeat sweep on the same cache and driver.
            const CpuTimer warm;
            r = sweep(driver, fleet);
            record(times[kWarm][k], walls[kWarm][k], warm);
            chk.sweep(tag + " warm", r);
            cache.flush_writebacks();
            chk.cache(tag + " cold+warm cache", cache.stats(), false);
            // A restart: the first process's driver and cache are gone.
            rig.driver[k].reset();
            rig.cache[k].reset();

            // Disk: a fresh cache and driver over the populated store.
            auto disk_cache = make_cache(rep_dir + "/k" + std::to_string(kWidths[k]));
            auto disk_driver = make_driver(cfg, disk_cache.get(), kWidths[k]);
            const CpuTimer disk;
            r = sweep(*disk_driver, fleet);
            record(times[kDisk][k], walls[kDisk][k], disk);
            chk.sweep(tag + " disk", r);
            disk_cache->flush_writebacks();
            chk.cache(tag + " disk cache", disk_cache->stats(), true);
        }
        fs::remove_all(rep_dir);
        rep_s = now_s() - r0;
    }

    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    if (std::isnan(error_pct))
        chk.fail("replay_error_pct: no group has a recorded original time");

    // The raw samples, for run.py to pool across processes.
    print_stamp(m, work, 0);
    chk.report();
    auto samples = [](const std::vector<double>& v) {
        Json a = Json::array();
        for (const double x : v)
            a.push_back(Json(x));
        return a;
    };
    Json ss = Json::object(), ws = Json::object();
    ss.set("setup_s", samples(setup_s));
    ws.set("setup_s", samples(setup_wall));
    for (const Tier tier : {kCold, kDisk, kWarm})
        for (int k = 0; k < 2; ++k) {
            const std::string name = std::string("sweep_") + kTierNames[tier] + "_k" +
                                     std::to_string(kWidths[k]) + "_s";
            ss.set(name, samples(times[tier][k]));
            ws.set(name, samples(walls[tier][k]));
        }
    ss.set("reference_s", samples(reference_s));
    Json out = Json::object();
    out.set("correct", Json(chk.ok()));
    out.set("attempted", Json(chk.attempted()));
    out.set("failed", Json(chk.failed()));
    out.set("reference", Json(chk.reference()));
    out.set("replay_error_pct", std::isnan(error_pct) ? Json() : Json(error_pct));
    out.set("peak_rss_mb", Json(peak_rss_mb));
    out.set("samples", std::move(ss));
    out.set("wall_samples", std::move(ws));
    std::printf("%s\n", out.dump().c_str());
    std::fflush(stdout);
    return chk.ok() ? 0 : 1;
}

// -------------------------------------------------------- per-layer (traced)

/// Per-pass totals of the plan-layer stages over every group representative.
struct StageTotals {
    double key = 0, select = 0, coverage = 0, reconstruct = 0, optimize = 0, depgraph = 0,
           build = 0, to_json = 0, from_json = 0, store_write = 0, store_load = 0;
    double store_bytes = 0;
};

/// Times each build stage by calling its public function from outside, the
/// way ReplayPlan::build sequences them, then the whole build, serialize,
/// restore and the disk tier's write and load.
StageTotals
time_plan_stages(const Fleet& fleet, const core::ReplayConfig& cfg, const std::string& dir,
                 Checker& chk)
{
    StageTotals t;
    const core::PlanStore store(dir);
    for (const et::TraceGroup& g : fleet.groups) {
        const std::size_t rep = g.representative();
        const std::shared_ptr<const et::ExecutionTrace> trace = fleet.db.trace_handle(rep);
        const prof::ProfilerTrace* prof = fleet.prof_ptrs[rep];

        double t0 = now_s();
        const core::PlanKey key = core::plan_key(*trace, prof, cfg);
        t.key += now_s() - t0;

        t0 = now_s();
        const core::Selection sel = core::select_ops(*trace, cfg.custom_ops, cfg.filter);
        t.select += now_s() - t0;

        t0 = now_s();
        const core::CoverageStats cov = core::coverage(*trace, sel, prof);
        t.coverage += now_s() - t0;
        (void)cov;

        core::Reconstructor rc;
        std::vector<core::ReconstructedOp> ops;
        ops.reserve(sel.ops.size());
        t0 = now_s();
        for (const core::SelectedOp& s : sel.ops)
            ops.push_back(rc.reconstruct(*trace->find(s.node_id), s.supported));
        t.reconstruct += now_s() - t0;

        std::vector<core::FusedGroup> fused;
        t0 = now_s();
        if (cfg.opt_level > 0)
            (void)core::optimize_plan(ops, fused);
        t.optimize += now_s() - t0;

        t0 = now_s();
        const core::DepGraph graph = core::build_dep_graph(ops, fused);
        t.depgraph += now_s() - t0;
        (void)graph;

        t0 = now_s();
        const std::shared_ptr<const core::ReplayPlan> plan =
            core::ReplayPlan::build(trace, prof, cfg);
        t.build += now_s() - t0;
        if (!(plan->key() == key))
            chk.fail("plan_key() disagrees with the key ReplayPlan::build derived");

        t0 = now_s();
        const Json doc = plan->to_json();
        t.to_json += now_s() - t0;

        t0 = now_s();
        const std::shared_ptr<const core::ReplayPlan> restored =
            core::ReplayPlan::from_json(doc, trace);
        t.from_json += now_s() - t0;
        if (restored->ops().size() != plan->ops().size())
            chk.fail("from_json(to_json()) changed the op count");

        t0 = now_s();
        const bool stored = store.store(*plan);
        t.store_write += now_s() - t0;
        if (!stored)
            chk.fail("PlanStore::store failed in " + dir);
        else
            t.store_bytes += static_cast<double>(fs::file_size(store.entry_path(plan->key())));

        t0 = now_s();
        const std::shared_ptr<const core::ReplayPlan> loaded = store.load(plan->key(), trace);
        t.store_load += now_s() - t0;
        if (loaded == nullptr)
            chk.fail("PlanStore::load missed an entry it just stored");
    }
    return t;
}

int
run_traced(const Manifest& m, const std::string& work)
{
    const core::ReplayConfig cfg = fleetbench::replay_config(m);
    Checker chk;
    std::vector<Metric> out;
    auto add = [&](const std::string& name, double value, const std::string& unit,
                   bool integral = false) { out.push_back({name, value, unit, integral}); };

    // ---- et: ingest, analyze, structural fingerprints ----------------------
    double t0 = now_s();
    std::unique_ptr<Fleet> fleet_ptr = ingest(m);
    const double ingest_ms = 1e3 * (now_s() - t0);
    Fleet& fleet = *fleet_ptr;
    double ingest_bytes = 0.0;
    for (const fleetbench::Entry& e : m.entries)
        ingest_bytes += static_cast<double>(
            fs::file_size(e.trace_path) + (e.prof_path.empty() ? 0 : fs::file_size(e.prof_path)));
    std::vector<double> analyze_ms;
    for (int i = 0; i < 3; ++i) {
        t0 = now_s();
        fleet.groups = fleet.db.analyze();
        analyze_ms.push_back(1e3 * (now_s() - t0));
    }
    t0 = now_s();
    for (std::size_t i = 0; i < fleet.db.size(); ++i)
        (void)fleet.db.trace(i).structural_fingerprint();
    const double structural_ms = 1e3 * (now_s() - t0);
    add("et.ingest_ms", ingest_ms, "ms");
    add("et.ingest_bytes", ingest_bytes, "bytes", true);
    add("et.analyze_ms", median(analyze_ms), "ms");
    add("et.structural_fp_ms", structural_ms, "ms");

    // ---- core.plan / core.plan_store: stage by stage ------------------------
    std::vector<StageTotals> passes;
    for (int p = 0; p < kStagePasses; ++p)
        passes.push_back(
            time_plan_stages(fleet, cfg, work + "/stages" + std::to_string(p), chk));
    auto stage = [&](double StageTotals::*field) {
        std::vector<double> v;
        for (const StageTotals& s : passes)
            v.push_back(1e3 * (s.*field));
        return median(v);
    };
    const double build_ms = stage(&StageTotals::build);
    const double build_named_ms = stage(&StageTotals::key) + stage(&StageTotals::select) +
                                  stage(&StageTotals::coverage) +
                                  stage(&StageTotals::reconstruct) +
                                  stage(&StageTotals::optimize) + stage(&StageTotals::depgraph);
    add("plan.key_ms", stage(&StageTotals::key), "ms");
    add("plan.select_ms", stage(&StageTotals::select), "ms");
    add("plan.coverage_ms", stage(&StageTotals::coverage), "ms");
    add("plan.reconstruct_ms", stage(&StageTotals::reconstruct), "ms");
    add("plan.optimize_ms", stage(&StageTotals::optimize), "ms");
    add("plan.depgraph_ms", stage(&StageTotals::depgraph), "ms");
    add("plan.build_ms", build_ms, "ms");
    add("plan.to_json_ms", stage(&StageTotals::to_json), "ms");
    add("plan.from_json_ms", stage(&StageTotals::from_json), "ms");
    add("store.write_ms", stage(&StageTotals::store_write), "ms");
    add("store.load_ms", stage(&StageTotals::store_load), "ms");
    add("store.bytes", passes.front().store_bytes, "bytes", true);

    // ---- core.plan_cache + core.replay_driver: the K=1 tier sequence --------
    const std::string store_dir = work + "/tiers";
    auto cache = make_cache(store_dir);
    auto driver1 = make_driver(cfg, cache.get(), 1);
    core::DatabaseReplayResult r = sweep(*driver1, fleet);
    cache->flush_writebacks();
    chk.sweep("traced cold k1", r);
    const core::PlanCacheStats cold_stats = cache->stats();
    t0 = now_s();
    r = sweep(*driver1, fleet);
    const double warm_k1_ms = 1e3 * (now_s() - t0);
    chk.sweep("traced warm k1", r);
    cache->flush_writebacks();
    const core::PlanCacheStats warm_stats = cache->stats();
    const fw::StorageArenaStats arena = r.arena;
    chk.cache("traced cold+warm cache", warm_stats, false);
    core::PlanCacheStats disk_stats;
    {
        auto disk_cache = make_cache(store_dir);
        auto disk_driver = make_driver(cfg, disk_cache.get(), 1);
        chk.sweep("traced disk k1", sweep(*disk_driver, fleet));
        disk_cache->flush_writebacks();
        disk_stats = disk_cache->stats();
        chk.cache("traced disk cache", disk_stats, true);
    }
    const uint64_t warm_hits = warm_stats.hits - cold_stats.hits;
    const uint64_t warm_lookups = warm_hits + (warm_stats.misses - cold_stats.misses);
    add("cache.hits", static_cast<double>(warm_stats.hits + disk_stats.hits), "count", true);
    add("cache.misses", static_cast<double>(warm_stats.misses + disk_stats.misses), "count",
        true);
    add("cache.disk_hits", static_cast<double>(warm_stats.disk_hits + disk_stats.disk_hits),
        "count", true);
    add("cache.builds", static_cast<double>(warm_stats.builds + disk_stats.builds), "count",
        true);
    add("cache.evictions", static_cast<double>(warm_stats.evictions + disk_stats.evictions),
        "count", true);
    add("cache.writebacks", static_cast<double>(warm_stats.writebacks + disk_stats.writebacks),
        "count", true);
    add("cache.hit_ratio",
        warm_lookups ? static_cast<double>(warm_hits) / static_cast<double>(warm_lookups) : 0.0,
        "ratio");

    // K=4: a cold sweep into its own store, the wait for its queued
    // writebacks (at K=4 the builds outrun the fsyncs), then a warm sweep.
    double warm_k4_ms = 0.0;
    double flush_ms = 0.0;
    {
        auto cache4 = make_cache(work + "/tiers4");
        auto driver4 = make_driver(cfg, cache4.get(), 4);
        chk.sweep("traced cold k4", sweep(*driver4, fleet));
        t0 = now_s();
        cache4->flush_writebacks();
        flush_ms = 1e3 * (now_s() - t0);
        t0 = now_s();
        chk.sweep("traced warm k4", sweep(*driver4, fleet));
        warm_k4_ms = 1e3 * (now_s() - t0);
    }
    add("store.flush_ms", flush_ms, "ms");

    // ---- core.replayer / core.tensor_manager: per group, outside the driver
    fw::SessionOptions so;
    so.platform = dev::platform(cfg.platform);
    so.mode = cfg.mode;
    so.seed = cfg.seed;
    so.power_limit_w = cfg.power_limit_w;
    so.dispatch = fw::DispatchProfile::replay();
    fw::Session session(so);
    const auto fabric = std::make_shared<comm::CommFabric>(1);

    const std::size_t n = fleet.groups.size();
    std::vector<double> group_ms(n), tm_analyze(n), tm_materialize(n), tm_digest(n);
    std::vector<std::shared_ptr<const core::ReplayPlan>> plans(n);
    // One untimed pass first, so this session's arena is as warm as the
    // driver worker's was for the untraced warm sweep.  A failure here shows
    // again, and is recorded, in the timed pass.
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t rep = fleet.groups[i].representative();
        session.reset_for_replay();
        try {
            core::Replayer(cache->get_or_build(fleet.db.trace_handle(rep),
                                               fleet.prof_ptrs[rep], cfg),
                           cfg)
                .run_with(session, fabric);
        } catch (const std::exception&) {
        }
    }
    double virt_us = 0.0, fetch_ms = 0.0;
    const double traced0 = now_s();
    for (std::size_t i = 0; i < n; ++i) {
        // The plan comes through the warm K=1 cache, as in the warm sweep.
        const std::size_t rep = fleet.groups[i].representative();
        double g0 = now_s();
        plans[i] = cache->get_or_build(fleet.db.trace_handle(rep), fleet.prof_ptrs[rep], cfg);
        fetch_ms += 1e3 * (now_s() - g0);
        session.reset_for_replay();
        g0 = now_s();
        bool ok = true;
        try {
            core::Replayer ex(plans[i], cfg);
            const core::ReplayResult res = ex.run_with(session, fabric);
            group_ms[i] = 1e3 * (now_s() - g0);
            virt_us += sum(res.iter_us);
            chk.group("traced group", i, res);
        } catch (const std::exception& e) {
            ok = false;
            chk.fail("traced group " + std::to_string(i) + ": " + e.what());
        }
        chk.count_group(ok);
    }
    const double traced_ms = 1e3 * (now_s() - traced0);
    // The tensor-manager stages, re-executed on the same session the way
    // Replayer::run_with sequences them.
    for (std::size_t i = 0; i < n; ++i) {
        session.reset_for_replay();
        core::TensorManager tm(session, cfg.embedding);
        std::vector<const et::Node*> nodes;
        for (const core::ReconstructedOp& op : plans[i]->ops())
            if (op.kind != core::ReconstructedOp::Kind::kSkipped)
                nodes.push_back(op.node);
        double s0 = now_s();
        tm.analyze(nodes);
        tm_analyze[i] = 1e3 * (now_s() - s0);
        s0 = now_s();
        tm.instantiate_externals();
        tm_materialize[i] = 1e3 * (now_s() - s0);
        s0 = now_s();
        (void)tm.digest();
        tm_digest[i] = 1e3 * (now_s() - s0);
    }
    const double group_total = sum(group_ms);
    const std::size_t top = static_cast<std::size_t>(
        std::max_element(group_ms.begin(), group_ms.end()) - group_ms.begin());
    add("cache.fetch_ms", fetch_ms, "ms");
    add("replay.group_ms_median", median(group_ms), "ms");
    add("replay.group_ms_max", group_ms[top], "ms");
    add("replay.top_group_materialize_share", tm_materialize[top] / group_ms[top], "ratio");
    add("tm.analyze_ms", sum(tm_analyze), "ms");
    add("tm.materialize_ms", sum(tm_materialize), "ms");
    add("tm.digest_ms", sum(tm_digest), "ms");
    add("replay.execute_ms", group_total - sum(tm_materialize) - sum(tm_digest), "ms");
    add("replay.virt_per_host", virt_us / (1e3 * group_total), "ratio");

    // ---- driver scheduling: group i runs on worker i % K --------------------
    const std::size_t workers = std::min<std::size_t>(4, n);
    std::vector<double> load(workers, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        load[i % workers] += group_ms[i];
    add("driver.max_group_share", group_ms[top] / group_total, "ratio");
    add("driver.worker_imbalance",
        *std::max_element(load.begin(), load.end()) / (sum(load) / static_cast<double>(workers)),
        "ratio");
    add("driver.k4_efficiency", warm_k1_ms / (4.0 * warm_k4_ms), "ratio");

    // ---- framework: arena (warm K=1 sweep) and optimizer (cold builds) ------
    add("arena.hits", static_cast<double>(arena.hits), "count", true);
    add("arena.misses", static_cast<double>(arena.misses), "count", true);
    add("arena.hit_ratio",
        arena.hits + arena.misses
            ? static_cast<double>(arena.hits) / static_cast<double>(arena.hits + arena.misses)
            : 0.0,
        "ratio");
    add("arena.peak_bytes", static_cast<double>(arena.peak_bytes_outstanding), "bytes", true);
    add("opt.ops_fused", static_cast<double>(cold_stats.opt_ops_fused), "count", true);
    add("opt.time_us", cold_stats.opt_time_us, "us");

    // ---- tracing overhead and attribution ----------------------------------
    add("trace.overhead_ms", traced_ms - warm_k1_ms, "ms");
    add("trace.overhead_pct", 100.0 * (traced_ms - warm_k1_ms) / warm_k1_ms, "%");
    add("trace.replay_named_share",
        (sum(tm_analyze) + sum(tm_materialize) + sum(tm_digest)) / group_total, "ratio");
    add("trace.build_named_share", build_named_ms / build_ms, "ratio");

    print_stamp(m, work, 1);
    std::printf("  groups=%zu  untraced warm k1 sweep %.3f ms, traced per-group pass %.3f ms\n",
                n, warm_k1_ms, traced_ms);
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return group_ms[a] > group_ms[b]; });
    for (std::size_t j = 0; j < std::min<std::size_t>(3, n); ++j) {
        const std::size_t i = order[j];
        std::printf("  top group %zu: %-14s %10.3f ms  materialize %.3f ms (%.1f%%)  "
                    "digest %.3f ms  weight %.4f\n",
                    i, fleet.groups[i].representative_workload.c_str(), group_ms[i],
                    tm_materialize[i], 100.0 * tm_materialize[i] / group_ms[i], tm_digest[i],
                    fleet.groups[i].population_weight);
    }
    for (const Metric& mt : out)
        std::printf("  %-36s %16.6f %s\n", mt.name.c_str(), mt.value, mt.unit.c_str());
    chk.report();
    print_result(chk.ok(), chk.attempted(), chk.failed(), out);
    return chk.ok() ? 0 : 1;
}

// ------------------------------------------------------------------- main

const char*
arg(int argc, char** argv, const char* name)
{
    for (int i = 2; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], name) == 0)
            return argv[i + 1];
    return nullptr;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: fleet_bench gen --workload W --seed N --out DIR\n"
                 "       fleet_bench run --inputs DIR --work DIR --seconds S --trace 0|1\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    try {
        const std::string cmd = argv[1];
        if (cmd == "gen") {
            const char* workload = arg(argc, argv, "--workload");
            const char* seed = arg(argc, argv, "--seed");
            const char* out = arg(argc, argv, "--out");
            if (workload == nullptr || seed == nullptr || out == nullptr ||
                !fleetbench::known_workload(workload))
                return usage();
            fleetbench::generate(workload, std::stoull(seed), out);
            return 0;
        }
        if (cmd == "run") {
            const char* inputs = arg(argc, argv, "--inputs");
            const char* work = arg(argc, argv, "--work");
            const char* seconds = arg(argc, argv, "--seconds");
            const char* trace = arg(argc, argv, "--trace");
            if (inputs == nullptr || work == nullptr || seconds == nullptr || trace == nullptr)
                return usage();
            const Manifest m = fleetbench::read_manifest(inputs);
            fs::create_directories(work);
            return std::strcmp(trace, "1") == 0 ? run_traced(m, work)
                                                : run_end_to_end(m, work, std::stod(seconds));
        }
        return usage();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "fleet_bench: %s\n", e.what());
        return 1;
    }
}
