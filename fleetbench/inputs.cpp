#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/error.h"
#include "common/json.h"
#include "testing/trace_fuzzer.h"
#include "workloads/harness.h"

namespace fleetbench {

namespace fs = std::filesystem;
using namespace mystique;

namespace {

const char* const kModels[] = {"param_linear", "rm", "asr", "resnet"};

/// Distinct fuzz traces in fleet_longtail: twice PlanCache::kDefaultCapacity,
/// so an LRU memory tier at its default size can hold none of a sweep.
constexpr int kTailTraces = 128;
/// Copies of the most popular longtail trace; rank r gets
/// max(1, round(kHeadCopies / (r + 1))) copies (Zipf, exponent 1).
constexpr double kHeadCopies = 48.0;

struct Recorded {
    et::ExecutionTrace trace;
    prof::ProfilerTrace prof;
    bool has_prof = true;
    double original_us = -1.0;
};

/// Records one iteration of a model with the original-run harness.  The
/// reference database of bench/micro_arena.cpp uses the same settings.
Recorded
record_model(const std::string& name, wl::Preset preset, int world, fw::ExecMode mode,
             uint64_t seed)
{
    wl::RunConfig cfg;
    cfg.mode = mode;
    cfg.world_size = world;
    cfg.warmup_iterations = 1;
    cfg.iterations = 2;
    cfg.seed = seed;
    wl::WorkloadOptions opts;
    opts.preset = preset;
    wl::RunResult run = wl::run_original(name, opts, cfg);
    Recorded r;
    r.original_us = run.ranks.at(0).mean_iter_us;
    r.trace = std::move(run.ranks[0].trace);
    r.prof = std::move(run.ranks[0].prof);
    return r;
}

/// The paper's model mix: every model at @p presets (rm only at the tiny
/// preset unless @p paper_rm), plus the 2-rank tiny rm trace whose
/// collectives make a group of their own.
std::vector<Recorded>
record_models(const std::vector<wl::Preset>& presets, fw::ExecMode mode, uint64_t seed,
              bool paper_rm = true)
{
    std::vector<Recorded> out;
    for (const char* name : kModels)
        for (const wl::Preset preset : presets)
            if (paper_rm || preset != wl::Preset::kPaper || std::string(name) != "rm")
                out.push_back(record_model(name, preset, 1, mode, seed));
    out.push_back(record_model("rm", wl::Preset::kTiny, 2, mode, seed));
    return out;
}

const char*
mode_name(fw::ExecMode mode)
{
    return mode == fw::ExecMode::kNumeric ? "numeric" : "shape_only";
}

} // namespace

bool
known_workload(const std::string& name)
{
    return name == "fleet_paper" || name == "fleet_mix" || name == "fleet_longtail" ||
           name == "fleet_numeric";
}

void
generate(const std::string& workload, uint64_t seed, const std::string& out_dir)
{
    std::vector<Recorded> distinct;
    std::vector<int> copies;
    fw::ExecMode mode = fw::ExecMode::kShapeOnly;
    if (workload == "fleet_paper") {
        distinct = record_models({wl::Preset::kTiny, wl::Preset::kPaper}, mode, seed);
    } else if (workload == "fleet_mix") {
        distinct = record_models({wl::Preset::kTiny, wl::Preset::kPaper}, mode, seed,
                                 /*paper_rm=*/false);
    } else if (workload == "fleet_numeric") {
        mode = fw::ExecMode::kNumeric;
        distinct = record_models({wl::Preset::kTiny}, mode, seed);
    } else if (workload == "fleet_longtail") {
        // Head: the four tiny models (the popular traces, and the only ones
        // with a recorded original time).  Tail: seeded fuzz cases.
        for (const char* name : kModels)
            distinct.push_back(record_model(name, wl::Preset::kTiny, 1, mode, seed));
        for (int i = 0; i < kTailTraces; ++i) {
            testing::FuzzedCase c =
                testing::generate_case(testing::case_seed(seed, static_cast<uint64_t>(i)));
            Recorded r;
            r.trace = std::move(c.trace);
            r.prof = std::move(c.prof);
            r.has_prof = c.use_prof;
            distinct.push_back(std::move(r));
        }
        for (std::size_t r = 0; r < distinct.size(); ++r)
            copies.push_back(std::max(
                1, static_cast<int>(std::lround(kHeadCopies / static_cast<double>(r + 1)))));
    } else {
        MYST_THROW(ConfigError, "unknown workload '" << workload << "'");
    }
    copies.resize(distinct.size(), 1);

    const fs::path root(out_dir);
    fs::create_directories(root / "traces");
    fs::create_directories(root / "profs");
    Json entries = Json::array();
    for (std::size_t d = 0; d < distinct.size(); ++d) {
        char stem[32];
        std::snprintf(stem, sizeof(stem), "d%03zu", d);
        const fs::path trace0 = root / "traces" / (std::string(stem) + "-c00.json");
        const fs::path prof0 = root / "profs" / (std::string(stem) + "-c00.json");
        distinct[d].trace.save(trace0.string());
        if (distinct[d].has_prof)
            distinct[d].prof.to_json().dump_file(prof0.string());
        for (int c = 0; c < copies[d]; ++c) {
            char name[48];
            std::snprintf(name, sizeof(name), "%s-c%02d.json", stem, c);
            const std::string trace_rel = std::string("traces/") + name;
            const std::string prof_rel = std::string("profs/") + name;
            if (c > 0) {
                fs::copy_file(trace0, root / trace_rel);
                if (distinct[d].has_prof)
                    fs::copy_file(prof0, root / prof_rel);
            }
            Json e = Json::object();
            e.set("trace", Json(trace_rel));
            e.set("prof", distinct[d].has_prof ? Json(prof_rel) : Json());
            e.set("original_us", distinct[d].original_us >= 0.0
                                     ? Json(distinct[d].original_us)
                                     : Json());
            entries.push_back(std::move(e));
        }
    }
    Json m = Json::object();
    m.set("workload", Json(workload));
    m.set("seed", Json(std::to_string(seed)));
    m.set("mode", Json(mode_name(mode)));
    m.set("entries", std::move(entries));
    m.dump_file((root / "manifest.json").string(), 1);
}

Manifest
read_manifest(const std::string& dir)
{
    const fs::path root(dir);
    const Json j = Json::parse_file((root / "manifest.json").string());
    Manifest m;
    m.workload = j.at("workload").as_string();
    m.seed = std::stoull(j.at("seed").as_string());
    const std::string mode = j.at("mode").as_string();
    if (mode != "numeric" && mode != "shape_only")
        MYST_THROW(ParseError, "manifest: unknown mode '" << mode << "'");
    m.mode = mode == "numeric" ? fw::ExecMode::kNumeric : fw::ExecMode::kShapeOnly;
    for (const Json& e : j.at("entries").as_array()) {
        Entry entry;
        entry.trace_path = (root / e.at("trace").as_string()).string();
        if (!e.at("prof").is_null())
            entry.prof_path = (root / e.at("prof").as_string()).string();
        if (!e.at("original_us").is_null())
            entry.original_us = e.at("original_us").as_double();
        m.entries.push_back(std::move(entry));
    }
    if (m.entries.empty())
        MYST_THROW(ParseError, "manifest in " << dir << " lists no traces");
    return m;
}

core::ReplayConfig
replay_config(const Manifest& m)
{
    core::ReplayConfig cfg;
    cfg.platform = "A100";
    cfg.mode = m.mode;
    cfg.warmup_iterations = 1;
    cfg.iterations = 4;
    cfg.seed = 4050;
    cfg.opt_level = 1;
    cfg.async_level = 1;
    return cfg;
}

} // namespace fleetbench
