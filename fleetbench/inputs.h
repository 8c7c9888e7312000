#pragma once

/// @file
/// Seeded input generator of the fleet-sweep benchmark.
///
/// `generate()` writes one workload's inputs for one seed: execution-trace
/// files, profiler-trace files and a manifest carrying the original
/// (recorded) mean iteration time of every trace that has one.  The measured
/// program only ever reads these files back (`read_manifest()` plus
/// `et::ExecutionTrace::load`), so input generation — e.g. the 2.8 s paper
/// rm `wl::run_original` — counts toward no metric.

#include <cstdint>
#include <string>
#include <vector>

#include "core/replay_plan.h"

namespace fleetbench {

/// One trace file of a generated fleet (copies of one trace are separate
/// entries naming separate files).
struct Entry {
    std::string trace_path;
    /// Empty when the trace has no profiler trace (fuzz cases built without
    /// one); the plan is then built without stream assignments.
    std::string prof_path;
    /// Original mean iteration time in virtual µs; negative when the
    /// generator recorded none (fuzz cases).
    double original_us = -1.0;
};

struct Manifest {
    std::string workload;
    uint64_t seed = 0;
    mystique::fw::ExecMode mode = mystique::fw::ExecMode::kShapeOnly;
    std::vector<Entry> entries;
};

/// The workloads generate() knows: fleet_paper, fleet_mix, fleet_longtail,
/// fleet_numeric.
bool known_workload(const std::string& name);

/// Writes @p workload's inputs for @p seed into @p out_dir (created; must
/// not hold an older generation).  Throws on an unknown workload.
void generate(const std::string& workload, uint64_t seed, const std::string& out_dir);

/// Reads `manifest.json` from @p dir; entry paths come back joined to @p dir.
Manifest read_manifest(const std::string& dir);

/// The replay configuration every sweep of @p m uses: the reference sweep
/// settings of bench/micro_arena.cpp, in the manifest's execution mode, with
/// the optimizer and async executor pinned on so the environment cannot
/// change what a metric means.
mystique::core::ReplayConfig replay_config(const Manifest& m);

} // namespace fleetbench
