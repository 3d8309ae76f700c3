// Defining a new scenario on the campaign API (the README's "defining a
// new scenario" guide, runnable).
//
// A scenario is a declarative spec: typed parameter axes, an output
// schema, and a run function that enumerates the (possibly --set-
// restricted) grid into one flattened ShardSpace batch. Registering it
// makes it listable, runnable, restrictable and renderable exactly like
// the built-in paper figures -- parallel over SANPERF_THREADS with
// bit-identical results at any thread count, for free.
//
// The example sweeps a what-if grid: class-1 latency per group size,
// with and without a crashed participant.
#include <iostream>

#include "core/campaign.hpp"
#include "core/measurement.hpp"
#include "core/report.hpp"

using namespace sanperf;

namespace {

core::ScenarioSpec crash_sweep_spec() {
  core::ScenarioSpec spec;
  spec.name = "crash_sweep";
  spec.description = "Class-1 latency vs group size under a crash scenario";
  spec.needs_calibration = false;  // emulation only, no SAN calibration pass

  // 1. Typed axes: the grid a `--set`-style override can restrict.
  spec.axes = [](const core::Scale& scale) {
    return std::vector<core::ParamAxis>{
        core::ParamAxis::sizes("n", scale.ns),
        core::ParamAxis::strings("scenario", {"no-crash", "participant-crash"})};
  };

  // 2. Output schema: one typed ResultTable row per grid point.
  spec.columns = {{"n", core::ResultTable::ColumnType::kInt},
                  {"scenario", core::ResultTable::ColumnType::kString},
                  {"latency_ms", core::ResultTable::ColumnType::kMeanCI},
                  {"undecided", core::ResultTable::ColumnType::kInt}};

  // 3. Run: one ShardSpace group per grid point, every (point, execution)
  // task drains from a single runner batch, folds happen in index order.
  spec.run = [columns = spec.columns](const core::ScenarioRun& run) {
    const core::PaperContext& ctx = run.ctx;
    core::ShardSpace space;
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const std::size_t n = run.grid.point(p).get_size("n");
      space.add_group(ctx.scale.class1_executions, ctx.seed + 1234 + n, "exec");
    }
    const auto outcomes = ctx.runner->run_flat(space, [&](const core::ShardSpace::Task& t) {
      const auto point = run.grid.point(t.group);
      const int crashed = point.get_string("scenario") == "no-crash" ? -1 : 1;
      return core::run_latency_execution(point.get_size("n"), ctx.network, ctx.timers, crashed,
                                         t.index, t.seed);
    });

    core::ResultTable table{"crash_sweep", columns};
    for (std::size_t p = 0; p < run.grid.size(); ++p) {
      const auto point = run.grid.point(p);
      const auto meas = core::fold_latency_outcomes(outcomes[p]);
      table.add_row({point.get_int("n"), point.get_string("scenario"),
                     meas.summary().mean_ci(0.90),
                     static_cast<std::int64_t>(meas.undecided)});
    }
    return table;
  };
  return spec;
}

// 4. Self-registration: the static registrar appends the spec to
// CampaignRegistry::global() during this translation unit's initialisation
// -- an out-of-tree scenario linked into any binary (this example, a
// plugin, a rebuilt CLI) shows up after the in-tree specs without editing
// the library. In-tree specs join a family list in core/experiments.cpp or
// core/scenarios.cpp instead. A spec whose run reads ScenarioRun::fault_plan
// must also set takes_fault_plan, or --fault-plan is rejected for it.
SANPERF_REGISTER_SCENARIO(crash_sweep_spec);

}  // namespace

int main() {
  const auto& registry = core::CampaignRegistry::global();
  std::cout << "registered scenarios (in-tree + self-registered):\n";
  for (const auto& spec : registry.specs()) std::cout << "  " << spec.name << "\n";

  core::RunOptions options;
  options.scale = core::Scale::quick();
  options.axis_overrides = {{"n", "3,5"}};  // what `sanperf run --set n=3,5` would do

  const auto table = registry.run("crash_sweep", options);
  table.print(std::cout);
  std::cout << "\nCSV form (what --format csv emits):\n" << table.to_csv();
  return 0;
}
