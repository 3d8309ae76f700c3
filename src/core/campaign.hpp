// Declarative scenario/campaign API.
//
// A scenario is *described*, not hard-coded: a ScenarioSpec names its
// typed parameter axes (group size n, timeout, t_send, crash scenario,
// ...), its output schema, and a run function that enumerates the
// (restricted) axis grid into flattened ShardSpace batches over the
// replication engine. The CampaignRegistry holds the specs; one engine --
// and one `sanperf` CLI on top of it -- lists, restricts (--set
// axis=value), runs, and renders every scenario uniformly. Every paper
// figure/table, ablation and extension is a registered spec; a new
// workload is one more registration, not a new driver binary.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/config.hpp"
#include "core/experiments.hpp"
#include "core/replication.hpp"
#include "core/result_table.hpp"
#include "faults/plan.hpp"

namespace sanperf::core {

/// One value on a parameter axis.
using AxisValue = std::variant<std::int64_t, double, std::string>;

[[nodiscard]] std::string to_string(const AxisValue& value);

/// A named, typed parameter axis with an explicit finite domain.
class ParamAxis {
 public:
  enum class Type { kInt, kReal, kString };

  [[nodiscard]] static ParamAxis ints(std::string name, std::vector<std::int64_t> values);
  [[nodiscard]] static ParamAxis reals(std::string name, std::vector<double> values);
  [[nodiscard]] static ParamAxis strings(std::string name, std::vector<std::string> values);
  /// Convenience: int axis from the size_t lists used by Scale.
  [[nodiscard]] static ParamAxis sizes(std::string name, const std::vector<std::size_t>& values);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] const AxisValue& at(std::size_t i) const { return values_.at(i); }
  [[nodiscard]] const std::vector<AxisValue>& values() const { return values_; }

  /// Typed domain views; throw std::bad_variant_access on the wrong type.
  [[nodiscard]] std::vector<std::int64_t> int_values() const;
  [[nodiscard]] std::vector<double> real_values() const;
  [[nodiscard]] std::vector<std::string> string_values() const;
  /// int_values() widened back to the Scale's size_t convention.
  [[nodiscard]] std::vector<std::size_t> size_values() const;

  /// Same-named axis whose domain is parsed from a comma-separated list
  /// ("3,5" / "0.025" / "coordinator-crash") according to this axis's
  /// type. This is how `--set axis=...` overrides a default domain. Throws
  /// std::invalid_argument naming the axis and the value when a value is
  /// listed twice.
  [[nodiscard]] ParamAxis parse_override(std::string_view csv) const;

 private:
  ParamAxis(std::string name, Type type, std::vector<AxisValue> values);

  std::string name_;
  Type type_;
  std::vector<AxisValue> values_;
};

/// One grid point: the selected value of every axis, in axis order.
class ParamPoint {
 public:
  ParamPoint() = default;
  explicit ParamPoint(std::vector<std::pair<std::string, AxisValue>> entries)
      : entries_{std::move(entries)} {}

  [[nodiscard]] const AxisValue& get(std::string_view axis) const;
  [[nodiscard]] std::int64_t get_int(std::string_view axis) const;
  [[nodiscard]] double get_real(std::string_view axis) const;
  [[nodiscard]] const std::string& get_string(std::string_view axis) const;
  [[nodiscard]] std::size_t get_size(std::string_view axis) const;

  [[nodiscard]] const std::vector<std::pair<std::string, AxisValue>>& entries() const {
    return entries_;
  }
  /// "n=3 timeout_ms=5" -- for labels and error messages.
  [[nodiscard]] std::string label() const;

 private:
  std::vector<std::pair<std::string, AxisValue>> entries_;
};

/// The cartesian product of a list of axes, enumerated in row-major order
/// (first axis slowest, last axis fastest) -- the order the nested
/// sequential loops of the original drivers used.
class ParamGrid {
 public:
  ParamGrid() = default;
  explicit ParamGrid(std::vector<ParamAxis> axes);

  [[nodiscard]] const std::vector<ParamAxis>& axes() const { return axes_; }
  [[nodiscard]] const ParamAxis& axis(std::string_view name) const;
  [[nodiscard]] bool has_axis(std::string_view name) const;
  /// Product of the axis domain sizes (1 for an axis-free grid).
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Decodes a flat index in [0, size()) into its grid point.
  [[nodiscard]] ParamPoint point(std::size_t flat) const;

 private:
  std::vector<ParamAxis> axes_;
  std::size_t size_ = 1;
};

/// Everything a scenario's run function receives: the (calibrated)
/// context -- whose runner fans the flattened task lists out -- and the
/// effective grid (default axes, restricted by any --set overrides).
/// `fault_plan` carries an explicit --fault-plan override, which a spec
/// that takes one (ScenarioSpec::takes_fault_plan) runs in place of its
/// axis-derived plans.
struct ScenarioRun {
  const PaperContext& ctx;
  ParamGrid grid;
  const faults::FaultPlan* fault_plan = nullptr;
};

/// A declaratively described experiment.
struct ScenarioSpec {
  std::string name;
  std::string description;
  /// Paper-shape commentary appended after the rendered text table.
  std::string notes;
  /// Whether the run needs the Fig 6 calibration pass (make_context) or a
  /// bare context (network defaults) suffices.
  bool needs_calibration = true;
  /// Whether the run reads ScenarioRun::fault_plan. CampaignRegistry::run
  /// rejects a --fault-plan for a spec that does not, instead of running
  /// it plan-free.
  bool takes_fault_plan = false;
  /// Default axis domains at the given scale.
  std::function<std::vector<ParamAxis>(const Scale&)> axes;
  /// Output schema (the columns of the produced ResultTable).
  std::vector<ResultTable::Column> columns;
  std::function<ResultTable(const ScenarioRun&)> run;
};

/// Options for one scenario run.
struct RunOptions {
  Scale scale = Scale::from_env();
  std::uint64_t seed = kDefaultSeed;
  /// nullptr resolves to default_runner() (SANPERF_THREADS).
  const ReplicationRunner* runner = nullptr;
  /// Axis overrides: name -> comma-separated value list (--set n=3,5).
  std::map<std::string, std::string> axis_overrides;
  /// Explicit fault plan (--fault-plan plan.json); a spec that takes one
  /// runs it in place of its axis-derived plans, any other spec rejects it.
  std::optional<faults::FaultPlan> fault_plan;
};

class CampaignRegistry {
 public:
  /// Registers a spec; throws std::invalid_argument on a duplicate name.
  CampaignRegistry& add(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec* find(std::string_view name) const;
  [[nodiscard]] const std::vector<ScenarioSpec>& specs() const { return specs_; }

  /// The effective grid of a spec: default axes at `scale`, with any
  /// overridden axis's domain replaced by the parsed override. Throws on
  /// an override naming no axis of the spec, and on an `n` below 2 (every
  /// `n` axis is a cluster size).
  [[nodiscard]] static ParamGrid grid(const ScenarioSpec& spec, const Scale& scale,
                                      const std::map<std::string, std::string>& overrides);

  /// Builds the context (calibrating if the spec asks for it), enumerates
  /// the effective grid and runs the spec. Throws std::invalid_argument
  /// naming the spec when options carry a fault plan it does not take.
  [[nodiscard]] ResultTable run(const ScenarioSpec& spec, const RunOptions& options) const;
  /// Throws std::out_of_range on an unknown scenario name.
  [[nodiscard]] ResultTable run(std::string_view name, const RunOptions& options) const;

  /// The process-wide registry the CLI serves: the in-tree families in
  /// `sanperf list` order (paper_scenarios, workload_scenarios,
  /// fault_scenarios), then every out-of-tree spec added through
  /// register_scenario.
  [[nodiscard]] static CampaignRegistry& global();

  /// Appends a spec to global(). Callable from static initialisers -- the
  /// SANPERF_REGISTER_SCENARIO macro wraps it -- so an out-of-tree scenario
  /// in any linked translation unit appears in `sanperf list` after the
  /// in-tree families. An in-tree spec joins its family's list instead.
  static void register_scenario(ScenarioSpec spec) { global().add(std::move(spec)); }

 private:
  std::vector<ScenarioSpec> specs_;
};

struct MeasuredLatency;

/// A latency fold's 90% mean CI as a table cell, empty when no execution
/// decided: a mean over zero samples would print as 0.
[[nodiscard]] ResultTable::Value mean_ci_cell(const MeasuredLatency& latency);

/// Throws the std::invalid_argument "<scenario>: <axis> = <value> is out of
/// range: <why>", which names what the user typed ahead of the reason.
[[noreturn]] void reject_axis_value(const std::string& scenario, const char* axis,
                                    const AxisValue& value, const std::string& why);

/// Rejects timing axis `axis` of `point` when `span_ms`, the longest
/// simulated span its value drives, is more than des::Duration's int64
/// nanoseconds hold. The std::invalid_argument names the scenario, the
/// axis and its value before the span, which the user may never have typed.
void check_timing_axis(const std::string& scenario, const ParamPoint& point, const char* axis,
                       double span_ms);

/// The in-tree scenario families global() lists, each in `sanperf list`
/// order: the paper artifacts, ablations and extensions (experiments.cpp),
/// then the workload-engine and fault-injection scenarios (scenarios.cpp).
[[nodiscard]] std::vector<ScenarioSpec> paper_scenarios();
[[nodiscard]] std::vector<ScenarioSpec> workload_scenarios();
[[nodiscard]] std::vector<ScenarioSpec> fault_scenarios();

/// Static-initialisation hook for self-registering out-of-tree scenarios:
///
///   core::ScenarioSpec my_spec();                 // factory
///   SANPERF_REGISTER_SCENARIO(my_spec);           // file scope
///
/// Caveat of static registration from a static library: the translation
/// unit must be pulled into the link (reference any of its symbols, or
/// register from a TU that is linked anyway, e.g. the binary's own).
struct ScenarioRegistrar {
  explicit ScenarioRegistrar(ScenarioSpec (*make)()) {
    CampaignRegistry::register_scenario(make());
  }
};

#define SANPERF_REGISTER_SCENARIO(make)                              \
  [[maybe_unused]] static const ::sanperf::core::ScenarioRegistrar   \
      sanperf_scenario_registrar_##make {                            \
    make                                                             \
  }

}  // namespace sanperf::core
