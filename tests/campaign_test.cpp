// Tests for the declarative campaign API: axis/grid enumeration, override
// parsing, registry contents and order, the ResultTable CSV round-trip and
// JSON sink, restriction and thread-count invariance of registered runs,
// the fault-plan contract, and the paper's agreement and shape gates on
// the quick-scale tables.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "core/campaign.hpp"
#include "core/result_table.hpp"

namespace {

using namespace sanperf;
using core::ParamAxis;
using core::ParamGrid;
using core::ResultTable;

// --- ParamAxis / ParamGrid ---------------------------------------------------

TEST(ParamAxisTest, TypedDomainsAndAccessors) {
  const auto n = ParamAxis::sizes("n", {3, 5, 7});
  EXPECT_EQ(n.type(), ParamAxis::Type::kInt);
  EXPECT_EQ(n.size(), 3u);
  EXPECT_EQ(n.size_values(), (std::vector<std::size_t>{3, 5, 7}));
  EXPECT_EQ(n.int_values(), (std::vector<std::int64_t>{3, 5, 7}));

  const auto t = ParamAxis::reals("timeout_ms", {1.5, 2.0});
  EXPECT_EQ(t.real_values(), (std::vector<double>{1.5, 2.0}));

  const auto s = ParamAxis::strings("scenario", {"a", "b"});
  EXPECT_EQ(s.string_values(), (std::vector<std::string>{"a", "b"}));

  EXPECT_THROW(ParamAxis::ints("empty", {}), std::invalid_argument);
  EXPECT_THROW(n.real_values(), std::bad_variant_access);
}

TEST(ParamAxisTest, ParseOverrideByType) {
  const auto n = ParamAxis::sizes("n", {3, 5, 7});
  EXPECT_EQ(n.parse_override("5,7").int_values(), (std::vector<std::int64_t>{5, 7}));
  // Int overrides outside the default domain are legal (new what-ifs).
  EXPECT_EQ(n.parse_override("13").int_values(), (std::vector<std::int64_t>{13}));
  EXPECT_THROW(n.parse_override("3,x"), std::invalid_argument);
  EXPECT_THROW(n.parse_override(""), std::invalid_argument);

  const auto t = ParamAxis::reals("t", {0.005, 0.025});
  EXPECT_EQ(t.parse_override("0.025").real_values(), (std::vector<double>{0.025}));

  // String overrides must come from the declared domain.
  const auto s = ParamAxis::strings("scenario", {"no-crash", "coordinator-crash"});
  EXPECT_EQ(s.parse_override("no-crash").string_values(),
            (std::vector<std::string>{"no-crash"}));
  EXPECT_THROW(s.parse_override("meteor-strike"), std::invalid_argument);
}

TEST(ParamAxisTest, ParseOverrideRejectsARepeatedValue) {
  // A value listed twice would run one seed twice and print its row twice.
  const auto rejection = [](const ParamAxis& axis, std::string_view csv) -> std::string {
    try {
      (void)axis.parse_override(csv);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(rejection(ParamAxis::sizes("n", {3, 5}), "3,3"),
            "axis 'n': value '3' is listed twice");
  EXPECT_EQ(rejection(ParamAxis::reals("t", {1.0}), "1,2,1.0"),
            "axis 't': value '1.0' is listed twice");
  EXPECT_EQ(rejection(ParamAxis::strings("scenario", {"no-crash", "coordinator-crash"}),
                      "no-crash,coordinator-crash,no-crash"),
            "axis 'scenario': value 'no-crash' is listed twice");
}

TEST(ParamGridTest, RowMajorEnumeration) {
  const ParamGrid grid{{ParamAxis::sizes("n", {3, 5}), ParamAxis::reals("T", {1, 2, 3})}};
  ASSERT_EQ(grid.size(), 6u);
  // Last axis fastest: (3,1) (3,2) (3,3) (5,1) (5,2) (5,3).
  EXPECT_EQ(grid.point(0).get_size("n"), 3u);
  EXPECT_EQ(grid.point(0).get_real("T"), 1.0);
  EXPECT_EQ(grid.point(2).get_size("n"), 3u);
  EXPECT_EQ(grid.point(2).get_real("T"), 3.0);
  EXPECT_EQ(grid.point(3).get_size("n"), 5u);
  EXPECT_EQ(grid.point(3).get_real("T"), 1.0);
  EXPECT_EQ(grid.point(5).label(), "n=5 T=3");
  EXPECT_THROW(grid.point(6), std::out_of_range);
  EXPECT_THROW((ParamGrid{{ParamAxis::sizes("n", {3}), ParamAxis::sizes("n", {5})}}),
               std::invalid_argument);
  EXPECT_TRUE(grid.has_axis("T"));
  EXPECT_FALSE(grid.has_axis("missing"));
}

// --- Registry ----------------------------------------------------------------

TEST(RegistryTest, GlobalListsTheInTreeScenariosInOrder) {
  // The paper family, then the workload family, then the fault family:
  // the `sanperf list` order, independent of static-initialisation order.
  const std::vector<std::string> expected = {
      "fig6", "fig7a", "fig7b", "table1", "fig8", "fig9a", "fig9b", "ablation_broadcast",
      "ablation_fd_correlation", "ext_algorithms", "ext_throughput", "ext_detection_time",
      "scale_n_sweep", "load_latency_sweep", "batch_throughput_sweep", "closed_loop_clients",
      "crash_under_load", "recovery_under_load", "rolling_restart", "membership_growth",
      "rack_loss_consensus", "cross_rack_latency_sweep", "crash_recovery_latency",
      "partition_heal", "lossy_consensus", "slowdown_sweep"};
  const auto& registry = core::CampaignRegistry::global();
  std::vector<std::string> names;
  for (const auto& spec : registry.specs()) {
    names.push_back(spec.name);
    EXPECT_FALSE(spec.description.empty()) << spec.name;
    EXPECT_FALSE(spec.columns.empty()) << spec.name;
  }
  EXPECT_EQ(names, expected);
  EXPECT_EQ(registry.find("no_such_scenario"), nullptr);
}

TEST(RegistryTest, GridsEnumerateTheDeclaredDomains) {
  const auto& registry = core::CampaignRegistry::global();
  const auto scale = core::Scale::quick();
  for (const auto& spec : registry.specs()) {
    const auto grid = core::CampaignRegistry::grid(spec, scale, {});
    std::size_t product = 1;
    for (const auto& axis : grid.axes()) {
      EXPECT_GT(axis.size(), 0u) << spec.name << "/" << axis.name();
      product *= axis.size();
    }
    EXPECT_EQ(grid.size(), product) << spec.name;
  }
  // Spot-check the domains against the Scale.
  const auto fig7a = core::CampaignRegistry::grid(*registry.find("fig7a"), scale, {});
  EXPECT_EQ(fig7a.axis("n").size_values(), scale.ns);
  const auto fig8 = core::CampaignRegistry::grid(*registry.find("fig8"), scale, {});
  EXPECT_EQ(fig8.axis("timeout_ms").real_values(), scale.timeouts_ms);
  EXPECT_EQ(fig8.size(), scale.ns.size() * scale.timeouts_ms.size());
  const auto table1 = core::CampaignRegistry::grid(*registry.find("table1"), scale, {});
  EXPECT_EQ(table1.axis("scenario").size(), 3u);
}

TEST(RegistryTest, OverridesRestrictAndValidate) {
  const auto& registry = core::CampaignRegistry::global();
  const auto scale = core::Scale::quick();
  const auto* spec = registry.find("table1");
  ASSERT_NE(spec, nullptr);
  const auto grid = core::CampaignRegistry::grid(
      *spec, scale, {{"n", "3"}, {"scenario", "coordinator-crash"}});
  EXPECT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid.point(0).get_string("scenario"), "coordinator-crash");
  EXPECT_THROW(core::CampaignRegistry::grid(*spec, scale, {{"bogus_axis", "1"}}),
               std::invalid_argument);
}

// --- ResultTable -------------------------------------------------------------

ResultTable sample_table() {
  ResultTable table{"unit", {{"n", ResultTable::ColumnType::kInt},
                             {"name", ResultTable::ColumnType::kString},
                             {"x", ResultTable::ColumnType::kReal},
                             {"ci", ResultTable::ColumnType::kMeanCI},
                             {"xs", ResultTable::ColumnType::kSample}}};
  stats::MeanCI ci;
  ci.mean = 1.0 / 3.0;
  ci.half_width = 0.0625;
  ci.confidence = 0.90;
  ci.count = 150;
  table.add_row({std::int64_t{3}, std::string{"alpha"}, 0.1 + 0.2, ci,
                 core::SampleRef{{0.5, 1.25, std::exp(1.0)}}});
  // Nulls are legal in every column; 2^53 + 1 catches any sink that
  // routes integers through double.
  table.add_row({std::int64_t{9007199254740993}, ResultTable::Value{}, ResultTable::Value{},
                 ResultTable::Value{}, ResultTable::Value{}});
  // A present-but-empty sample must survive a round-trip as an empty
  // sample, not collapse to null.
  table.add_row({std::int64_t{7}, std::string{"gamma"}, 0.25, ResultTable::Value{},
                 core::SampleRef{{}}});
  return table;
}

void expect_tables_equal(const ResultTable& a, const ResultTable& b) {
  ASSERT_EQ(a.name(), b.name());
  ASSERT_EQ(a.columns().size(), b.columns().size());
  for (std::size_t c = 0; c < a.columns().size(); ++c) {
    EXPECT_EQ(a.columns()[c].name, b.columns()[c].name);
    EXPECT_EQ(a.columns()[c].type, b.columns()[c].type);
  }
  ASSERT_EQ(a.row_count(), b.row_count());
  for (std::size_t r = 0; r < a.row_count(); ++r) {
    for (std::size_t c = 0; c < a.columns().size(); ++c) {
      const auto& va = a.cell(r, c);
      const auto& vb = b.cell(r, c);
      ASSERT_EQ(va.index(), vb.index()) << r << "," << c;
      if (const auto* i = std::get_if<std::int64_t>(&va)) {
        EXPECT_EQ(*i, std::get<std::int64_t>(vb));
      } else if (const auto* d = std::get_if<double>(&va)) {
        EXPECT_EQ(*d, std::get<double>(vb)) << "bit-exact round-trip";
      } else if (const auto* s = std::get_if<std::string>(&va)) {
        EXPECT_EQ(*s, std::get<std::string>(vb));
      } else if (const auto* ci = std::get_if<stats::MeanCI>(&va)) {
        const auto& other = std::get<stats::MeanCI>(vb);
        EXPECT_EQ(ci->mean, other.mean);
        EXPECT_EQ(ci->half_width, other.half_width);
        EXPECT_EQ(ci->confidence, other.confidence);
        EXPECT_EQ(ci->count, other.count);
      } else if (const auto* xs = std::get_if<core::SampleRef>(&va)) {
        EXPECT_EQ(xs->values(), std::get<core::SampleRef>(vb).values());
      }
    }
  }
}

TEST(ResultTableTest, TypeAndArityChecking) {
  ResultTable table{"t", {{"n", ResultTable::ColumnType::kInt}}};
  EXPECT_THROW(table.add_row({std::string{"oops"}}), std::invalid_argument);
  EXPECT_THROW(table.add_row({std::int64_t{1}, std::int64_t{2}}), std::invalid_argument);
  table.add_row({std::int64_t{1}});
  EXPECT_EQ(table.row_count(), 1u);
  EXPECT_EQ(*table.column_index("n"), 0u);
  EXPECT_FALSE(table.column_index("missing").has_value());
  EXPECT_EQ(std::get<std::int64_t>(table.at(0, "n")), 1);
  EXPECT_THROW((void)table.at(0, "missing"), std::out_of_range);
  // Separator characters in string cells would corrupt the CSV sink.
  ResultTable strings{"s", {{"name", ResultTable::ColumnType::kString}}};
  EXPECT_THROW(strings.add_row({std::string{"a,b"}}), std::invalid_argument);
}

TEST(ResultTableTest, CsvRoundTripIsBitExact) {
  const auto table = sample_table();
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("#table unit"), std::string::npos);
  EXPECT_NE(csv.find("n:int,name:string,x:real,ci:ci,xs:sample"), std::string::npos);
  expect_tables_equal(table, ResultTable::from_csv(csv));
}

TEST(ResultTableTest, JsonSinkWritesExactBits) {
  // %.17g restores every double's bits; integers print whole past 2^53.
  EXPECT_EQ(sample_table().to_json(),
            R"({"table":"unit","columns":[{"name":"n","type":"int"},)"
            R"({"name":"name","type":"string"},{"name":"x","type":"real"},)"
            R"({"name":"ci","type":"ci"},{"name":"xs","type":"sample"}],"rows":[)"
            R"([3,"alpha",0.30000000000000004,{"mean":0.33333333333333331,)"
            R"("half_width":0.0625,"confidence":0.90000000000000002,"count":150},)"
            R"([0.5,1.25,2.7182818284590451]],)"
            R"([9007199254740993,null,null,null,null],)"
            R"([7,"gamma",0.25,null,[]]]})");
}

TEST(ResultTableTest, PrintRendersAlignedText) {
  std::ostringstream os;
  sample_table().print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("[3 samples]"), std::string::npos);
  EXPECT_NE(out.find("-"), std::string::npos);  // null cells
}

// --- Registered runs ---------------------------------------------------------

core::Scale tiny_scale() {
  auto scale = core::Scale::quick();
  scale.delay_probes = 150;
  scale.class1_executions = 16;
  scale.sim_replications = 16;
  scale.class3_runs = 2;
  scale.class3_executions = 12;
  scale.ns = {3, 5};
  scale.sim_ns = {3, 5};
  scale.timeouts_ms = {5, 40};
  return scale;
}

TEST(ScenarioRunTest, RestrictedAxisReproducesTheMatchingSubset) {
  const auto& registry = core::CampaignRegistry::global();
  core::RunOptions options;
  options.scale = tiny_scale();
  options.seed = 78;
  const auto full = registry.run("fig7a", options);
  options.axis_overrides = {{"n", "5"}};
  const auto restricted = registry.run("fig7a", options);
  ASSERT_EQ(restricted.row_count(), 1u);
  // Full row 1 is n = 5; the restricted run must reproduce it bit for bit.
  EXPECT_EQ(std::get<core::SampleRef>(restricted.at(0, "latencies_ms")).values(),
            std::get<core::SampleRef>(full.at(1, "latencies_ms")).values());
  EXPECT_EQ(std::get<stats::MeanCI>(restricted.at(0, "latency_ms")).mean,
            std::get<stats::MeanCI>(full.at(1, "latency_ms")).mean);
}

TEST(ScenarioRunTest, UnknownScenarioAndThreadCountIndependence) {
  const auto& registry = core::CampaignRegistry::global();
  core::RunOptions options;
  options.scale = tiny_scale();
  EXPECT_THROW((void)registry.run("nope", options), std::out_of_range);

  // The registry path is bit-identical across runner thread counts.
  const core::ReplicationRunner one{1};
  const core::ReplicationRunner four{4};
  options.seed = 80;
  options.runner = &one;
  const auto a = registry.run("fig7a", options);
  options.runner = &four;
  const auto b = registry.run("fig7a", options);
  expect_tables_equal(a, b);
}

TEST(ScenarioRunTest, FaultPlanOnlyWhereTheSpecTakesOne) {
  // A --fault-plan the spec would ignore is an error naming the spec, not
  // a plan-free run under a plan-shaped command line.
  const auto& registry = core::CampaignRegistry::global();
  core::RunOptions options;
  options.scale = tiny_scale();
  options.axis_overrides = {{"n", "3"}};
  options.fault_plan = faults::FaultPlan{};
  try {
    (void)registry.run("ext_throughput", options);
    FAIL() << "ext_throughput ran with a fault plan";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("'ext_throughput' takes no fault plan"),
              std::string::npos)
        << e.what();
  }
  std::size_t takers = 0;
  for (const auto& spec : registry.specs()) takers += spec.takes_fault_plan ? 1 : 0;
  EXPECT_EQ(takers, 9u);
  options.axis_overrides = {{"n", "3"}, {"factor", "1"}, {"resource", "cpu"}};
  EXPECT_EQ(registry.run("slowdown_sweep", options).row_count(), 1u);
}

TEST(ScenarioRunTest, CrashScenariosRejectTwoHosts) {
  // With one of two hosts crashed there is no majority, so no execution
  // could decide: both crash tables reject n = 2 by scenario, axis and
  // value instead of printing blank cells.
  const auto& registry = core::CampaignRegistry::global();
  core::RunOptions options;
  options.scale = tiny_scale();
  options.axis_overrides = {{"n", "2"}};
  for (const char* name : {"table1", "ext_algorithms"}) {
    try {
      (void)registry.run(name, options);
      FAIL() << name << " ran at n = 2";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string{e.what()},
                std::string{name} +
                    ": n = 2 is out of range: with one of 2 hosts crashed there is no majority");
    }
  }
  // Without a crash, two hosts are a majority of themselves.
  options.axis_overrides = {{"n", "2"}, {"scenario", "no-crash"}};
  const auto algorithms = registry.run("ext_algorithms", options);
  ASSERT_EQ(algorithms.row_count(), 1u);
  EXPECT_TRUE(std::holds_alternative<stats::MeanCI>(algorithms.at(0, "ct_ms")));
}

TEST(ScenarioRunTest, CellsOverNoDecidedExecutionAreEmpty) {
  // Zero executions per cell: no side decides anything. A mean over zero
  // samples used to print as 0, and ext_algorithms a NaN ratio and a CT
  // "winner".
  const auto& registry = core::CampaignRegistry::global();
  core::RunOptions options;
  options.scale = tiny_scale();
  options.scale.class1_executions = 0;
  options.axis_overrides = {{"n", "3"}, {"scenario", "no-crash"}};
  const auto table1 = registry.run("table1", options);
  ASSERT_EQ(table1.row_count(), 1u);
  EXPECT_TRUE(std::holds_alternative<std::monostate>(table1.at(0, "meas_ms")));
  const auto algorithms = registry.run("ext_algorithms", options);
  ASSERT_EQ(algorithms.row_count(), 1u);
  for (const char* column : {"ct_ms", "mr_ms", "mr_over_ct", "winner"}) {
    EXPECT_TRUE(std::holds_alternative<std::monostate>(algorithms.at(0, column))) << column;
  }
}

// --- Paper agreement and shape gates ------------------------------------------

double mean_at(const ResultTable& table, std::size_t row, const std::string& column) {
  return std::get<stats::MeanCI>(table.at(row, column)).mean;
}

TEST(PaperGatesTest, QuickScaleAgreementAndShape) {
  // The registry's quick-scale tables, exactly what `sanperf run` writes
  // (table1_quick.csv pins their bits). These gate the paper's headline
  // findings, so a regression that skews the reproduction fails even where
  // a golden would simply be regenerated.
  const auto& registry = core::CampaignRegistry::global();
  core::RunOptions options;
  options.scale = core::Scale::quick();

  // Table 1 (Sections 5.2 and 5.3): simulation tracks measurement within
  // 25% without crashes at the calibrated n, and a coordinator crash is
  // slower than no crash at every n.
  const auto table1 = registry.run("table1", options);
  std::map<std::pair<std::int64_t, std::string>, std::size_t> row_of;
  for (std::size_t r = 0; r < table1.row_count(); ++r) {
    row_of[{std::get<std::int64_t>(table1.at(r, "n")),
            std::get<std::string>(table1.at(r, "scenario"))}] = r;
  }
  for (const std::int64_t n : {3, 5}) {
    const std::size_t r = row_of.at({n, "no-crash"});
    const double ratio = std::get<double>(table1.at(r, "sim_ms")) / mean_at(table1, r, "meas_ms");
    EXPECT_GT(ratio, 0.75) << "n=" << n;
    EXPECT_LT(ratio, 1.25) << "n=" << n;
  }
  std::size_t crash_rows = 0;
  for (const auto& [key, r] : row_of) {
    if (key.second != "coordinator-crash") continue;
    ++crash_rows;
    EXPECT_GT(mean_at(table1, r, "meas_ms"),
              mean_at(table1, row_of.at({key.first, "no-crash"}), "meas_ms"))
        << "n=" << key.first;
  }
  EXPECT_EQ(crash_rows, options.scale.ns.size());

  // Fig 7a: latency grows with n.
  const auto fig7a = registry.run("fig7a", options);
  ASSERT_GE(fig7a.row_count(), 2u);
  for (std::size_t r = 1; r < fig7a.row_count(); ++r) {
    EXPECT_GT(mean_at(fig7a, r, "latency_ms"), mean_at(fig7a, r - 1, "latency_ms")) << r;
  }

  // Fig 9a (n = 3): latency decreases in T, very high where wrong
  // suspicions are frequent.
  options.axis_overrides = {{"n", "3"}};
  const auto fig9a = registry.run("fig9a", options);
  ASSERT_GE(fig9a.row_count(), 2u);
  EXPECT_GT(mean_at(fig9a, 0, "latency_ms"),
            2 * mean_at(fig9a, fig9a.row_count() - 1, "latency_ms"));

  // Fig 8 (n = 3): T_MR increases in T and blows up past T ~ 30 ms -- at
  // T >= 40 ms the detector makes no mistakes or they recur rarely (paper:
  // T_MR > 190 ms at T = 40).
  const auto fig8 = registry.run("fig8", options);
  std::vector<double> t_mr;  // rows with mistakes, in T order
  for (std::size_t r = 0; r < fig8.row_count(); ++r) {
    const auto& cell = fig8.at(r, "t_mr_ms");
    if (std::holds_alternative<std::monostate>(cell)) continue;
    const double mean = std::get<stats::MeanCI>(cell).mean;
    t_mr.push_back(mean);
    if (std::get<double>(fig8.at(r, "timeout_ms")) >= 40) EXPECT_GT(mean, 190.0) << r;
  }
  ASSERT_GE(t_mr.size(), 2u);
  EXPECT_GT(t_mr.front(), 0.0);
  EXPECT_GT(t_mr.back(), t_mr.front());
}

}  // namespace
