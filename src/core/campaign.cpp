#include "core/campaign.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/measurement.hpp"
#include "core/parse_util.hpp"

namespace sanperf::core {

std::string to_string(const AxisValue& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) return std::to_string(*i);
  if (const auto* d = std::get_if<double>(&value)) {
    // Axis values are human-chosen (timeouts, t_send candidates): 12
    // significant digits re-parse them exactly and stay readable.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", *d);
    return buf;
  }
  return std::get<std::string>(value);
}

// --- ParamAxis ---------------------------------------------------------------

ParamAxis::ParamAxis(std::string name, Type type, std::vector<AxisValue> values)
    : name_{std::move(name)}, type_{type}, values_{std::move(values)} {
  if (values_.empty()) {
    throw std::invalid_argument{"ParamAxis '" + name_ + "': empty domain"};
  }
}

ParamAxis ParamAxis::ints(std::string name, std::vector<std::int64_t> values) {
  std::vector<AxisValue> domain{values.begin(), values.end()};
  return ParamAxis{std::move(name), Type::kInt, std::move(domain)};
}

ParamAxis ParamAxis::reals(std::string name, std::vector<double> values) {
  std::vector<AxisValue> domain{values.begin(), values.end()};
  return ParamAxis{std::move(name), Type::kReal, std::move(domain)};
}

ParamAxis ParamAxis::strings(std::string name, std::vector<std::string> values) {
  std::vector<AxisValue> domain;
  domain.reserve(values.size());
  for (auto& v : values) domain.emplace_back(std::move(v));
  return ParamAxis{std::move(name), Type::kString, std::move(domain)};
}

ParamAxis ParamAxis::sizes(std::string name, const std::vector<std::size_t>& values) {
  std::vector<std::int64_t> ints;
  ints.reserve(values.size());
  for (const std::size_t v : values) ints.push_back(static_cast<std::int64_t>(v));
  return ParamAxis::ints(std::move(name), std::move(ints));
}

std::vector<std::int64_t> ParamAxis::int_values() const {
  std::vector<std::int64_t> out;
  out.reserve(values_.size());
  for (const auto& v : values_) out.push_back(std::get<std::int64_t>(v));
  return out;
}

std::vector<double> ParamAxis::real_values() const {
  std::vector<double> out;
  out.reserve(values_.size());
  for (const auto& v : values_) out.push_back(std::get<double>(v));
  return out;
}

std::vector<std::string> ParamAxis::string_values() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& v : values_) out.push_back(std::get<std::string>(v));
  return out;
}

std::vector<std::size_t> ParamAxis::size_values() const {
  std::vector<std::size_t> out;
  out.reserve(values_.size());
  for (const auto& v : values_) {
    const std::int64_t i = std::get<std::int64_t>(v);
    if (i < 0) throw std::invalid_argument{"ParamAxis '" + name_ + "': negative size"};
    out.push_back(static_cast<std::size_t>(i));
  }
  return out;
}

ParamAxis ParamAxis::parse_override(std::string_view csv) const {
  const std::string context = "axis '" + name_ + "'";
  std::vector<AxisValue> domain;
  for (const std::string_view token : detail::split(csv, ',')) {
    if (token.empty()) {
      throw std::invalid_argument{context + ": empty value in override"};
    }
    switch (type_) {
      case Type::kInt: domain.emplace_back(detail::parse_int(token, context)); break;
      case Type::kReal: {
        const double v = detail::parse_real(token, context);
        if (!std::isfinite(v)) {
          throw std::invalid_argument{context + ": axis values must be finite, got '" +
                                      std::string{token} + "'"};
        }
        domain.emplace_back(v);
        break;
      }
      case Type::kString: {
        bool known = false;
        for (const auto& v : values_) known = known || std::get<std::string>(v) == token;
        if (!known) {
          std::string domain_list;
          for (const auto& v : values_) {
            domain_list += (domain_list.empty() ? "" : ", ") + std::get<std::string>(v);
          }
          throw std::invalid_argument{context + ": unknown value '" + std::string{token} +
                                      "' (domain: " + domain_list + ")"};
        }
        domain.emplace_back(std::string{token});
        break;
      }
    }
  }
  return ParamAxis{name_, type_, std::move(domain)};
}

// --- ParamPoint --------------------------------------------------------------

const AxisValue& ParamPoint::get(std::string_view axis) const {
  for (const auto& [name, value] : entries_) {
    if (name == axis) return value;
  }
  throw std::out_of_range{"ParamPoint: no axis '" + std::string{axis} + "'"};
}

std::int64_t ParamPoint::get_int(std::string_view axis) const {
  return std::get<std::int64_t>(get(axis));
}

double ParamPoint::get_real(std::string_view axis) const { return std::get<double>(get(axis)); }

const std::string& ParamPoint::get_string(std::string_view axis) const {
  return std::get<std::string>(get(axis));
}

std::size_t ParamPoint::get_size(std::string_view axis) const {
  const std::int64_t v = get_int(axis);
  if (v < 0) throw std::invalid_argument{"ParamPoint: negative size for '" + std::string{axis} + "'"};
  return static_cast<std::size_t>(v);
}

std::string ParamPoint::label() const {
  std::string out;
  for (const auto& [name, value] : entries_) {
    if (!out.empty()) out += ' ';
    out += name + '=' + core::to_string(value);
  }
  return out;
}

// --- ParamGrid ---------------------------------------------------------------

ParamGrid::ParamGrid(std::vector<ParamAxis> axes) : axes_{std::move(axes)} {
  for (std::size_t i = 0; i < axes_.size(); ++i) {
    for (std::size_t j = i + 1; j < axes_.size(); ++j) {
      if (axes_[i].name() == axes_[j].name()) {
        throw std::invalid_argument{"ParamGrid: duplicate axis '" + axes_[i].name() + "'"};
      }
    }
    size_ *= axes_[i].size();
  }
}

const ParamAxis& ParamGrid::axis(std::string_view name) const {
  for (const auto& axis : axes_) {
    if (axis.name() == name) return axis;
  }
  throw std::out_of_range{"ParamGrid: no axis '" + std::string{name} + "'"};
}

bool ParamGrid::has_axis(std::string_view name) const {
  for (const auto& axis : axes_) {
    if (axis.name() == name) return true;
  }
  return false;
}

ParamPoint ParamGrid::point(std::size_t flat) const {
  if (flat >= size_) throw std::out_of_range{"ParamGrid::point: index out of range"};
  std::vector<std::pair<std::string, AxisValue>> entries(axes_.size(),
                                                         {std::string{}, AxisValue{}});
  // Row-major: the last axis varies fastest.
  for (std::size_t a = axes_.size(); a-- > 0;) {
    const ParamAxis& axis = axes_[a];
    entries[a] = {axis.name(), axis.at(flat % axis.size())};
    flat /= axis.size();
  }
  return ParamPoint{std::move(entries)};
}

// --- CampaignRegistry --------------------------------------------------------

CampaignRegistry& CampaignRegistry::add(ScenarioSpec spec) {
  if (find(spec.name) != nullptr) {
    throw std::invalid_argument{"CampaignRegistry: duplicate scenario '" + spec.name + "'"};
  }
  if (!spec.axes || !spec.run) {
    throw std::invalid_argument{"CampaignRegistry: scenario '" + spec.name +
                                "' lacks axes or run"};
  }
  specs_.push_back(std::move(spec));
  return *this;
}

const ScenarioSpec* CampaignRegistry::find(std::string_view name) const {
  for (const auto& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

ParamGrid CampaignRegistry::grid(const ScenarioSpec& spec, const Scale& scale,
                                 const std::map<std::string, std::string>& overrides) {
  std::vector<ParamAxis> axes = spec.axes(scale);
  for (const auto& [name, csv] : overrides) {
    bool found = false;
    for (auto& axis : axes) {
      if (axis.name() != name) continue;
      axis = axis.parse_override(csv);
      found = true;
      break;
    }
    if (!found) {
      std::string axis_list;
      for (const auto& axis : axes) {
        axis_list += (axis_list.empty() ? "" : ", ") + axis.name();
      }
      throw std::invalid_argument{"scenario '" + spec.name + "' has no axis '" + name +
                                  "' (axes: " + (axis_list.empty() ? "none" : axis_list) + ")"};
    }
  }
  return ParamGrid{std::move(axes)};
}

ResultTable CampaignRegistry::run(const ScenarioSpec& spec, const RunOptions& options) const {
  if (options.fault_plan && !spec.takes_fault_plan) {
    throw std::invalid_argument{"scenario '" + spec.name +
                                "' takes no fault plan; --fault-plan would be ignored"};
  }
  const ReplicationRunner& runner = options.runner != nullptr ? *options.runner
                                                              : default_runner();
  PaperContext ctx;
  if (spec.needs_calibration) {
    ctx = make_context(options.scale, options.seed, runner);
  } else {
    ctx.scale = options.scale;
    ctx.seed = options.seed;
  }
  ctx.runner = &runner;
  return spec.run(ScenarioRun{ctx, grid(spec, options.scale, options.axis_overrides),
                              options.fault_plan ? &*options.fault_plan : nullptr});
}

ResultTable CampaignRegistry::run(std::string_view name, const RunOptions& options) const {
  const ScenarioSpec* spec = find(name);
  if (spec == nullptr) {
    throw std::out_of_range{"CampaignRegistry: unknown scenario '" + std::string{name} + "'"};
  }
  return run(*spec, options);
}

ResultTable::Value mean_ci_cell(const MeasuredLatency& latency) {
  if (latency.latencies_ms.empty()) return ResultTable::Value{};
  return ResultTable::Value{latency.summary().mean_ci(0.90)};
}

CampaignRegistry& CampaignRegistry::global() {
  // Function-local, so it is complete before the first out-of-tree
  // registrar appends to it, whatever the static-initialisation order.
  static CampaignRegistry registry = [] {
    CampaignRegistry r;
    for (const auto family : {paper_scenarios, workload_scenarios, fault_scenarios}) {
      for (ScenarioSpec& spec : family()) r.add(std::move(spec));
    }
    return r;
  }();
  return registry;
}

}  // namespace sanperf::core
