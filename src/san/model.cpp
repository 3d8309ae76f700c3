#include "san/model.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace sanperf::san {

ActivityRef& ActivityRef::in(PlaceId p) {
  model_->mutable_activity(id_).input_places.push_back(p);
  return *this;
}

ActivityRef& ActivityRef::in_gate(InputGateId g) {
  model_->mutable_activity(id_).input_gates.push_back(g);
  return *this;
}

ActivityRef& ActivityRef::case_prob(double probability) {
  auto& act = model_->mutable_activity(id_);
  if (act.cases.size() == 1 && act.cases.front().output_places.empty() &&
      act.cases.front().output_gates.empty()) {
    // The implicit default case is still empty: repurpose it.
    act.cases.front().probability = probability;
  } else {
    act.cases.push_back(Case{probability, {}, {}});
  }
  return *this;
}

ActivityRef& ActivityRef::out(PlaceId p) {
  model_->mutable_activity(id_).cases.back().output_places.push_back(p);
  return *this;
}

ActivityRef& ActivityRef::out_gate(OutputGateId g) {
  model_->mutable_activity(id_).cases.back().output_gates.push_back(g);
  return *this;
}

Marking& Marking::operator=(const Marking& other) {
  if (this == &other) return *this;
  if (journal_ == nullptr) {
    tokens_ = other.tokens_;
    return *this;
  }
  if (other.size() != size()) {
    throw std::logic_error{"Marking: a journaled marking cannot change its place count"};
  }
  for (std::size_t p = 0; p < size(); ++p) set(static_cast<PlaceId>(p), other.tokens_[p]);
  return *this;
}

Marking& Marking::operator=(Marking&& other) {
  if (journal_ != nullptr) return *this = std::as_const(other);
  tokens_ = std::move(other.tokens_);
  return *this;
}

PlaceId SanModel::place(const std::string& name, std::int32_t initial) {
  if (place_index_.contains(name)) throw std::logic_error{"SanModel: duplicate place " + name};
  if (initial < 0) throw std::logic_error{"SanModel: negative initial tokens in " + name};
  const auto id = static_cast<PlaceId>(places_.size());
  places_.push_back({name, initial});
  place_index_.emplace(name, id);
  touch();
  return id;
}

InputGateId SanModel::input_gate(std::string name, std::vector<PlaceId> reads,
                                 std::function<bool(const Marking&)> enabled,
                                 std::function<void(Marking&)> fire) {
  if (!enabled) throw std::logic_error{"SanModel: input gate without predicate: " + name};
  const auto id = static_cast<InputGateId>(input_gates_.size());
  input_gates_.push_back({std::move(name), std::move(reads), std::move(enabled), std::move(fire)});
  touch();
  return id;
}

OutputGateId SanModel::output_gate(std::string name, std::function<void(Marking&)> fire) {
  if (!fire) throw std::logic_error{"SanModel: output gate without function: " + name};
  const auto id = static_cast<OutputGateId>(output_gates_.size());
  output_gates_.push_back({std::move(name), std::move(fire)});
  return id;
}

ActivityRef SanModel::timed_activity(const std::string& name, Distribution delay) {
  if (activity_index_.contains(name)) {
    throw std::logic_error{"SanModel: duplicate activity " + name};
  }
  const auto id = static_cast<ActivityId>(activities_.size());
  Activity act;
  act.name = name;
  act.timed = true;
  act.delay = std::move(delay);
  act.cases.push_back(Case{});
  activities_.push_back(std::move(act));
  activity_index_.emplace(name, id);
  touch();
  return ActivityRef{*this, id};
}

ActivityRef SanModel::instant_activity(const std::string& name, double weight) {
  if (activity_index_.contains(name)) {
    throw std::logic_error{"SanModel: duplicate activity " + name};
  }
  if (!std::isfinite(weight)) throw std::logic_error{"SanModel: non-finite weight on " + name};
  if (!(weight > 0)) throw std::logic_error{"SanModel: non-positive weight on " + name};
  const auto id = static_cast<ActivityId>(activities_.size());
  Activity act;
  act.name = name;
  act.timed = false;
  act.weight = weight;
  act.cases.push_back(Case{});
  activities_.push_back(std::move(act));
  activity_index_.emplace(name, id);
  touch();
  return ActivityRef{*this, id};
}

PlaceId SanModel::find_place(const std::string& name) const {
  const auto it = place_index_.find(name);
  if (it == place_index_.end()) throw std::out_of_range{"SanModel: no place " + name};
  return it->second;
}

bool SanModel::has_place(const std::string& name) const { return place_index_.contains(name); }

ActivityId SanModel::find_activity(const std::string& name) const {
  const auto it = activity_index_.find(name);
  if (it == activity_index_.end()) throw std::out_of_range{"SanModel: no activity " + name};
  return it->second;
}

Marking SanModel::initial_marking() const {
  Marking m{places_.size()};
  for (std::size_t p = 0; p < places_.size(); ++p) {
    m.set(static_cast<PlaceId>(p), places_[p].initial);
  }
  return m;
}

void SanModel::validate() const {
  if (validated_) return;
  for (const Activity& act : activities_) {
    if (act.cases.empty()) throw std::logic_error{"SanModel: activity without cases: " + act.name};
    double total = 0;
    for (const Case& c : act.cases) {
      if (!(c.probability >= 0)) {
        throw std::logic_error{"SanModel: negative case probability in " + act.name};
      }
      total += c.probability;
      for (const PlaceId p : c.output_places) {
        if (p >= places_.size()) throw std::logic_error{"SanModel: bad output place in " + act.name};
      }
      for (const OutputGateId g : c.output_gates) {
        if (g >= output_gates_.size()) {
          throw std::logic_error{"SanModel: bad output gate in " + act.name};
        }
      }
    }
    if (std::fabs(total - 1.0) > 1e-9) {
      throw std::logic_error{"SanModel: case probabilities of " + act.name +
                             " sum to " + std::to_string(total)};
    }
    if (act.input_places.empty() && act.input_gates.empty()) {
      throw std::logic_error{"SanModel: activity with no enabling condition: " + act.name};
    }
    for (const PlaceId p : act.input_places) {
      if (p >= places_.size()) throw std::logic_error{"SanModel: bad input place in " + act.name};
    }
    for (const InputGateId g : act.input_gates) {
      if (g >= input_gates_.size()) throw std::logic_error{"SanModel: bad input gate in " + act.name};
    }
  }
  for (const InputGate& g : input_gates_) {
    for (const PlaceId p : g.reads) {
      if (p >= places_.size()) throw std::logic_error{"SanModel: bad read in gate " + g.name};
    }
  }
  validated_ = true;
}

void SanModel::prepare() const {
  validate();
  if (tables_dirty_) build_tables();
}

void SanModel::build_tables() const {
  // Runs after validate(): every place and gate id below is in range.
  dependents_.assign(places_.size(), {});
  arcs_.clear();
  arc_begin_.assign(1, 0);
  instantaneous_.assign((activities_.size() + 63) / 64, 0);
  for (std::size_t a = 0; a < activities_.size(); ++a) {
    const Activity& act = activities_[a];
    auto note = [&](PlaceId q) {
      auto& vec = dependents_[q];
      if (vec.empty() || vec.back() != static_cast<ActivityId>(a)) {
        vec.push_back(static_cast<ActivityId>(a));
      }
    };
    for (const PlaceId q : act.input_places) {
      note(q);
      // Repeated arcs from one place fold into one entry; places keep the
      // order of their first arc.
      const auto first = arcs_.begin() + arc_begin_.back();
      const auto it = std::find_if(first, arcs_.end(),
                                   [q](const InputArc& arc) { return arc.place == q; });
      if (it == arcs_.end()) {
        arcs_.push_back({q, 1});
      } else {
        ++it->multiplicity;
      }
    }
    arc_begin_.push_back(static_cast<std::uint32_t>(arcs_.size()));
    for (const InputGateId g : act.input_gates) {
      for (const PlaceId q : input_gates_[g].reads) note(q);
    }
    if (!act.timed) instantaneous_[a / 64] |= std::uint64_t{1} << (a % 64);
  }
  // Deduplicate (an activity may touch a place through several routes).
  for (auto& vec : dependents_) {
    std::sort(vec.begin(), vec.end());
    vec.erase(std::unique(vec.begin(), vec.end()), vec.end());
  }
  tables_dirty_ = false;
}

const std::vector<ActivityId>& SanModel::dependents(PlaceId p) const {
  if (tables_dirty_) prepare();
  return dependents_[p];
}

bool SanModel::enabled(ActivityId a, const Marking& m) const {
  if (tables_dirty_) prepare();
  for (std::uint32_t i = arc_begin_[a]; i < arc_begin_[a + 1]; ++i) {
    if (m.get(arcs_[i].place) < arcs_[i].multiplicity) return false;
  }
  for (const InputGateId g : activities_[a].input_gates) {
    if (!input_gates_[g].enabled(m)) return false;
  }
  return true;
}

const std::vector<std::uint64_t>& SanModel::instantaneous_mask() const {
  if (tables_dirty_) prepare();
  return instantaneous_;
}

}  // namespace sanperf::san
