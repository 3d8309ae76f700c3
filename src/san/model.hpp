// Stochastic Activity Network structure: places, activities, gates.
//
// The formalism follows Meyer/Movaghar/Sanders SANs as implemented by
// UltraSAN:
//   * places hold non-negative token counts (the marking);
//   * timed activities fire after a random delay drawn from a Distribution;
//   * instantaneous activities fire in zero time and have priority over
//     timed ones, selected by weight when several are enabled;
//   * an activity is enabled when every input arc place is non-empty and
//     every attached input gate predicate holds;
//   * firing consumes one token per input arc, runs the input gate
//     functions, picks one case at random (case probabilities), produces
//     one token per output arc of the case and runs its output gates.
//
// Gates carry an explicit sensitivity list (`reads`): the places whose
// marking their predicate inspects. The simulator uses these lists to
// re-evaluate only the activities affected by a firing, which keeps large
// composed models (hundreds of activities) fast.
//
// prepare() compiles the structure into the flat tables a firing reads:
// per place, the activities that depend on it; per activity, its input arcs
// as distinct (place, multiplicity) pairs; and a bit mask of the
// instantaneous activities. enabled() is the one enabling check, shared by
// the simulator and the analytic solver.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "san/distribution.hpp"

namespace sanperf::san {

using PlaceId = std::uint32_t;
using ActivityId = std::uint32_t;
using InputGateId = std::uint32_t;
using OutputGateId = std::uint32_t;

/// The places a marking change touched, each once, with its token count
/// before the first touch.
class MarkingJournal {
 public:
  struct Entry {
    PlaceId place;
    std::int32_t before;
  };

  /// Empties the journal and sizes it for `places` places.
  void reset(std::size_t places) {
    seen_.assign((places + 63) / 64, 0);
    entries_.clear();
  }
  /// Records `p` with count `before` unless it is already recorded.
  void note(PlaceId p, std::int32_t before) {
    std::uint64_t& word = seen_[p / 64];
    const std::uint64_t bit = std::uint64_t{1} << (p % 64);
    if ((word & bit) != 0) return;
    word |= bit;
    entries_.push_back({p, before});
  }
  /// The recorded places, in first-touch order.
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  /// Empties the journal in O(entries).
  void clear() {
    for (const Entry& e : entries_) seen_[e.place / 64] &= ~(std::uint64_t{1} << (e.place % 64));
    entries_.clear();
  }

 private:
  std::vector<std::uint64_t> seen_;  // bit p % 64 of word p / 64: place p recorded
  std::vector<Entry> entries_;
};

/// Token counts for every place; the state of a SAN.
///
/// While a MarkingJournal is attached (through a JournalScope), set() and
/// add() record each place they touch in it. Copies and moves carry the
/// tokens only: a new marking has no journal, and an assigned one keeps its
/// own, which records every place when one is attached. Equality compares
/// the tokens.
class Marking {
 public:
  Marking() = default;
  explicit Marking(std::size_t places) : tokens_(places, 0) {}
  Marking(const Marking& other) : tokens_{other.tokens_} {}
  Marking(Marking&& other) noexcept : tokens_{std::move(other.tokens_)} {}
  Marking& operator=(const Marking& other);
  Marking& operator=(Marking&& other);

  [[nodiscard]] std::int32_t get(PlaceId p) const { return tokens_[p]; }
  void set(PlaceId p, std::int32_t v) {
    if (v < 0) throw std::logic_error{"Marking: negative token count"};
    if (journal_ != nullptr) journal_->note(p, tokens_[p]);
    tokens_[p] = v;
  }
  void add(PlaceId p, std::int32_t delta) { set(p, tokens_[p] + delta); }

  [[nodiscard]] std::size_t size() const { return tokens_.size(); }
  [[nodiscard]] const std::vector<std::int32_t>& raw() const { return tokens_; }
  /// True while a JournalScope has a journal attached.
  [[nodiscard]] bool journaled() const { return journal_ != nullptr; }

  friend bool operator==(const Marking& a, const Marking& b) { return a.tokens_ == b.tokens_; }

  /// Attaches a journal to a marking for the scope's lifetime, and detaches
  /// it however the scope ends (a gate that throws included).
  class JournalScope {
   public:
    JournalScope(Marking& marking, MarkingJournal& journal) : marking_{&marking} {
      marking.journal_ = &journal;
    }
    ~JournalScope() { marking_->journal_ = nullptr; }
    JournalScope(const JournalScope&) = delete;
    JournalScope& operator=(const JournalScope&) = delete;

   private:
    Marking* marking_;
  };

 private:
  std::vector<std::int32_t> tokens_;
  MarkingJournal* journal_ = nullptr;
};

struct InputGate {
  std::string name;
  std::vector<PlaceId> reads;                       ///< places the predicate inspects
  std::function<bool(const Marking&)> enabled;      ///< enabling predicate
  std::function<void(Marking&)> fire;               ///< marking change on firing (may be null)
};

struct OutputGate {
  std::string name;
  std::function<void(Marking&)> fire;               ///< marking change on firing
};

struct Case {
  double probability = 1.0;
  std::vector<PlaceId> output_places;               ///< one token produced in each
  std::vector<OutputGateId> output_gates;
};

struct Activity {
  std::string name;
  bool timed = true;
  Distribution delay = Distribution::deterministic_ms(0);  ///< timed only
  double weight = 1.0;                                     ///< instantaneous selection weight
  std::vector<PlaceId> input_places;                       ///< input arcs (consume 1 each)
  std::vector<InputGateId> input_gates;
  std::vector<Case> cases;                                 ///< at least one after validate()
};

class SanModel;

/// Fluent helper for wiring one activity.
class ActivityRef {
 public:
  ActivityRef(SanModel& model, ActivityId id) : model_{&model}, id_{id} {}

  /// Adds an input arc from `p`.
  ActivityRef& in(PlaceId p);
  /// Attaches an input gate.
  ActivityRef& in_gate(InputGateId g);
  /// Starts a new case with the given probability. Before the first call an
  /// implicit case with probability 1 is in effect.
  ActivityRef& case_prob(double probability);
  /// Adds an output arc on the current case.
  ActivityRef& out(PlaceId p);
  /// Attaches an output gate to the current case.
  ActivityRef& out_gate(OutputGateId g);

  [[nodiscard]] ActivityId id() const { return id_; }

 private:
  SanModel* model_;
  ActivityId id_;
};

class SanModel {
 public:
  // --- construction -------------------------------------------------------
  /// Adds a place with an initial token count. Names must be unique.
  PlaceId place(const std::string& name, std::int32_t initial = 0);

  /// Adds an input gate. `reads` must list every place `enabled` inspects.
  InputGateId input_gate(std::string name, std::vector<PlaceId> reads,
                         std::function<bool(const Marking&)> enabled,
                         std::function<void(Marking&)> fire = nullptr);

  OutputGateId output_gate(std::string name, std::function<void(Marking&)> fire);

  /// Adds a timed activity with the given firing-time distribution.
  ActivityRef timed_activity(const std::string& name, Distribution delay);

  /// Adds an instantaneous activity (fires in zero time, weighted choice).
  ActivityRef instant_activity(const std::string& name, double weight = 1.0);

  // --- lookup --------------------------------------------------------------
  [[nodiscard]] PlaceId find_place(const std::string& name) const;
  [[nodiscard]] ActivityId find_activity(const std::string& name) const;
  [[nodiscard]] bool has_place(const std::string& name) const;

  [[nodiscard]] std::size_t place_count() const { return places_.size(); }
  [[nodiscard]] std::size_t activity_count() const { return activities_.size(); }
  [[nodiscard]] const std::string& place_name(PlaceId p) const { return places_[p].name; }
  [[nodiscard]] std::int32_t initial_tokens(PlaceId p) const { return places_[p].initial; }

  [[nodiscard]] const Activity& activity(ActivityId a) const { return activities_[a]; }
  [[nodiscard]] const InputGate& in_gate(InputGateId g) const { return input_gates_[g]; }
  [[nodiscard]] const OutputGate& out_gate(OutputGateId g) const { return output_gates_[g]; }

  /// The marking every simulation run starts from.
  [[nodiscard]] Marking initial_marking() const;

  // --- integrity -----------------------------------------------------------
  /// Checks structural invariants (case probabilities sum to 1, every
  /// activity has at least one effect, gate sensitivity lists are in range).
  /// Throws std::logic_error describing the first violation. Memoized: a
  /// repeat call on an unmutated model is O(1).
  void validate() const;

  /// Validates and eagerly builds the compiled tables (dependents, input
  /// arcs, instantaneous mask). Call this (from one thread) before sharing
  /// the model across concurrent simulators: after prepare(), all accessors
  /// on an unmutated model are read-only and thread-safe.
  void prepare() const;

  /// The accessors below call prepare() on first use after the last
  /// mutation, so a model that does not validate throws there; NOT
  /// thread-safe while the tables are cold.

  /// Activities whose enabling can change when `p` changes (input arcs and
  /// gate reads), in ascending id order.
  [[nodiscard]] const std::vector<ActivityId>& dependents(PlaceId p) const;

  /// True when `m` covers the multiplicity of every input place of `a` and
  /// every input gate predicate of `a` holds (arcs checked first, then the
  /// gates in attachment order).
  [[nodiscard]] bool enabled(ActivityId a, const Marking& m) const;

  /// Bit a % 64 of word a / 64 is set iff activity a is instantaneous.
  [[nodiscard]] const std::vector<std::uint64_t>& instantaneous_mask() const;

 private:
  friend class ActivityRef;

  struct PlaceInfo {
    std::string name;
    std::int32_t initial = 0;
  };

  /// One input place of an activity with its arc multiplicity.
  struct InputArc {
    PlaceId place;
    std::int32_t multiplicity;
  };

  /// Marks cached derived state stale after any structural mutation.
  void touch() {
    tables_dirty_ = true;
    validated_ = false;
  }

  Activity& mutable_activity(ActivityId a) {
    touch();
    return activities_[a];
  }

  void build_tables() const;

  std::vector<PlaceInfo> places_;
  std::vector<Activity> activities_;
  std::vector<InputGate> input_gates_;
  std::vector<OutputGate> output_gates_;
  // det-lint: allow(unordered-container) name->id lookup only, never iterated
  std::unordered_map<std::string, PlaceId> place_index_;
  // det-lint: allow(unordered-container) name->id lookup only, never iterated
  std::unordered_map<std::string, ActivityId> activity_index_;

  mutable bool tables_dirty_ = true;
  mutable bool validated_ = false;
  mutable std::vector<std::vector<ActivityId>> dependents_;
  mutable std::vector<InputArc> arcs_;            ///< every activity's arcs, by activity
  mutable std::vector<std::uint32_t> arc_begin_;  ///< activity a: [arc_begin_[a], arc_begin_[a+1])
  mutable std::vector<std::uint64_t> instantaneous_;
};

}  // namespace sanperf::san
