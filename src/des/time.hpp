// Simulated-time types for the discrete-event kernel.
//
// Simulated time is kept as a signed 64-bit count of nanoseconds. Integer
// time makes event ordering exact and runs reproducible across platforms;
// the paper works at microsecond resolution (its clock had 1 us resolution,
// NTP sync within 50 us), so nanoseconds leave ample headroom.
#pragma once

#include <cstdint>
#include <compare>
#include <limits>
#include <string>

namespace sanperf::des {

/// A span of simulated time. Value-type, totally ordered, overflow-free for
/// any span this library produces (< 292 years).
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration nanos(std::int64_t ns) { return Duration{ns}; }
  [[nodiscard]] static constexpr Duration micros(std::int64_t us) { return Duration{us * 1000}; }
  [[nodiscard]] static constexpr Duration millis(std::int64_t ms) { return Duration{ms * 1'000'000}; }
  [[nodiscard]] static constexpr Duration seconds(std::int64_t s) { return Duration{s * 1'000'000'000}; }

  /// Converts from fractional milliseconds (the paper's natural unit),
  /// rounding to the nearest nanosecond. Throws std::out_of_range, naming
  /// the value and its unit, on NaN or a span int64 nanoseconds cannot hold.
  [[nodiscard]] static Duration from_ms(double ms);
  /// Converts from fractional seconds, rounding to the nearest nanosecond;
  /// throws like from_ms.
  [[nodiscard]] static Duration from_seconds(double s);

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double to_ms() const { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr double to_seconds() const { return static_cast<double>(ns_) / 1e9; }

  [[nodiscard]] static constexpr Duration zero() { return Duration{0}; }
  [[nodiscard]] static constexpr Duration max() {
    return Duration{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr auto operator<=>(const Duration&) const = default;

  constexpr Duration& operator+=(Duration other) { ns_ += other.ns_; return *this; }
  constexpr Duration& operator-=(Duration other) { ns_ -= other.ns_; return *this; }

  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.ns_ + b.ns_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.ns_ - b.ns_}; }
  friend constexpr Duration operator*(Duration a, std::int64_t k) { return Duration{a.ns_ * k}; }
  friend constexpr Duration operator*(std::int64_t k, Duration a) { return Duration{a.ns_ * k}; }

  /// Human-readable rendering with an adaptive unit (ns/us/ms/s).
  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit Duration(std::int64_t ns) : ns_{ns} {}
  std::int64_t ns_ = 0;
};

/// An absolute point on the simulated clock. Time zero is the start of the
/// simulation run.
class TimePoint {
 public:
  constexpr TimePoint() = default;

  [[nodiscard]] static constexpr TimePoint at(Duration since_start) {
    return TimePoint{since_start.ns()};
  }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr double to_ms() const { return static_cast<double>(ns_) / 1e6; }
  [[nodiscard]] constexpr Duration since_origin() const { return Duration::nanos(ns_); }

  [[nodiscard]] static constexpr TimePoint origin() { return TimePoint{0}; }
  [[nodiscard]] static constexpr TimePoint max() {
    return TimePoint{std::numeric_limits<std::int64_t>::max()};
  }

  constexpr auto operator<=>(const TimePoint&) const = default;

  friend constexpr TimePoint operator+(TimePoint t, Duration d) { return TimePoint{t.ns_ + d.ns()}; }
  friend constexpr TimePoint operator+(Duration d, TimePoint t) { return t + d; }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) { return TimePoint{t.ns_ - d.ns()}; }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) { return Duration::nanos(a.ns_ - b.ns_); }

  [[nodiscard]] std::string to_string() const;

 private:
  constexpr explicit TimePoint(std::int64_t ns) : ns_{ns} {}
  std::int64_t ns_ = 0;
};

}  // namespace sanperf::des
