#include "des/time.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace sanperf::des {

namespace {

[[noreturn]] void throw_out_of_range(const char* fn, double value, const char* unit) {
  char what[128];
  std::snprintf(what, sizeof what,
                "des::Duration::%s: %g %s is outside the int64 nanosecond range", fn, value,
                unit);
  throw std::out_of_range{what};
}

/// Rounds `value` (in `unit`, `ns_per_unit` nanoseconds each) to the nearest
/// nanosecond. A NaN or a count outside [-2^63, 2^63) throws: llround's
/// result is unspecified there (x86 gives INT64_MIN, a huge negative span).
/// The throw sits in its own function to keep this path short: it runs on
/// every conversion, several per simulated frame.
std::int64_t round_ns(double value, double ns_per_unit, const char* fn, const char* unit) {
  const double ns = value * ns_per_unit;
  if (!(ns >= -0x1p63 && ns < 0x1p63)) throw_out_of_range(fn, value, unit);
  return static_cast<std::int64_t>(std::llround(ns));
}

}  // namespace

Duration Duration::from_ms(double ms) { return Duration{round_ns(ms, 1e6, "from_ms", "ms")}; }

Duration Duration::from_seconds(double s) {
  return Duration{round_ns(s, 1e9, "from_seconds", "s")};
}

namespace {

std::string render_ns(std::int64_t ns) {
  char buf[64];
  const double a = static_cast<double>(ns);
  if (std::llabs(ns) < 10'000) {
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(ns));
  } else if (std::llabs(ns) < 10'000'000) {
    std::snprintf(buf, sizeof buf, "%.3fus", a / 1e3);
  } else if (std::llabs(ns) < 10'000'000'000LL) {
    std::snprintf(buf, sizeof buf, "%.3fms", a / 1e6);
  } else {
    std::snprintf(buf, sizeof buf, "%.3fs", a / 1e9);
  }
  return buf;
}

}  // namespace

std::string Duration::to_string() const { return render_ns(ns_); }
std::string TimePoint::to_string() const { return render_ns(ns_); }

}  // namespace sanperf::des
