// Unit tests for the stable-storage write-ahead log
// (consensus/durable_log.hpp): serialized append charging and watermark
// compaction.
#include <gtest/gtest.h>

#include <vector>

#include "consensus/durable_log.hpp"

namespace sanperf::consensus {
namespace {

// --- DurableLog --------------------------------------------------------------

TEST(DurableLogTest, ZeroLatencyAppendsCompleteInline) {
  DurableLog log;
  log.configure({.enabled = true, .append_latency_ms = 0.0});
  EXPECT_TRUE(log.enabled());
  EXPECT_DOUBLE_EQ(log.charge_ms(5.0), 0.0);
  EXPECT_DOUBLE_EQ(log.charge_ms(5.0), 0.0);
  EXPECT_EQ(log.stats().appends, 2u);
}

TEST(DurableLogTest, AppendsSerializeOnTheDeviceTail) {
  DurableLog log;
  log.configure({.enabled = true, .append_latency_ms = 2.0});
  // First append at t = 10 completes at 12; a second one issued at the same
  // instant queues behind it (completes at 14), like writes on one device.
  EXPECT_DOUBLE_EQ(log.charge_ms(10.0), 2.0);
  EXPECT_DOUBLE_EQ(log.charge_ms(10.0), 4.0);
  // An append issued after the tail drained pays only its own latency.
  EXPECT_DOUBLE_EQ(log.charge_ms(100.0), 2.0);
  EXPECT_EQ(log.stats().appends, 3u);
}

TEST(DurableLogTest, StateFoldsLastWriteWins) {
  DurableLog log;
  log.configure({.enabled = true});
  auto& rec = log.state(7);
  rec.started = true;
  rec.estimate = {42};
  rec.round = 1;
  log.state(7).round = 3;  // same instance: later write wins
  EXPECT_EQ(log.entries().size(), 1u);
  EXPECT_EQ(log.entries().at(7).round, 3);
  EXPECT_EQ(log.entries().at(7).estimate, (std::vector<std::int64_t>{42}));
}

TEST(DurableLogTest, CompactTruncatesBelowTheWatermarkOnly) {
  DurableLog log;
  log.configure({.enabled = true});
  for (std::int32_t cid = 0; cid < 6; ++cid) log.state(cid).started = true;
  log.compact(4);
  EXPECT_EQ(log.entries().size(), 2u);
  EXPECT_EQ(log.entries().begin()->first, 4);
  EXPECT_EQ(log.stats().truncated, 4u);
  EXPECT_EQ(log.stats().compactions, 1u);
  // A no-op compaction (nothing below the floor) is not counted.
  log.compact(4);
  EXPECT_EQ(log.stats().compactions, 1u);
}

}  // namespace
}  // namespace sanperf::consensus
