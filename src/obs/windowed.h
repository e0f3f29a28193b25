#pragma once
// Windowed metrics: a lock-free ring of Histogram slots, rotated by time
// and merged on read into recent-window views (1m / 5m / 15m), so the
// Prometheus page (which the wire stats frame carries) can report what
// the server did *lately* instead of lifetime averages.
//
// The ring holds `slots` buckets of `slot_seconds` each; a record lands
// in the bucket for its own time slot, claiming (and resetting) the
// bucket when the ring has wrapped past its previous tenant. Recording
// is the same relaxed-atomic cost as a plain Histogram plus one acquire
// load of the slot stamp; rotation adds one CAS for the single claiming
// writer. Reads merge the live slots into one HistogramSnapshot.
//
// Consistency is the metrics layer's usual loose contract, plus one
// windowing caveat: a writer that stalls for a full ring period between
// checking the stamp and bumping the bucket can record into a recycled
// slot. With the default 15-minute ring that is a scheduler pathology,
// not a real workload — and the cost is one misattributed sample.

#include <cstdint>
#include <memory>

#include "obs/metrics.h"

namespace cegraph::obs {

/// Shape of a windowed ring: `slots` buckets of `slot_seconds` each.
/// The covered span is slot_seconds * slots; reads for longer windows
/// clamp to it. The default (1s x 900) serves 1m/5m/15m views at
/// one-second granularity; per-class scorecards use coarser slots
/// (10s x 90) to bound memory per class.
struct WindowSpec {
  int64_t slot_seconds = 1;
  size_t slots = 900;

  int64_t span_seconds() const {
    return slot_seconds * static_cast<int64_t>(slots);
  }
};

/// A Histogram whose contents age out: quantiles and rates are read over
/// a trailing window instead of process lifetime. All methods are safe
/// to call concurrently. The *At variants take the current time in
/// seconds explicitly so tests can drive rotation deterministically.
class WindowedHistogram {
 public:
  explicit WindowedHistogram(WindowSpec spec = {});

  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  void Record(double value) { RecordAt(value, NowSec()); }
  void RecordAt(double value, int64_t now_sec);

  /// Merged view of every slot younger than `window_seconds` (clamped to
  /// the ring span), the current partial slot included.
  HistogramSnapshot SnapshotWindow(int64_t window_seconds) const {
    return SnapshotWindowAt(window_seconds, NowSec());
  }
  HistogramSnapshot SnapshotWindowAt(int64_t window_seconds,
                                     int64_t now_sec) const;

  /// Samples per second over the window (count / window_seconds).
  double RatePerSec(int64_t window_seconds) const {
    return RatePerSecAt(window_seconds, NowSec());
  }
  double RatePerSecAt(int64_t window_seconds, int64_t now_sec) const;

  const WindowSpec& spec() const { return spec_; }

  /// Wall-clock seconds (UTC). One place, so every windowed series in
  /// the process rotates on the same clock.
  static int64_t NowSec();

 private:
  struct Slot {
    /// The absolute slot index (now_sec / slot_seconds) whose samples
    /// this bucket currently holds. kEmptySlot = never used; a value
    /// below kEmptySlot encodes "being reset toward index -(v)-2".
    std::atomic<int64_t> stamp{-1};
    Histogram hist;
  };
  static constexpr int64_t kEmptySlot = -1;

  WindowSpec spec_;
  std::unique_ptr<Slot[]> ring_;
};

}  // namespace cegraph::obs
