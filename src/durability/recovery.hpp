// Crash recovery: newest valid snapshot + WAL-suffix replay (DESIGN.md §9).
//
// Recovery never trusts any single artifact. Snapshots are tried newest
// first and any corrupt one is skipped (falling back to an older snapshot,
// or to an empty scheduler with full-log replay). The WAL's torn tail is
// truncated at the last valid checksum. Replay pushes the surviving record
// suffix through the scheduler's *normal* request path — the same
// determinism the partitioned-rebuild differentials rest on makes the
// recovered instance byte-identical to an uninterrupted twin that served
// exactly the surviving prefix (tests/crash_recovery_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/scheduler_options.hpp"
#include "durability/wal.hpp"
#include "schedule/scheduler_interface.hpp"

namespace reasched {

class ReservationScheduler;

namespace durability {

/// What Recovery::load found and did. Every count is observable by tests
/// (e.g. "the corrupt snapshot was skipped": snapshots_skipped == 1).
struct RecoveryReport {
  /// CSN of the snapshot the state was seeded from; 0 = started empty.
  std::uint64_t snapshot_csn = 0;
  /// Highest CSN folded into the recovered state (snapshot or replay).
  std::uint64_t last_csn = 0;
  /// WAL records replayed through the request path.
  std::uint64_t replayed = 0;
  /// Replayed inserts rejected (InfeasibleError) — deterministic re-runs
  /// of rejections the live process already reported — plus erases of
  /// those same jobs, skipped.
  std::uint64_t rejected_replays = 0;
  /// Committed snapshots that failed to load and were skipped.
  std::uint64_t snapshots_skipped = 0;
  /// The WAL ended in a torn/corrupt frame (it has been truncated).
  bool torn_tail = false;
  /// No durable state existed at all (fresh directory).
  [[nodiscard]] bool cold_start() const noexcept {
    return snapshot_csn == 0 && replayed == 0;
  }
};

struct Recovery {
  struct Recovered {
    std::unique_ptr<ReservationScheduler> scheduler;
    RecoveryReport report;
  };

  /// Recovers a single-machine ReservationScheduler from `policy.dir`:
  /// newest loadable snapshot (corrupt ones skipped) + replay of every WAL
  /// record with csn > snapshot_csn; the torn tail, if any, is truncated
  /// so a writer can append. A missing directory or empty log recovers an
  /// empty scheduler. `options` must match the options the durable state
  /// was written under (fingerprint-checked per snapshot).
  [[nodiscard]] static Recovered load(const DurabilityPolicy& policy,
                                      const SchedulerOptions& options);
};

/// The one recovery routine of every durable front end (DurableScheduler
/// through Recovery::load, and the sharded service): reads `dir`'s log,
/// truncates its torn tail so a writer can append, and replays every
/// record with csn > report.snapshot_csn through `target`'s normal request
/// path, updating `report` (torn_tail / replayed / rejected_replays /
/// last_csn). Inserts that throw InfeasibleError are counted as rejected;
/// erases of jobs whose insert was rejected are skipped — mirroring the
/// batch API's rejection semantics, which is what the live process
/// reported to its caller. Throws CorruptInput, naming the file, when
/// `dir` also holds a wal-001.log: an older multi-file layout whose
/// acknowledged records this routine would never replay.
void replay_wal(const std::string& dir, IReallocScheduler& target,
                RecoveryReport& report);

}  // namespace durability
}  // namespace reasched
