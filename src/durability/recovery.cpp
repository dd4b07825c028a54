#include "durability/recovery.hpp"

#include <sys/stat.h>

#include "core/reservation_scheduler.hpp"
#include "durability/snapshot.hpp"
#include "util/assert.hpp"
#include "util/flat_hash.hpp"

namespace reasched::durability {

void replay_wal(const std::string& dir, IReallocScheduler& target,
                RecoveryReport& report) {
  // Every multi-shard service of the older per-shard layout wrote a
  // wal-001.log; replaying wal-000.log alone would silently drop the
  // acknowledged records it holds.
  const std::string second = dir + "/wal-001.log";
  struct stat st {};
  if (::stat(second.c_str(), &st) == 0) {
    throw CorruptInput("wal: " + second +
                       " is a second log file; recovery replays only wal-000.log");
  }
  const std::string log = wal_path(dir);
  const WalReadResult wal = read_wal(log);
  if (wal.torn_tail) {
    report.torn_tail = true;
    truncate_wal(log, wal.valid_end);
  }
  // The snapshot may be *ahead* of the log's surviving prefix (snapshots
  // are fsynced; with sync_every == 0 the log tail can be lost to a power
  // cut). Replay then has nothing to do and the snapshot state stands.
  const std::uint64_t after_csn = report.snapshot_csn;
  // Ids whose replayed insert was rejected: their erases must be skipped,
  // exactly like the batch API's "delete of a rejected insert is moot".
  FlatHashSet<JobId> rejected_ids;
  for (const WalRecord& record : wal.records) {
    if (record.csn <= after_csn) continue;
    RS_CHECK(record.csn > report.last_csn, "recovery: replay stream not ascending");
    report.last_csn = record.csn;
    ++report.replayed;
    if (record.type == WalRecordType::kInsert) {
      try {
        target.insert(record.job, record.window);
      } catch (const InfeasibleError&) {
        // Deterministic re-run of a rejection the live process already
        // reported to its caller; the state is untouched, continue.
        rejected_ids.insert(record.job);
        ++report.rejected_replays;
        continue;
      }
      rejected_ids.erase(record.job);  // id may be reused after a rejection
    } else {
      if (rejected_ids.contains(record.job)) {
        rejected_ids.erase(record.job);
        ++report.rejected_replays;
        continue;
      }
      target.erase(record.job);
    }
  }
}

Recovery::Recovered Recovery::load(const DurabilityPolicy& policy,
                                   const SchedulerOptions& options) {
  Recovered out;
  out.report = RecoveryReport{};

  // Newest loadable snapshot wins; corrupt ones are skipped. Each attempt
  // needs a fresh target (load refuses a non-empty scheduler).
  for (const std::uint64_t csn : list_snapshots(policy.dir)) {
    auto candidate = std::make_unique<ReservationScheduler>(options);
    if (load_snapshot(snapshot_path(policy.dir, csn), *candidate)) {
      out.scheduler = std::move(candidate);
      out.report.snapshot_csn = csn;
      out.report.last_csn = csn;
      break;
    }
    ++out.report.snapshots_skipped;
  }
  if (!out.scheduler) out.scheduler = std::make_unique<ReservationScheduler>(options);
  replay_wal(policy.dir, *out.scheduler, out.report);
  return out;
}

}  // namespace reasched::durability
