// Logical-state serialization of a ReservationScheduler — the payload of
// every snapshot file (DESIGN.md §9).
//
// What is saved is the scheduler's *ledgers*, in a canonical order that no
// hash-table layout can influence: the same logical state always yields
// the same bytes. Format v2 (fixed-width little-endian, durability/codec.hpp):
//
//   header   magic u64 | version u32 | options fingerprint u64 | n* u64 |
//            parked count u64 | audit cadence position u64
//   jobs     count u64, then per job in JobId order:
//            id u64 | original window | trimmed window | level u32 |
//            slot i64 | parked u8                      (window = 2 × i64)
//   levels   count u64, then per level:
//            intervals  count u64, then per interval in base order:
//                       base i64 | assigned u32, then per assigned slot in
//                       offset order: offset u32 | owner WindowKey
//            windows    count u64, then per window in WindowKey order:
//                       key | jobs u64 | claim cursor u64 |
//                       assigned_slots (count u64 | i64 each) |
//                       free_assigned  (count u64 | i64 each)
//            census     count u64 | u32 each | active bound u32
//   (WindowKey = start i64 | span_log u8)
//
// The two per-window slot sets are written in their dense (insertion)
// order, because that order is state: acquire_slot's pick reads it.
//
// What is deliberately NOT saved, because it is recomputable or inert:
//   * the occupancy index — rebuilt from each job's slot;
//   * each interval's lower-occupied flags and its assignment counters
//     (lower_count, assigned_count, per-class counts and mask) — derived
//     from the jobs and the assigned slots, exactly what the audit checks
//     them against;
//   * fulfillment caches — a pure function of the ledgers (Observation 7);
//     every interval reloads as kInvalid and recomputes on first touch;
//   * hash-table layout (capacities, probe positions, in-flight
//     migrations) — the loader inserts into the target's own tables, and
//     no decision depends on layout (the scramble differential in
//     tests/durability_test.cpp proves it);
//   * retired generations awaiting deferred trimming — memory bookkeeping
//     with no schedule effect;
//   * the audit engine's shadows — the loader escalates via mark_all(), so
//     the first post-recovery audit is a full sweep that reseeds them
//     (the same escalation path a fresh engine attach uses).
//
// Saving requires a quiescent scheduler: no partitioned-rebuild migration
// in flight. The snapshot trigger guarantees that by firing at the
// generation flip (src/durability/durable_scheduler.*).
#pragma once

#include <cstdint>

#include "durability/codec.hpp"

namespace reasched {

class ReservationScheduler;
struct SchedulerOptions;

namespace durability {

struct SchedulerPersist {
  /// Serializes `s` into `sink`. Precondition: !s.rebuild_in_flight().
  static void save(const ReservationScheduler& s, ByteSink& sink);

  /// Rebuilds the serialized state into `s`, which must be freshly
  /// constructed with the same SchedulerOptions the saved instance ran
  /// under (verified via fingerprint). Any malformed input — a count the
  /// payload cannot hold, unsorted or duplicate keys, an out-of-range slot
  /// or span — throws CorruptInput before it can size an allocation or
  /// index an array. A well-formed state that fails the full audit (a
  /// cross-ledger lie) throws CorruptInput too. On success the attached
  /// audit engine (if any) is escalated with mark_all().
  static void load(ReservationScheduler& s, ByteSource& source);

  /// Fingerprint of the options fields that shape serialized state and
  /// replay determinism. Stored in every snapshot and checked on load.
  [[nodiscard]] static std::uint64_t options_fingerprint(const SchedulerOptions& o);
};

}  // namespace durability
}  // namespace reasched
