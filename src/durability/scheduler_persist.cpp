#include "durability/scheduler_persist.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/reservation_scheduler.hpp"
#include "util/assert.hpp"
#include "util/bits.hpp"

namespace reasched::durability {

namespace {

constexpr std::uint64_t kStateMagic = 0x5253534E41503031ULL;  // "RSSNAP01"
constexpr std::uint32_t kStateVersion = 2;

// Smallest encoding of each counted item (the format in the header): a
// count larger than the remaining bytes divided by this is corrupt.
constexpr std::size_t kWindowKeyBytes = 8 + 1;
constexpr std::size_t kJobBytes = 8 + 16 + 16 + 4 + 8 + 1;
constexpr std::size_t kIntervalBytes = 8 + 4;
constexpr std::size_t kSlotEntryBytes = 4 + kWindowKeyBytes;
constexpr std::size_t kWindowBytes = kWindowKeyBytes + 8 + 8 + 8 + 8;
constexpr std::size_t kTimeBytes = 8;

void put_window_key(ByteSink& sink, const WindowKey& w) {
  sink.i64(w.start);
  sink.u8(w.span_log);
}

WindowKey get_window_key(ByteSource& source) {
  WindowKey w;
  w.start = source.i64();
  w.span_log = source.u8();
  return w;
}

/// Returns `count` (just read from `source`) if the rest of the payload can
/// hold that many items of at least `item_bytes` each; throws otherwise. So
/// no count, however hostile, sizes an allocation beyond the input.
std::uint64_t bounded(std::uint64_t count, const ByteSource& source,
                      std::size_t item_bytes) {
  if (count > source.remaining() / item_bytes) {
    throw CorruptInput("snapshot: count exceeds the payload");
  }
  return count;
}

/// A window the level table can classify: non-empty, no wider than the top
/// threshold (so span() cannot overflow), and aligned.
bool classifiable(const Window& w, const LevelTable& levels) {
  return w.start < w.end &&
         static_cast<u64>(w.end) - static_cast<u64>(w.start) <= levels.span_limit() &&
         w.aligned();
}

void put_slot_set(ByteSink& sink, const DenseHashSet<Time>& set) {
  sink.u64(set.size());
  set.for_each([&](Time t) { sink.i64(t); });
}

/// Reads a dense slot set in its saved order; every slot must be new and
/// lie inside `window`.
void get_slot_set(ByteSource& source, const Window& window, DenseHashSet<Time>& set) {
  const std::uint64_t count = bounded(source.u64(), source, kTimeBytes);
  for (std::uint64_t n = 0; n < count; ++n) {
    const Time t = source.i64();
    if (!window.contains(t) || !set.insert(t)) {
      throw CorruptInput("snapshot: window ledger slot outside its window or repeated");
    }
  }
}

}  // namespace

std::uint64_t SchedulerPersist::options_fingerprint(const SchedulerOptions& o) {
  // FNV-1a over the fields that shape placements and replay determinism.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(o.gamma);
  mix(o.trimming ? 1 : 0);
  mix(static_cast<std::uint64_t>(o.overflow));
  mix(static_cast<std::uint64_t>(o.placement));
  mix(o.rebuild_batch);
  const unsigned count = o.levels.level_count();
  mix(count);
  for (unsigned level = 0; level < count; ++level) {
    mix(o.levels.max_span(level));
    if (level >= 1) mix(o.levels.interval_size(level));
  }
  return h;
}

void SchedulerPersist::save(const ReservationScheduler& s, ByteSink& sink) {
  using RS = ReservationScheduler;
  RS_REQUIRE(s.migration_ == nullptr,
             "SchedulerPersist::save: rebuild migration in flight (snapshot "
             "only at quiescent points)");
  sink.u64(kStateMagic);
  sink.u32(kStateVersion);
  sink.u64(options_fingerprint(s.options_));
  sink.u64(s.n_star_);
  sink.u64(s.parked_count_);
  sink.u64(s.audit_request_index_);

  std::vector<std::pair<JobId, const RS::JobState*>> jobs;
  jobs.reserve(s.jobs_.size());
  s.jobs_.for_each(
      [&](const JobId& id, const RS::JobState& job) { jobs.emplace_back(id, &job); });
  std::sort(jobs.begin(), jobs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  sink.u64(jobs.size());
  for (const auto& [id, job] : jobs) {
    sink.u64(id.value);
    put_window(sink, job->original);
    put_window(sink, job->window);
    sink.u32(job->level);
    sink.i64(job->slot);
    sink.u8(job->parked ? 1 : 0);
  }

  sink.u64(s.levels_.size());
  for (const auto& ls : s.levels_) {
    std::vector<const RS::Interval*> intervals;
    intervals.reserve(ls.intervals.size());
    ls.intervals.for_each(
        [&](const Time&, const RS::Interval& interval) { intervals.push_back(&interval); });
    std::sort(intervals.begin(), intervals.end(),
              [](const RS::Interval* a, const RS::Interval* b) { return a->base < b->base; });
    sink.u64(intervals.size());
    for (const RS::Interval* interval : intervals) {
      sink.i64(interval->base);
      const std::size_t count_at = sink.size();
      sink.u32(0);  // patched below
      std::uint32_t assigned = 0;
      for (u64 i = 0; i < ls.interval_size; ++i) {
        const auto& slot = interval->slots[i];
        if (!slot.assigned) continue;
        sink.u32(static_cast<std::uint32_t>(i));
        put_window_key(sink, slot.owner);
        ++assigned;
      }
      sink.patch_u32(count_at, assigned);
    }

    std::vector<std::pair<WindowKey, const RS::ActiveWindow*>> windows;
    windows.reserve(ls.windows.size());
    ls.windows.for_each([&](const WindowKey& key, const RS::ActiveWindow& window) {
      windows.emplace_back(key, &window);
    });
    std::sort(windows.begin(), windows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    sink.u64(windows.size());
    for (const auto& [key, window] : windows) {
      put_window_key(sink, key);
      sink.u64(window->jobs);
      sink.u64(window->claim_cursor);
      put_slot_set(sink, window->assigned_slots);
      put_slot_set(sink, window->free_assigned);
    }

    sink.u64(ls.active_per_class.size());
    for (const std::uint32_t census : ls.active_per_class) sink.u32(census);
    sink.u32(ls.active_bound);
  }
}

void SchedulerPersist::load(ReservationScheduler& s, ByteSource& source) {
  using RS = ReservationScheduler;
  RS_REQUIRE(s.jobs_.empty() && s.migration_ == nullptr && s.retiring_.empty(),
             "SchedulerPersist::load: target must be freshly constructed");
  if (source.u64() != kStateMagic) throw CorruptInput("snapshot: bad state magic");
  if (source.u32() != kStateVersion) {
    throw CorruptInput("snapshot: unsupported state version");
  }
  if (source.u64() != options_fingerprint(s.options_)) {
    throw CorruptInput(
        "snapshot: scheduler options mismatch (saved under a different "
        "configuration)");
  }
  s.n_star_ = source.u64();
  s.parked_count_ = source.u64();
  s.audit_request_index_ = source.u64();

  // Jobs in strictly increasing id order, and the occupancy index rebuilt
  // from their slots.
  const LevelTable& table = s.options_.levels;
  const std::uint64_t job_count = bounded(source.u64(), source, kJobBytes);
  s.jobs_.reserve(static_cast<std::size_t>(job_count));
  JobId previous_id{};
  std::uint64_t parked = 0;
  for (std::uint64_t n = 0; n < job_count; ++n) {
    const JobId id{source.u64()};
    RS::JobState job;
    job.original = get_window(source);
    job.window = get_window(source);
    job.level = source.u32();
    job.slot = source.i64();
    job.parked = source.u8() != 0;
    if (n > 0 && !(previous_id < id)) {
      throw CorruptInput("snapshot: job ids unsorted or repeated");
    }
    if (!classifiable(job.original, table) || !classifiable(job.window, table) ||
        !job.original.contains(job.window) ||
        job.level != table.level_of(static_cast<u64>(job.window.span()))) {
      throw CorruptInput("snapshot: job window or level out of range");
    }
    if (!job.window.contains(job.slot)) {
      throw CorruptInput("snapshot: job slot outside its window");
    }
    if (s.occ_.occupied(job.slot)) throw CorruptInput("snapshot: two jobs on one slot");
    s.jobs_[id] = job;
    s.occ_.place(job.slot, id);
    if (job.parked) ++parked;
    previous_id = id;
  }
  if (parked != s.parked_count_) {
    throw CorruptInput("snapshot: parked count disagrees with the job table");
  }

  if (source.u64() != s.levels_.size()) {
    throw CorruptInput("snapshot: level-count mismatch");
  }
  for (unsigned level = 0; level < s.levels_.size(); ++level) {
    auto& ls = s.levels_[level];
    // Only levels with intervals hold windows; a key must name one of the
    // level's span classes (class_of indexes fixed arrays) and an aligned
    // window whose end is representable.
    const auto valid_key = [&ls](const WindowKey& w) {
      return ls.interval_size > 0 && w.span_log >= ls.min_span_log &&
             w.span_log <= ls.max_span_log &&
             align_down(w.start, w.span()) == w.start &&
             w.start <= std::numeric_limits<Time>::max() - static_cast<Time>(w.span());
    };

    // Intervals in strictly increasing base order. get_or_create_interval
    // derives the lower-occupied flags from the jobs loaded above; the
    // assignment counters follow from the assigned slots.
    const std::uint64_t interval_count = bounded(source.u64(), source, kIntervalBytes);
    if (interval_count > 0 && ls.interval_size == 0) {
      throw CorruptInput("snapshot: interval on a level without intervals");
    }
    Time previous_base = 0;
    for (std::uint64_t n = 0; n < interval_count; ++n) {
      const Time base = source.i64();
      if (n > 0 && base <= previous_base) {
        throw CorruptInput("snapshot: interval bases unsorted or repeated");
      }
      if (align_down(base, ls.interval_size) != base ||
          base > std::numeric_limits<Time>::max() - static_cast<Time>(ls.interval_size)) {
        throw CorruptInput("snapshot: interval base out of range");
      }
      previous_base = base;
      RS::Interval& interval = s.get_or_create_interval(level, base);
      const std::uint64_t assigned = bounded(source.u32(), source, kSlotEntryBytes);
      std::uint32_t previous_offset = 0;
      for (std::uint64_t e = 0; e < assigned; ++e) {
        const std::uint32_t offset = source.u32();
        const WindowKey owner = get_window_key(source);
        if (offset >= ls.interval_size || (e > 0 && offset <= previous_offset)) {
          throw CorruptInput("snapshot: slot offsets out of range, unsorted or repeated");
        }
        previous_offset = offset;
        if (!valid_key(owner)) throw CorruptInput("snapshot: slot owner out of range");
        auto& slot = interval.slots[offset];
        if (slot.lower_occupied) {
          throw CorruptInput("snapshot: assigned slot is lower-occupied");
        }
        slot.assigned = true;
        slot.owner = owner;
        const unsigned cls = ls.class_of(owner);
        ++interval.assigned_by_class[cls];
        interval.assigned_class_mask |= u64{1} << cls;
        ++interval.assigned_count;
      }
    }

    // Windows in strictly increasing key order, ledgers in dense order.
    const std::uint64_t window_count = bounded(source.u64(), source, kWindowBytes);
    WindowKey previous_key;
    for (std::uint64_t n = 0; n < window_count; ++n) {
      const WindowKey key = get_window_key(source);
      if (n > 0 && !(previous_key < key)) {
        throw CorruptInput("snapshot: window keys unsorted or repeated");
      }
      if (!valid_key(key)) throw CorruptInput("snapshot: window key out of range");
      previous_key = key;
      RS::ActiveWindow& window = ls.windows[key];
      if (s.options_.legacy_rehash) {
        window.assigned_slots.set_legacy_rehash(true);
        window.free_assigned.set_legacy_rehash(true);
      }
      window.jobs = source.u64();
      window.claim_cursor = source.u64();
      get_slot_set(source, key.window(), window.assigned_slots);
      get_slot_set(source, key.window(), window.free_assigned);
      window.free_assigned.for_each([&window](Time t) {
        if (!window.assigned_slots.contains(t)) {
          throw CorruptInput("snapshot: free ledger slot not assigned");
        }
      });
    }

    if (source.u64() != ls.active_per_class.size()) {
      throw CorruptInput("snapshot: census size mismatch");
    }
    for (auto& census : ls.active_per_class) census = source.u32();
    ls.active_bound = source.u32();
    if (ls.active_bound > ls.active_per_class.size()) {
      throw CorruptInput("snapshot: active bound out of range");
    }
  }
  if (!source.exhausted()) throw CorruptInput("snapshot: trailing bytes");

  // The checks above cover structure (counts, order, ranges); cross-ledger
  // lies — a window's job count, a ledger slot no interval backs — show
  // only against the rest of the state, so the loaded state must pass the
  // full audit.
  try {
    s.audit();
  } catch (const InternalError& violation) {
    throw CorruptInput(std::string("snapshot: loaded state fails the audit: ") +
                       violation.what());
  }

  // Wholesale state change under an attached engine: escalate so the next
  // incremental audit runs one full sweep and reseeds the dirty-tracking
  // shadows from the recovered ledgers (the same path a fresh attach or an
  // emergency rebuild takes).
  if (s.audit_engine_) s.audit_engine_->mark_all();
}

}  // namespace reasched::durability
