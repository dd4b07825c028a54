// Durability tier (DESIGN.md §9): WAL framing + checksums, snapshot
// round-trips, recovery differentials, graceful degradation on corrupt or
// missing durable state, and the audit engine's post-recovery reseed.
// Kill-at-random-point process crashes live in crash_recovery_test.cpp;
// this suite covers everything reachable without dying.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/reservation_scheduler.hpp"
#include "durability/durable_scheduler.hpp"
#include "durability/recovery.hpp"
#include "durability/scheduler_persist.hpp"
#include "durability/snapshot.hpp"
#include "durability/wal.hpp"
#include "schedule/validator.hpp"
#include "service/sharded_scheduler.hpp"
#include "sim/driver.hpp"
#include "util/crc32c.hpp"
#include "workload/churn.hpp"
#include "workload/trace_io.hpp"

namespace reasched {
namespace {

using durability::DurabilityPolicy;
using durability::DurableScheduler;
using durability::Recovery;
using durability::WalReadResult;
using durability::WalRecord;
using durability::WalWriter;

// Unique scratch directory per test, removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/reasched-dur-XXXXXX";
    char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made;
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path + "'";
    std::system(cmd.c_str());  // NOLINT: test scratch cleanup
  }
};

std::vector<Request> churn_trace(std::uint64_t seed, std::size_t requests,
                                 std::size_t target = 512) {
  ChurnParams params;
  params.seed = seed;
  params.requests = requests;
  params.target_active = target;
  params.min_span = 64;
  params.max_span = 4096;
  params.aligned = true;
  params.placement = WindowPlacement::kNestedHotspots;
  return make_churn_trace(params);
}

SchedulerOptions base_options() {
  SchedulerOptions options;
  options.overflow = OverflowPolicy::kBestEffort;
  options.rebuild_batch = 32;  // migrations genuinely span requests
  return options;
}

RequestStats serve(IReallocScheduler& s, const Request& r) {
  return r.kind == RequestKind::kInsert ? s.insert(r.job, r.window) : s.erase(r.job);
}

void expect_identical_schedules(const Schedule& sa, const Schedule& sb,
                                const char* where) {
  ASSERT_EQ(sa.size(), sb.size()) << where;
  for (const auto& [id, placement] : sa.assignments()) {
    const auto other = sb.find(id);
    ASSERT_TRUE(other.has_value()) << where << ": job " << id.value;
    EXPECT_EQ(placement.machine, other->machine) << where << ": job " << id.value;
    EXPECT_EQ(placement.slot, other->slot) << where << ": job " << id.value;
  }
}

void expect_same_stats(const RequestStats& a, const RequestStats& b, std::size_t i) {
  EXPECT_EQ(a.reallocations, b.reallocations) << "request " << i;
  EXPECT_EQ(a.migrations, b.migrations) << "request " << i;
  EXPECT_EQ(a.levels_touched, b.levels_touched) << "request " << i;
  EXPECT_EQ(a.degraded, b.degraded) << "request " << i;
  EXPECT_EQ(a.rebuilt, b.rebuilt) << "request " << i;
}

/// The snapshot payload of `s` (SchedulerPersist::save).
std::vector<std::byte> state_bytes(const ReservationScheduler& s) {
  durability::ByteSink sink;
  durability::SchedulerPersist::save(s, sink);
  return sink.bytes();
}

/// A fresh scheduler loaded from a snapshot payload.
std::unique_ptr<ReservationScheduler> load_state(const SchedulerOptions& options,
                                                 const std::vector<std::byte>& bytes) {
  auto s = std::make_unique<ReservationScheduler>(options);
  durability::ByteSource source(bytes);
  durability::SchedulerPersist::load(*s, source);
  return s;
}

// Byte offsets fixed by snapshot format v2 (durability/scheduler_persist.hpp):
// the 44-byte header, then the job count and 53-byte job records.
constexpr std::size_t kVersionAt = 8;
constexpr std::size_t kParkedAt = 28;
constexpr std::size_t kJobCountAt = 44;
constexpr std::size_t job_at(std::uint64_t k) { return 52 + k * 53; }
constexpr std::size_t kJobWindowEnd = 32;  // within a job record
constexpr std::size_t kJobLevel = 40;
constexpr std::size_t kJobSlot = 44;

std::uint64_t get_le(const std::vector<std::byte>& bytes, std::size_t at, int width) {
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= std::to_integer<std::uint64_t>(bytes[at + static_cast<std::size_t>(i)]) << (8 * i);
  }
  return v;
}

/// Where one saved window record sits in a v2 payload: its `jobs` field
/// and the count fields of its two dense slot sets (each count is followed
/// by that many i64 slots).
struct SavedWindow {
  Window window;
  std::size_t jobs_at = 0;
  std::size_t assigned_at = 0;
  std::size_t free_at = 0;
};

/// Walks every level's intervals, windows and census in a v2 payload whose
/// level count sits at `levels_at`, returning each window record.
std::vector<SavedWindow> saved_windows(const std::vector<std::byte>& b,
                                       std::size_t levels_at) {
  std::vector<SavedWindow> out;
  const std::uint64_t levels = get_le(b, levels_at, 8);
  std::size_t at = levels_at + 8;
  for (std::uint64_t level = 0; level < levels; ++level) {
    const std::uint64_t intervals = get_le(b, at, 8);
    at += 8;
    for (std::uint64_t n = 0; n < intervals; ++n) at += 12 + get_le(b, at + 8, 4) * 13;
    const std::uint64_t windows = get_le(b, at, 8);
    at += 8;
    for (std::uint64_t n = 0; n < windows; ++n) {
      SavedWindow w;
      WindowKey key;
      key.start = static_cast<Time>(get_le(b, at, 8));
      key.span_log = static_cast<std::uint8_t>(get_le(b, at + 8, 1));
      w.window = key.window();
      w.jobs_at = at + 9;
      w.assigned_at = at + 25;
      w.free_at = w.assigned_at + 8 + get_le(b, w.assigned_at, 8) * 8;
      at = w.free_at + 8 + get_le(b, w.free_at, 8) * 8;
      out.push_back(w);
    }
    at += 8 + get_le(b, at, 8) * 4 + 4;  // census, active bound
  }
  EXPECT_EQ(at, b.size());
  return out;
}

void set_le(std::vector<std::byte>& bytes, std::size_t at, int width, std::uint64_t v) {
  for (int i = 0; i < width; ++i) {
    bytes[at + static_cast<std::size_t>(i)] = static_cast<std::byte>(v >> (8 * i));
  }
}

/// Commits `payload` as the snapshot file `path` with a freshly computed
/// length/CRC trailer, so a malformed payload gets past the checksum and
/// reaches the decoder.
void write_payload(const std::string& path, const std::vector<std::byte>& payload) {
  durability::ByteSink trailer;
  trailer.u64(payload.size());
  trailer.u32(crc32c(payload.data(), payload.size()));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  out.write(reinterpret_cast<const char*>(trailer.bytes().data()),
            static_cast<std::streamsize>(trailer.size()));
}

/// The payload of the snapshot file `path` (the file minus its trailer).
std::vector<std::byte> read_payload(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<char> file((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_GE(file.size(), 12u);
  std::vector<std::byte> payload(file.size() - 12);
  std::memcpy(payload.data(), file.data(), payload.size());
  return payload;
}

// ------------------------------------------------------------------ crc32c

TEST(Crc32c, KnownVector) {
  // The canonical CRC32C check value (RFC 3720 appendix B.4).
  const char digits[] = "123456789";
  EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32c(data.data(), data.size());
  std::uint32_t chunked = 0;
  for (std::size_t split = 1; split < data.size(); ++split) {
    chunked = crc32c_update(0, data.data(), split);
    chunked = crc32c_update(chunked, data.data() + split, data.size() - split);
    EXPECT_EQ(chunked, whole) << "split " << split;
  }
  EXPECT_NE(crc32c(data.data(), data.size() - 1), whole);
}

// --------------------------------------------------------------------- WAL

std::vector<WalRecord> sample_records(std::size_t count) {
  std::vector<WalRecord> records;
  for (std::size_t i = 1; i <= count; ++i) {
    if (i % 3 == 0) {
      records.push_back(WalRecord::erase(i, JobId{i / 3}));
    } else {
      records.push_back(WalRecord::insert(
          i, JobId{i}, Window{static_cast<Time>(i * 64), static_cast<Time>(i * 64 + 64)}));
    }
  }
  return records;
}

TEST(Wal, RoundTripAcrossFramesAndReopen) {
  TempDir dir;
  const std::string path = durability::wal_path(dir.path);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.frame_bytes = 128;  // force many frames
  policy.sync_every = 2;

  const std::vector<WalRecord> records = sample_records(100);
  {
    WalWriter writer;
    writer.open(path, policy);
    for (std::size_t i = 0; i < 60; ++i) writer.append(records[i]);
    writer.sync();
  }
  {
    // Append more after a clean close — the reader sees one stream.
    WalWriter writer;
    writer.open(path, policy);
    for (std::size_t i = 60; i < records.size(); ++i) writer.append(records[i]);
    EXPECT_GE(writer.stats().frames, 2u);
    EXPECT_GE(writer.stats().syncs, 1u);
  }
  const WalReadResult result = durability::read_wal(path);
  EXPECT_FALSE(result.missing);
  EXPECT_FALSE(result.torn_tail);
  ASSERT_EQ(result.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(result.records[i], records[i]) << "record " << i;
  }
}

TEST(Wal, TornTailIsTruncatedAndAppendResumes) {
  TempDir dir;
  const std::string path = durability::wal_path(dir.path);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.frame_bytes = 64;

  const std::vector<WalRecord> records = sample_records(40);
  {
    WalWriter writer;
    writer.open(path, policy);
    for (std::size_t i = 0; i < 20; ++i) writer.append(records[i]);
  }
  // Simulate a torn write: a frame header promising more payload than the
  // file holds.
  {
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    const char garbage[] = "\x40\x00\x00\x00\xde\xad\xbe\xef half a frame";
    torn.write(garbage, sizeof(garbage) - 1);
  }
  WalReadResult result = durability::read_wal(path);
  EXPECT_TRUE(result.torn_tail);
  ASSERT_EQ(result.records.size(), 20u);

  // Truncate-at-bad-checksum, then appending resumes cleanly.
  durability::truncate_wal(path, result.valid_end);
  {
    WalWriter writer;
    writer.open(path, policy);
    for (std::size_t i = 20; i < records.size(); ++i) writer.append(records[i]);
  }
  result = durability::read_wal(path);
  EXPECT_FALSE(result.torn_tail);
  ASSERT_EQ(result.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(result.records[i], records[i]) << "record " << i;
  }
}

TEST(Wal, CorruptPayloadByteStopsAtThatFrame) {
  TempDir dir;
  const std::string path = durability::wal_path(dir.path);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.frame_bytes = 64;
  {
    WalWriter writer;
    writer.open(path, policy);
    for (const WalRecord& record : sample_records(40)) writer.append(record);
  }
  const WalReadResult intact = durability::read_wal(path);
  ASSERT_FALSE(intact.torn_tail);
  ASSERT_EQ(intact.records.size(), 40u);

  // Flip one byte two thirds in: every frame before it survives, the rest
  // is reported as a tear — never a crash, never garbage records.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    file.seekp(size * 2 / 3);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(size * 2 / 3);
    byte = static_cast<char>(byte ^ 0x01);
    file.write(&byte, 1);
  }
  const WalReadResult result = durability::read_wal(path);
  EXPECT_TRUE(result.torn_tail);
  EXPECT_LT(result.records.size(), 40u);
  for (std::size_t i = 0; i < result.records.size(); ++i) {
    EXPECT_EQ(result.records[i], intact.records[i]);
  }
}

TEST(Wal, MissingFileAndForeignHeader) {
  TempDir dir;
  const WalReadResult missing = durability::read_wal(dir.path + "/nope.log");
  EXPECT_TRUE(missing.missing);
  EXPECT_TRUE(missing.records.empty());

  const std::string foreign = dir.path + "/foreign.log";
  {
    std::ofstream file(foreign, std::ios::binary);
    file << "definitely not a WAL file, much longer than a header";
  }
  EXPECT_THROW(durability::read_wal(foreign), durability::CorruptInput);
  WalWriter writer;
  EXPECT_THROW(writer.open(foreign, DurabilityPolicy{.dir = dir.path}),
               durability::CorruptInput);
}

// --------------------------------------------------------------- snapshots

TEST(Snapshot, RoundTripIsByteIdenticalAndContinuesInLockstep) {
  TempDir dir;
  const SchedulerOptions options = base_options();
  const std::vector<Request> trace = churn_trace(41, 4'000);

  ReservationScheduler original(options);
  std::size_t cut = 0;
  for (; cut < trace.size(); ++cut) {
    serve(original, trace[cut]);
    // Snapshot at an arbitrary quiescent point mid-trace.
    if (cut >= 2'500 && !original.rebuild_in_flight()) break;
  }
  DurabilityPolicy policy;
  policy.dir = dir.path;
  durability::write_snapshot(dir.path, 1, original, policy);

  ReservationScheduler recovered(options);
  ASSERT_TRUE(
      durability::load_snapshot(durability::snapshot_path(dir.path, 1), recovered));
  expect_identical_schedules(original.snapshot(), recovered.snapshot(), "post-load");
  EXPECT_EQ(original.n_star(), recovered.n_star());
  EXPECT_EQ(original.parked_jobs(), recovered.parked_jobs());
  EXPECT_EQ(original.active_jobs(), recovered.active_jobs());
  // The format is canonical: the recovered state, laid out in tables of its
  // own, saves to the very same bytes.
  EXPECT_EQ(state_bytes(original), state_bytes(recovered));
  recovered.audit();  // full invariant sweep on the recovered state

  // The two instances must now be indistinguishable request by request —
  // including through n*-rebuilds and rehashes the suffix triggers.
  for (std::size_t i = cut + 1; i < trace.size(); ++i) {
    const RequestStats a = serve(original, trace[i]);
    const RequestStats b = serve(recovered, trace[i]);
    expect_same_stats(a, b, i);
  }
  expect_identical_schedules(original.snapshot(), recovered.snapshot(), "post-suffix");
  ASSERT_EQ(original.rebuild_in_flight(), recovered.rebuild_in_flight());
  if (!original.rebuild_in_flight()) {
    EXPECT_EQ(state_bytes(original), state_bytes(recovered));
  }
  recovered.audit();
}

// Layout-scramble differential: nothing the scheduler decides may depend on
// how its hash tables lay out their entries. A state loaded from a snapshot
// is re-laid out (random capacities and insertion orders, and on odd seeds
// every incremental table left mid-migration) and must (a) save to the same
// bytes, (b) stay in per-request lockstep with an unscrambled twin through
// the rest of the trace — n*-rebuilds included, with further scrambles
// mid-suffix, some of them mid-migration — and (c) pass the full audit.
void run_scramble_differential(bool legacy_rehash) {
  SchedulerOptions options = base_options();
  options.legacy_rehash = legacy_rehash;
  // Cut during the ramp so the suffix doubles n* several times.
  const std::vector<Request> trace = churn_trace(53, 1'200, 384);
  ReservationScheduler original(options);
  std::size_t cut = 0;
  for (; cut < trace.size(); ++cut) {
    serve(original, trace[cut]);
    if (cut >= 120 && !original.rebuild_in_flight()) break;
  }
  const std::vector<std::byte> saved = state_bytes(original);

  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed << " legacy " << legacy_rehash);
    const auto twin = load_state(options, saved);
    const auto scrambled = load_state(options, saved);
    scrambled->scramble_layout_for_test(seed);
    ASSERT_EQ(state_bytes(*scrambled), saved);

    std::size_t rebuilds = 0;
    std::size_t scrambled_mid_migration = 0;
    bool was_migrating = false;
    for (std::size_t i = cut + 1; i < trace.size(); ++i) {
      const RequestStats a = serve(*twin, trace[i]);
      const RequestStats b = serve(*scrambled, trace[i]);
      expect_same_stats(a, b, i);
      if (a.rebuilt) ++rebuilds;
      // Re-scramble every 97 requests and on the first request of every
      // partitioned rebuild (the shadow generation gets scrambled too).
      const bool migration_began = scrambled->rebuild_in_flight() && !was_migrating;
      was_migrating = scrambled->rebuild_in_flight();
      if ((i - cut) % 97 == 0 || migration_began) {
        if (scrambled->rebuild_in_flight()) ++scrambled_mid_migration;
        scrambled->scramble_layout_for_test(seed * 1'000 + i);
      }
      if ((i - cut) % 16 == 0) {
        expect_identical_schedules(twin->snapshot(), scrambled->snapshot(), "suffix");
      }
    }
    EXPECT_GT(rebuilds, 0u);
    EXPECT_GT(scrambled_mid_migration, 0u);
    expect_identical_schedules(twin->snapshot(), scrambled->snapshot(), "post-suffix");
    EXPECT_EQ(twin->n_star(), scrambled->n_star());
    EXPECT_EQ(twin->parked_jobs(), scrambled->parked_jobs());
    ASSERT_EQ(twin->rebuild_in_flight(), scrambled->rebuild_in_flight());
    if (!twin->rebuild_in_flight()) {
      EXPECT_EQ(state_bytes(*twin), state_bytes(*scrambled));
    }
    scrambled->audit();
    if (testing::Test::HasFailure()) return;
  }
}

TEST(Snapshot, LayoutScrambleKeepsBytesAndLockstepIncremental) {
  run_scramble_differential(/*legacy_rehash=*/false);
}

TEST(Snapshot, LayoutScrambleKeepsBytesAndLockstepLegacyRehash) {
  run_scramble_differential(/*legacy_rehash=*/true);
}

TEST(Snapshot, CorruptionIsDetectedNotTrusted) {
  TempDir dir;
  const SchedulerOptions options = base_options();
  ReservationScheduler s(options);
  for (const Request& r : churn_trace(7, 800)) serve(s, r);
  ASSERT_FALSE(s.rebuild_in_flight());
  DurabilityPolicy policy;
  policy.dir = dir.path;
  durability::write_snapshot(dir.path, 5, s, policy);
  const std::string path = durability::snapshot_path(dir.path, 5);

  // Bit flip in the middle: CRC catches it.
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    file.seekp(size / 2);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(size / 2);
    byte = static_cast<char>(byte ^ 0x10);
    file.write(&byte, 1);
  }
  {
    ReservationScheduler fresh(options);
    EXPECT_FALSE(durability::load_snapshot(path, fresh));
  }

  // Truncation (a crash mid-rename of a future overwrite, disk trouble):
  // the length/CRC trailer no longer matches.
  durability::write_snapshot(dir.path, 5, s, policy);  // rewrite intact
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(0, std::ios::end);
    const auto size = static_cast<std::streamoff>(file.tellg());
    ASSERT_EQ(::truncate(path.c_str(), size / 2), 0);
  }
  {
    ReservationScheduler fresh(options);
    EXPECT_FALSE(durability::load_snapshot(path, fresh));
  }

  // Missing file.
  {
    ReservationScheduler fresh(options);
    EXPECT_FALSE(durability::load_snapshot(dir.path + "/snap-99.snap", fresh));
  }

  // Checksummed but malformed payloads: each must be refused with
  // CorruptInput (load_snapshot returns false), never trusted, never an
  // allocation sized by the lying field, never another exception type.
  const std::vector<std::byte> payload = state_bytes(s);
  const std::uint64_t jobs = get_le(payload, kJobCountAt, 8);
  ASSERT_GE(jobs, 2u);
  const std::size_t levels_at = job_at(jobs);
  ASSERT_EQ(get_le(payload, levels_at, 8), options.levels.level_count());
  // Level 0 holds no intervals, windows or census: three zero counts and a
  // u32 active bound, then level 1's interval count.
  ASSERT_EQ(get_le(payload, levels_at + 8, 8), 0u);
  ASSERT_EQ(get_le(payload, levels_at + 16, 8), 0u);
  ASSERT_EQ(get_le(payload, levels_at + 24, 8), 0u);
  const std::size_t level1_at = levels_at + 36;
  ASSERT_GE(get_le(payload, level1_at, 8), 2u);
  // First interval: base i64 | assigned u32 | entries of offset u32 + owner.
  const std::size_t interval_at = level1_at + 8;
  const std::uint64_t assigned = get_le(payload, interval_at + 8, 4);
  ASSERT_GE(assigned, 1u);
  const std::size_t second_interval_at = interval_at + 12 + assigned * 13;
  // Cross-ledger lies keep every count, order and range valid: a live
  // window whose job count is off by one, and a window ledger slot (in both
  // its assigned and free sets) moved to a slot of the window that no
  // interval assigns to it.
  const std::vector<SavedWindow> windows = saved_windows(payload, levels_at);
  const auto live = std::find_if(windows.begin(), windows.end(), [&](const SavedWindow& w) {
    return get_le(payload, w.jobs_at, 8) > 0;
  });
  ASSERT_NE(live, windows.end());
  const std::size_t live_jobs_at = live->jobs_at;
  const auto with_free = std::find_if(windows.begin(), windows.end(), [&](const SavedWindow& w) {
    return get_le(payload, w.free_at, 8) > 0;
  });
  ASSERT_NE(with_free, windows.end());
  const SavedWindow ledger = *with_free;
  const std::uint64_t ledger_assigned = get_le(payload, ledger.assigned_at, 8);
  std::set<Time> ledger_slots;
  for (std::uint64_t k = 0; k < ledger_assigned; ++k) {
    ledger_slots.insert(static_cast<Time>(get_le(payload, ledger.assigned_at + 8 + k * 8, 8)));
  }
  const auto moved_from = static_cast<Time>(get_le(payload, ledger.free_at + 8, 8));
  Time moved_to = ledger.window.start;
  while (ledger_slots.count(moved_to) != 0) ++moved_to;
  ASSERT_LT(moved_to, ledger.window.end);

  struct Case {
    const char* what;
    std::function<void(std::vector<std::byte>&)> mutate;
  };
  const std::vector<Case> cases = {
      {"version 1 header", [](auto& b) { set_le(b, kVersionAt, 4, 1); }},
      {"job count beyond the payload",
       [](auto& b) { set_le(b, kJobCountAt, 8, std::uint64_t{1} << 60); }},
      {"jobs out of id order",
       [](auto& b) {
         std::swap_ranges(b.begin() + job_at(0), b.begin() + job_at(1), b.begin() + job_at(1));
       }},
      {"repeated job id", [](auto& b) { set_le(b, job_at(1), 8, get_le(b, job_at(0), 8)); }},
      {"job slot outside its window",
       [](auto& b) {
         set_le(b, job_at(0) + kJobSlot, 8, get_le(b, job_at(0) + kJobWindowEnd, 8));
       }},
      {"job level disagrees with its span",
       [](auto& b) { set_le(b, job_at(0) + kJobLevel, 4, 7); }},
      {"parked count disagrees with the jobs",
       [](auto& b) { set_le(b, kParkedAt, 8, get_le(b, kParkedAt, 8) + 1); }},
      {"interval count beyond the payload",
       [&](auto& b) { set_le(b, level1_at, 8, std::uint64_t{1} << 40); }},
      {"slot count beyond the payload",
       [&](auto& b) { set_le(b, interval_at + 8, 4, 0xFFFFFFFFu); }},
      {"slot offset past the interval",
       [&](auto& b) { set_le(b, interval_at + 12, 4, options.levels.interval_size(1)); }},
      {"repeated interval base",
       [&](auto& b) { set_le(b, second_interval_at, 8, get_le(b, interval_at, 8)); }},
      {"truncated payload", [](auto& b) { b.resize(b.size() / 2); }},
      {"trailing bytes", [](auto& b) { b.push_back(std::byte{0}); }},
      {"window job count one too high",
       [&](auto& b) { set_le(b, live_jobs_at, 8, get_le(b, live_jobs_at, 8) + 1); }},
      {"window job count one too low",
       [&](auto& b) { set_le(b, live_jobs_at, 8, get_le(b, live_jobs_at, 8) - 1); }},
      {"free ledger slot moved to a slot no interval backs",
       [&](auto& b) {
         set_le(b, ledger.free_at + 8, 8, static_cast<std::uint64_t>(moved_to));
         for (std::uint64_t k = 0; k < ledger_assigned; ++k) {
           const std::size_t at = ledger.assigned_at + 8 + k * 8;
           if (static_cast<Time>(get_le(b, at, 8)) == moved_from) {
             set_le(b, at, 8, static_cast<std::uint64_t>(moved_to));
           }
         }
       }},
  };
  for (const Case& c : cases) {
    std::vector<std::byte> bad = payload;
    c.mutate(bad);
    write_payload(path, bad);
    ReservationScheduler fresh(options);
    bool loaded = true;
    EXPECT_NO_THROW(loaded = durability::load_snapshot(path, fresh)) << c.what;
    EXPECT_FALSE(loaded) << c.what;
  }
  // The same harness with the untouched payload loads.
  write_payload(path, payload);
  ReservationScheduler fresh(options);
  EXPECT_TRUE(durability::load_snapshot(path, fresh));
}

TEST(Snapshot, OptionsFingerprintMismatchRefusesToLoad) {
  TempDir dir;
  SchedulerOptions options = base_options();
  ReservationScheduler s(options);
  for (const Request& r : churn_trace(9, 400)) serve(s, r);
  ASSERT_FALSE(s.rebuild_in_flight());
  DurabilityPolicy policy;
  policy.dir = dir.path;
  durability::write_snapshot(dir.path, 1, s, policy);

  SchedulerOptions other = options;
  other.gamma = 16;  // placement-shaping knob → incompatible state
  ReservationScheduler fresh(other);
  EXPECT_FALSE(
      durability::load_snapshot(durability::snapshot_path(dir.path, 1), fresh));

  // The legacy_* toggles are deliberately NOT in the fingerprint (both
  // modes produce byte-identical schedules).
  SchedulerOptions legacy = options;
  legacy.legacy_rehash = true;
  legacy.legacy_fulfillment = true;
  ReservationScheduler crossmode(legacy);
  EXPECT_TRUE(
      durability::load_snapshot(durability::snapshot_path(dir.path, 1), crossmode));
  expect_identical_schedules(s.snapshot(), crossmode.snapshot(), "cross-mode");
}

TEST(Snapshot, ListAndPruneKeepNewest) {
  TempDir dir;
  const SchedulerOptions options = base_options();
  ReservationScheduler s(options);
  for (const Request& r : churn_trace(3, 300)) serve(s, r);
  ASSERT_FALSE(s.rebuild_in_flight());
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.keep_snapshots = 2;
  for (std::uint64_t csn : {10u, 20u, 30u, 40u}) {
    durability::write_snapshot(dir.path, csn, s, policy);
  }
  const std::vector<std::uint64_t> kept = durability::list_snapshots(dir.path);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0], 40u);
  EXPECT_EQ(kept[1], 30u);
}

// ---------------------------------------------------------------- recovery

TEST(Recovery, ColdStartOnFreshDirectory) {
  TempDir dir;
  DurabilityPolicy policy;
  policy.dir = dir.path + "/does/not/exist/yet";
  DurableScheduler durable(policy, base_options());
  EXPECT_TRUE(durable.recovery_report().cold_start());
  EXPECT_EQ(durable.csn(), 0u);
  EXPECT_EQ(durable.active_jobs(), 0u);
}

TEST(Recovery, WalOnlyReplayMatchesTwin) {
  TempDir dir;
  const SchedulerOptions options = base_options();
  const std::vector<Request> trace = churn_trace(11, 2'000);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.snapshot_on_flip = false;  // force pure WAL replay
  {
    DurableScheduler durable(policy, options);
    for (const Request& r : trace) serve(durable, r);
    durable.sync();
    EXPECT_EQ(durable.csn(), trace.size());
    EXPECT_EQ(durable.snapshots_written(), 0u);
  }
  DurableScheduler recovered(policy, options);
  EXPECT_EQ(recovered.recovery_report().replayed, trace.size());
  EXPECT_EQ(recovered.csn(), trace.size());

  ReservationScheduler twin(options);
  for (const Request& r : trace) serve(twin, r);
  expect_identical_schedules(twin.snapshot(), recovered.snapshot(), "wal-only");
  recovered.reservation().audit();
}

TEST(Recovery, SnapshotPlusSuffixMatchesTwinAndContinues) {
  TempDir dir;
  const SchedulerOptions options = base_options();
  const std::vector<Request> trace = churn_trace(13, 6'000, 768);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.frame_bytes = 1024;
  {
    DurableScheduler durable(policy, options);
    for (const Request& r : trace) serve(durable, r);
    durable.sync();
    // Churn at this scale doubles n* several times; at least one flip
    // snapshot must have fired, so recovery replays a proper suffix.
    EXPECT_GT(durable.snapshots_written(), 0u);
  }
  DurableScheduler recovered(policy, options);
  EXPECT_GT(recovered.recovery_report().snapshot_csn, 0u);
  EXPECT_LT(recovered.recovery_report().replayed, trace.size());
  EXPECT_EQ(recovered.csn(), trace.size());

  ReservationScheduler twin(options);
  for (const Request& r : trace) serve(twin, r);
  expect_identical_schedules(twin.snapshot(), recovered.snapshot(), "snap+suffix");
  EXPECT_EQ(twin.n_star(), recovered.reservation().n_star());
  EXPECT_EQ(twin.parked_jobs(), recovered.reservation().parked_jobs());

  // Keep running BOTH — the recovered instance and the twin must stay in
  // lockstep on a fresh suffix (and keep logging: a second recovery works).
  const std::vector<Request> more = churn_trace(14, 1'000);
  for (const Request& r : more) {
    if (r.kind == RequestKind::kInsert) {
      const JobId id{r.job.value + 1'000'000};  // avoid collisions
      const RequestStats a = recovered.insert(id, r.window);
      const RequestStats b = twin.insert(id, r.window);
      EXPECT_EQ(a.reallocations, b.reallocations);
    }
  }
  expect_identical_schedules(twin.snapshot(), recovered.snapshot(), "post-continue");
  recovered.reservation().audit();
}

// Damages the newest of several snapshots, then recovers: the damaged one
// is skipped and the next-older snapshot plus the WAL suffix rebuild the
// uninterrupted twin's state.
void expect_fallback_past_damaged_newest(
    const std::function<void(const std::string& path)>& damage) {
  TempDir dir;
  const SchedulerOptions options = base_options();
  const std::vector<Request> trace = churn_trace(17, 3'000);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.snapshot_every = 500;  // several snapshots at known CSNs
  policy.keep_snapshots = 8;
  {
    DurableScheduler durable(policy, options);
    for (const Request& r : trace) serve(durable, r);
    durable.sync();
  }
  std::vector<std::uint64_t> snaps = durability::list_snapshots(dir.path);
  ASSERT_GE(snaps.size(), 2u);
  damage(durability::snapshot_path(dir.path, snaps[0]));
  DurableScheduler recovered(policy, options);
  EXPECT_EQ(recovered.recovery_report().snapshots_skipped, 1u);
  EXPECT_EQ(recovered.recovery_report().snapshot_csn, snaps[1]);
  EXPECT_EQ(recovered.csn(), trace.size());

  ReservationScheduler twin(options);
  for (const Request& r : trace) serve(twin, r);
  expect_identical_schedules(twin.snapshot(), recovered.snapshot(), "fallback");
}

TEST(Recovery, CorruptNewestSnapshotFallsBackToOlder) {
  expect_fallback_past_damaged_newest([](const std::string& path) {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(100);
    file.write("\xff\xff\xff\xff", 4);
  });
}

TEST(Recovery, VersionOneSnapshotIsRefusedAndRecoveryFallsBack) {
  // A snapshot in the retired v1 layout, checksum intact: the version
  // field alone must refuse it.
  expect_fallback_past_damaged_newest([](const std::string& path) {
    std::vector<std::byte> payload = read_payload(path);
    set_le(payload, kVersionAt, 4, 1);
    write_payload(path, payload);
  });
}

TEST(Recovery, AuditEngineReseedsAfterRecovery) {
  TempDir dir;
  SchedulerOptions options = base_options();
  options.audit_policy.mode = audit::Mode::kIncremental;
  options.audit_policy.cadence = 0;  // driven manually
  const std::vector<Request> trace = churn_trace(19, 2'000);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  {
    DurableScheduler durable(policy, options);
    for (const Request& r : trace) serve(durable, r);
    durable.sync();
  }
  DurableScheduler recovered(policy, options);
  ReservationScheduler& rs = recovered.reservation();

  // The loader escalated via mark_all: the first incremental audit after
  // recovery is a full sweep that reseeds the dirty-tracking shadows.
  const auto before = rs.audit_work();
  rs.incremental_audit();
  const auto after_first = rs.audit_work();
  EXPECT_GT(after_first.full_sweeps, before.full_sweeps);

  // From then on the engine runs incrementally and stays clean.
  std::size_t served = 0;
  for (const Request& r : churn_trace(23, 500)) {
    if (r.kind != RequestKind::kInsert) continue;
    recovered.insert(JobId{r.job.value + 2'000'000}, r.window);
    if (++served % 100 == 0) rs.incremental_audit();
  }
  const auto after_churn = rs.audit_work();
  EXPECT_EQ(after_churn.full_sweeps, after_first.full_sweeps);
  EXPECT_GT(after_churn.incremental_audits, after_first.incremental_audits);
  rs.audit();  // and the full sweep agrees
}

// ------------------------------------------------------------ sharded WAL

ShardedScheduler::Options sharded_wal_options(const std::string& dir) {
  ShardedScheduler::Options options;
  options.shards = 4;
  options.wal = DurabilityPolicy{};
  options.wal->dir = dir;
  return options;
}

std::vector<Request> sharded_trace() {
  ChurnParams params;
  params.seed = 31;
  params.requests = 2'000;
  params.target_active = 512;
  params.machines = 8;
  params.min_span = 64;
  params.max_span = 2048;
  return make_churn_trace(params);
}

std::vector<std::string> wal_files(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("wal-") && name.ends_with(".log")) names.push_back(name);
  }
  return names;
}

TEST(Recovery, ShardedServiceWritesOneLog) {
  TempDir dir;
  const SchedulerOptions machine_options = base_options();
  const ShardedScheduler::Options options = sharded_wal_options(dir.path);
  const auto factory = [&] {
    return std::make_unique<ReservationScheduler>(machine_options);
  };
  const std::vector<Request> trace = sharded_trace();

  {
    ShardedScheduler sharded(8, factory, options);
    // Batched feeding: CSNs must come back dense across batches.
    std::uint64_t expect_csn = 1;
    for (std::size_t i = 0; i < trace.size(); i += 64) {
      const std::size_t n = std::min<std::size_t>(64, trace.size() - i);
      const BatchResult result = sharded.apply({trace.data() + i, n});
      if (result.first_csn != 0) {
        EXPECT_EQ(result.first_csn, expect_csn);
        expect_csn = result.last_csn + 1;
      }
    }
    sharded.sync_wal();
    EXPECT_GT(sharded.csn(), 0u);
    EXPECT_EQ(expect_csn, sharded.csn() + 1);
    // Four shards, one log, holding CSNs 1..csn() ascending in file order.
    EXPECT_EQ(wal_files(dir.path), std::vector<std::string>{"wal-000.log"});
    const WalReadResult wal = durability::read_wal(durability::wal_path(dir.path));
    EXPECT_FALSE(wal.torn_tail);
    ASSERT_EQ(wal.records.size(), sharded.csn());
    for (std::size_t i = 0; i < wal.records.size(); ++i) {
      ASSERT_EQ(wal.records[i].csn, i + 1);
    }
  }

  // Construction is recovery: the one log replays to the same state.
  ShardedScheduler recovered(8, factory, options);
  EXPECT_EQ(recovered.recovery_report().replayed, recovered.csn());
  EXPECT_GT(recovered.csn(), 0u);
  recovered.audit_balance();

  ShardedScheduler::Options no_wal;
  no_wal.shards = 4;
  ShardedScheduler twin(8, factory, no_wal);
  for (std::size_t i = 0; i < trace.size(); i += 64) {
    const std::size_t n = std::min<std::size_t>(64, trace.size() - i);
    twin.apply({trace.data() + i, n});
  }
  expect_identical_schedules(twin.snapshot(), recovered.snapshot(), "sharded");
  EXPECT_EQ(twin.active_jobs(), recovered.active_jobs());
}

TEST(Recovery, SecondLogFileIsRefusedNotDropped) {
  // A directory written by the older per-shard layout holds acknowledged
  // records in wal-001.log that recovery from wal-000.log alone would
  // silently drop: both durable front ends refuse it and name the file.
  TempDir dir;
  const SchedulerOptions machine_options = base_options();
  const auto factory = [&] {
    return std::make_unique<ReservationScheduler>(machine_options);
  };
  {
    ShardedScheduler sharded(8, factory, sharded_wal_options(dir.path));
    const std::vector<Request> trace = sharded_trace();
    sharded.apply({trace.data(), 256});
    sharded.sync_wal();
  }
  std::filesystem::copy_file(durability::wal_path(dir.path), dir.path + "/wal-001.log");

  const auto expect_refused = [&](const std::function<void()>& construct) {
    try {
      construct();
      ADD_FAILURE() << "recovery accepted a directory holding wal-001.log";
    } catch (const durability::CorruptInput& error) {
      EXPECT_NE(std::string(error.what()).find("wal-001.log"), std::string::npos)
          << error.what();
    }
  };
  expect_refused([&] { ShardedScheduler refused(8, factory, sharded_wal_options(dir.path)); });
  DurabilityPolicy policy;
  policy.dir = dir.path;
  expect_refused([&] { DurableScheduler refused(policy, machine_options); });
}

// ------------------------------------------------------------ trace format

TEST(TraceWal, BinaryTraceRoundTrips) {
  TempDir dir;
  const std::string path = dir.path + "/trace.wal";
  const std::vector<Request> trace = churn_trace(37, 1'000);
  write_trace_wal(path, trace);
  const std::vector<Request> loaded = read_trace_wal(path);
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded[i].kind, trace[i].kind) << i;
    EXPECT_EQ(loaded[i].job, trace[i].job) << i;
    if (trace[i].kind == RequestKind::kInsert) {
      EXPECT_EQ(loaded[i].window.start, trace[i].window.start) << i;
      EXPECT_EQ(loaded[i].window.end, trace[i].window.end) << i;
    }
  }
}

TEST(TraceWal, WalFileDoublesAsTrace) {
  // A durability log read back as a trace replays to the recovered state —
  // the "surviving request stream is a bug reproducer" property.
  TempDir dir;
  const SchedulerOptions options = base_options();
  const std::vector<Request> trace = churn_trace(43, 1'200);
  DurabilityPolicy policy;
  policy.dir = dir.path;
  policy.snapshot_on_flip = false;
  {
    DurableScheduler durable(policy, options);
    for (const Request& r : trace) serve(durable, r);
    durable.sync();
  }
  const std::vector<Request> replayed =
      read_trace_wal(durability::wal_path(dir.path));
  ASSERT_EQ(replayed.size(), trace.size());

  ReservationScheduler a(options);
  ReservationScheduler b(options);
  for (const Request& r : trace) serve(a, r);
  for (const Request& r : replayed) serve(b, r);
  expect_identical_schedules(a.snapshot(), b.snapshot(), "wal-as-trace");
}

TEST(TraceWal, SimDriverRecordsServedStream) {
  TempDir dir;
  const std::string path = dir.path + "/recorded.wal";
  const std::vector<Request> trace = churn_trace(47, 600);
  ReservationScheduler s(base_options());
  SimOptions sim;
  sim.record_trace = path;
  const SimReport report = replay_trace(s, trace, sim);
  EXPECT_TRUE(report.clean());
  const std::vector<Request> recorded = read_trace_wal(path);
  EXPECT_EQ(recorded.size(), trace.size());
}

}  // namespace
}  // namespace reasched
