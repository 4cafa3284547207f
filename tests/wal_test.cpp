// Durability layer unit + fuzz tests: WAL framing round-trips, torn-tail
// recovery at every byte boundary, bit-flip corruption (the reader must
// recover to the last intact record or reject with a precise error —
// never crash, never surface a tampered record), attach() truncation
// semantics, and the checkpoint / session-meta serialization round-trips
// the resume path depends on.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/durable.hpp"
#include "src/recover/checkpoint.hpp"
#include "src/recover/session.hpp"
#include "src/recover/wal.hpp"

namespace kms::recover {
namespace {

std::string temp_path(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir ? dir : "/tmp") + "/" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each test case as its own concurrent process; the log
    // path must be distinct per case or parallel runs race on it.
    path_ = temp_path(
        std::string("wal_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".log");
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(WalTest, RoundTripsRecords) {
  const std::vector<std::string> payloads = {
      "step delete proof=3", "ckpt\nphase loop\n", std::string("x\0y", 3),
      std::string(5000, 'z')};
  {
    WalWriter w = WalWriter::create(path_);
    for (const std::string& p : payloads) w.append(p);
    w.sync();
  }
  const WalReadResult r = read_wal(path_);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.torn_tail);
  ASSERT_EQ(r.records.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i)
    EXPECT_EQ(r.records[i].payload, payloads[i]);
}

TEST_F(WalTest, EmptyLogHasNoRecords) {
  { WalWriter::create(path_); }
  const WalReadResult r = read_wal(path_);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.records.empty());
  EXPECT_FALSE(r.torn_tail);
}

TEST_F(WalTest, MissingFileIsPreciseError) {
  const WalReadResult r = read_wal(path_);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cannot open"), std::string::npos);
}

TEST_F(WalTest, MissingHeaderIsPreciseError) {
  spit(path_, "not a wal file\nwith some content\n");
  const WalReadResult r = read_wal(path_);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("kms-wal v1"), std::string::npos);
}

TEST_F(WalTest, RejectsEmptyAndOversizedAppends) {
  WalWriter w = WalWriter::create(path_);
  EXPECT_THROW(w.append(""), std::runtime_error);
}

/// Truncate the log at EVERY byte boundary: the reader must surface
/// exactly the records whose frames fit intact, flag the torn tail, and
/// report the truncation offset — for all prefixes, without crashing.
TEST_F(WalTest, TruncationAtEveryByteRecoversPrefix) {
  const std::vector<std::string> payloads = {"alpha", "bravo-record",
                                             "charlie", "d"};
  std::vector<std::uint64_t> ends;  // end offset of each record
  {
    WalWriter w = WalWriter::create(path_);
    for (const std::string& p : payloads) w.append(p);
    w.sync();
  }
  const std::string full = slurp(path_);
  {
    const WalReadResult r = read_wal(path_);
    ASSERT_TRUE(r.ok);
    for (const WalRecord& rec : r.records) ends.push_back(rec.end_offset);
  }
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    spit(path_, full.substr(0, cut));
    const WalReadResult r = read_wal(path_);
    // Count how many whole records fit in the first `cut` bytes.
    std::size_t want = 0;
    while (want < ends.size() && ends[want] <= cut) ++want;
    if (cut < sizeof(kWalMagic) - 1) {
      EXPECT_FALSE(r.ok) << "cut=" << cut;
      continue;
    }
    ASSERT_TRUE(r.ok) << "cut=" << cut << ": " << r.error;
    ASSERT_EQ(r.records.size(), want) << "cut=" << cut;
    for (std::size_t i = 0; i < want; ++i)
      EXPECT_EQ(r.records[i].payload, payloads[i]);
    EXPECT_EQ(r.torn_tail, cut > (want == 0 ? sizeof(kWalMagic) - 1
                                            : ends[want - 1]))
        << "cut=" << cut;
    EXPECT_EQ(r.valid_bytes, want == 0 ? sizeof(kWalMagic) - 1
                                       : ends[want - 1]);
  }
}

/// Flip every bit of every byte in turn: the reader must never crash
/// and never surface a record with corrupted payload bytes — a flip in
/// record i's frame or payload ends the valid prefix at record i (flips
/// in the header reject the whole log; flips in a length field may
/// additionally swallow later records into one giant torn frame, which
/// is still a safe outcome).
TEST_F(WalTest, BitFlipNeverYieldsTamperedRecord) {
  const std::vector<std::string> payloads = {"first-payload", "second",
                                             "third-record-payload"};
  {
    WalWriter w = WalWriter::create(path_);
    for (const std::string& p : payloads) w.append(p);
    w.sync();
  }
  const std::string full = slurp(path_);
  std::vector<std::uint64_t> ends;
  {
    const WalReadResult r = read_wal(path_);
    ASSERT_TRUE(r.ok);
    for (const WalRecord& rec : r.records) ends.push_back(rec.end_offset);
  }
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = full;
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << bit));
      spit(path_, mutated);
      const WalReadResult r = read_wal(path_);
      if (pos < sizeof(kWalMagic) - 1) {
        EXPECT_FALSE(r.ok) << "header flip at " << pos;
        continue;
      }
      ASSERT_TRUE(r.ok);
      // Which record does the flipped byte live in?
      std::size_t hit = 0;
      while (hit < ends.size() && ends[hit] <= pos) ++hit;
      // Every surfaced record must be byte-identical to the original —
      // in particular the flipped record must NOT be surfaced.
      ASSERT_LE(r.records.size(), hit) << "pos=" << pos << " bit=" << bit;
      for (std::size_t i = 0; i < r.records.size(); ++i)
        EXPECT_EQ(r.records[i].payload, payloads[i])
            << "pos=" << pos << " bit=" << bit;
      EXPECT_TRUE(r.torn_tail);
    }
  }
}

/// attach() truncates the discarded tail before appending, so a crash
/// can never resurrect dropped records behind new ones.
TEST_F(WalTest, AttachTruncatesDiscardedTail) {
  std::uint64_t keep_offset = 0;
  {
    WalWriter w = WalWriter::create(path_);
    w.append("keep-me");
    w.append("discard-me");
    w.append("discard-me-too");
    w.sync();
  }
  {
    const WalReadResult r = read_wal(path_);
    ASSERT_EQ(r.records.size(), 3u);
    keep_offset = r.records[0].end_offset;
  }
  {
    WalWriter w = WalWriter::attach(path_, keep_offset);
    w.append("appended-after");
    w.sync();
  }
  const WalReadResult r = read_wal(path_);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.records[0].payload, "keep-me");
  EXPECT_EQ(r.records[1].payload, "appended-after");
  EXPECT_FALSE(r.torn_tail);
}

TEST(AtomicWriteTest, ReplacesAtomically) {
  const std::string path = temp_path("atomic_write_test.txt");
  atomic_write_file(path, "first version");
  EXPECT_EQ(slurp(path), "first version");
  atomic_write_file(path, "second version, longer than the first");
  EXPECT_EQ(slurp(path), "second version, longer than the first");
  std::remove(path.c_str());
}

TEST(KillPointTest, CountThrowAndDisarm) {
  kill_points_configure(KillMode::kCount);
  kill_point("a");
  kill_point("b");
  EXPECT_EQ(kill_points_seen(), 2u);
  kill_points_configure(KillMode::kThrow, 2);
  kill_point("a");
  try {
    kill_point("b");
    FAIL() << "expected CrashInjected";
  } catch (const CrashInjected& e) {
    EXPECT_EQ(e.point(), "b");
  }
  kill_points_configure(KillMode::kOff);
  kill_point("c");  // disarmed: no throw
}

Checkpoint sample_checkpoint() {
  Checkpoint c;
  c.phase = "removal";
  c.cursor = 7;
  c.steps = 42;
  c.drat_certs = 5;
  c.net_digest = 0xdeadbeefcafef00dull;
  c.rng_state = "0123456789abcdef:fedcba9876543210:0000000000000001:"
                "00000000000000ff";
  c.cache_state = "000000000000002a:0000001f\n00000000000000ff:00000003\n";
  c.stats.iterations = 3;
  c.stats.duplicated_gates = 11;
  c.stats.constants_set = 3;
  c.stats.redundancies_removed = 9;
  c.stats.sensitization_queries = 17;
  c.stats.unknown_queries = 1;
  c.stats.degraded = true;
  c.stats.initial_computed_delay = 12.342345678901234;
  c.stats.final_computed_delay = 8.0000000000000071;
  c.stats.removal.removed = 9;
  c.stats.removal.passes = 7;
  c.stats.removal.sat_queries = 123;
  c.stats.removal.sim_seconds = 0.25;  // wall-clock: never persisted
  c.stats.removal.sat_seconds = 1.5e-3;
  c.stats.removal.atpg.queries = 321;
  c.stats.removal.atpg.sat_conflicts = 999;
  c.stats.removal.atpg.max_cone_gates = 64;
  return c;
}

TEST(CheckpointTest, RoundTripsExactly) {
  const Checkpoint c = sample_checkpoint();
  const std::string text = write_checkpoint(c);
  const Checkpoint d = read_checkpoint(text);
  EXPECT_EQ(write_checkpoint(d), text);
  EXPECT_EQ(d.phase, c.phase);
  EXPECT_EQ(d.cursor, c.cursor);
  EXPECT_EQ(d.steps, c.steps);
  EXPECT_EQ(d.net_digest, c.net_digest);
  EXPECT_EQ(d.rng_state, c.rng_state);
  EXPECT_EQ(d.cache_state, c.cache_state);
  EXPECT_EQ(d.stats.removal.atpg.sat_conflicts, 999u);
  EXPECT_DOUBLE_EQ(d.stats.initial_computed_delay,
                   c.stats.initial_computed_delay);
  EXPECT_TRUE(d.stats.degraded);
  // Durable state is byte-reproducible: no wall-clock seconds in it.
  EXPECT_EQ(text.find("seconds"), std::string::npos);
  EXPECT_EQ(d.stats.removal.sim_seconds, 0.0);
  EXPECT_EQ(d.stats.removal.sat_seconds, 0.0);
}

TEST(CheckpointTest, RejectsTampering) {
  const std::string text = write_checkpoint(sample_checkpoint());
  // Unknown key, including the keys of older checkpoint formats.
  for (const char* key :
       {"bogus 1\n", "static-certs 0\n", "rm.sim_seconds 0.5\n",
        "rm.sat_seconds 0.5\n"})
    EXPECT_THROW(read_checkpoint(key + text), std::runtime_error) << key;
  // Truncated (missing fields).
  EXPECT_THROW(read_checkpoint(text.substr(0, text.size() / 2)),
               std::runtime_error);
  // Cache length lies.
  std::string lied = text;
  const std::size_t pos = lied.find("\ncache ");
  ASSERT_NE(pos, std::string::npos);
  lied.replace(pos, 8, "\ncache 9");
  EXPECT_THROW(read_checkpoint(lied), std::runtime_error);
  // Bad phase.
  std::string bad = text;
  bad.replace(bad.find("phase removal"), 13, "phase nonsens");
  EXPECT_THROW(read_checkpoint(bad), std::runtime_error);
}

TEST(SessionMetaTest, RoundTripsExactly) {
  SessionMeta m;
  m.model = "carry skip adder";  // spaces survive (rest-of-line value)
  m.mode = "viability";
  m.order = "random";
  m.jobs = 4;
  m.seed = 0x5EEDull;
  m.incremental = false;
  m.use_fault_sim = false;
  m.random_words = 16;
  m.remove_remaining = true;
  m.max_iterations = 100000;
  m.max_queries = 200000;
  m.checkpoint_every = 3;
  m.source_digest = 0x0123456789abcdefull;
  const std::string text = write_meta(m);
  const SessionMeta r = read_meta(text);
  EXPECT_EQ(write_meta(r), text);
  EXPECT_EQ(r.model, m.model);
  EXPECT_EQ(r.mode, "viability");
  EXPECT_EQ(r.order, "random");
  EXPECT_EQ(r.jobs, 4u);
  EXPECT_FALSE(r.incremental);
  EXPECT_EQ(r.source_digest, m.source_digest);
}

TEST(SessionMetaTest, RejectsMalformedMeta) {
  const std::string text = write_meta(SessionMeta{});
  EXPECT_THROW(read_meta("bogus 1\n" + text), std::runtime_error);
  EXPECT_THROW(read_meta(text.substr(0, text.size() / 2)),
               std::runtime_error);
  std::string bad = text;
  bad.replace(bad.find("mode static"), 11, "mode plasma");
  EXPECT_THROW(read_meta(bad), std::runtime_error);
}

}  // namespace
}  // namespace kms::recover
