// Fault-tolerance tests for the serving stack: the fault-injection
// framework itself (common/fault.h), the update journal's on-disk format
// and torn-tail tolerance (serving/journal.h), the daemon's behavior when
// every durability fault point fires (clean failure, no torn state, the
// process keeps serving), crash-window recovery (replay and heal, both
// bit-identical to the offline oracle), the connection guards (413
// oversize, 408 idle reaper), the load generator's 503 backoff contract,
// and fork/exec chaos drills that SIGKILL the real ocular_served binary
// inside the injected crash windows and assert the restart recovers.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/fs_util.h"
#include "core/incremental.h"
#include "core/model_store.h"
#include "core/model_shard.h"
#include "core/ocular_recommender.h"
#include "data/loaders.h"
#include "serving/batch.h"
#include "serving/daemon.h"
#include "serving/journal.h"
#include "serving/loadgen.h"
#include "serving/net_util.h"
#include "serving/registry.h"
#include "sparse/coo.h"
#include "test_util.h"

// The chaos drills fork/exec the real daemon binary; CMake injects its
// path the same way cli_test gets the CLI.
#ifndef OCULAR_SERVED_PATH
#define OCULAR_SERVED_PATH "ocular_served"
#endif

// fork() + SIGKILL drills and ThreadSanitizer do not mix (TSan's runtime
// owns signal delivery and dislikes forked children); the in-process
// tests still run under TSan and carry the concurrency coverage.
#if defined(__SANITIZE_THREAD__)
#define OCULAR_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define OCULAR_TSAN 1
#endif
#endif

namespace ocular {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

/// Same deterministic fixture daemon_test uses: a small trained model
/// saved as a binary v2 artifact, with the in-memory fit kept for oracle
/// comparisons.
struct DaemonFixture {
  CsrMatrix train;
  OcularConfig config;
  OcularModel model;
  std::string model_path;

  static DaemonFixture Make(const std::string& file, uint64_t seed = 11,
                            uint32_t sweeps = 6) {
    DaemonFixture f;
    f.train = test::RandomCsr(50, 30, 400, 11);
    f.config.k = 5;
    f.config.lambda = 0.5;
    f.config.max_sweeps = sweeps;
    f.config.seed = seed;
    OcularTrainer trainer(f.config);
    f.model = trainer.Fit(f.train).value().model;
    f.model_path = TempPath(file);
    // TempDir persists across runs: a stale journal from an earlier run
    // must never leak into this one's recovery.
    std::remove(UpdateJournal::PathFor(f.model_path).c_str());
    EXPECT_TRUE(SaveModelBinary(f.model, f.config, f.model_path).ok());
    return f;
  }

  std::shared_ptr<const CsrMatrix> shared_train() const {
    return std::make_shared<const CsrMatrix>(train);
  }

  /// Removes the artifact and its journal.
  void Cleanup() const {
    std::remove(model_path.c_str());
    std::remove(UpdateJournal::PathFor(model_path).c_str());
  }
};

/// The offline oracle for `model` under `train` exclusions at top-`m`.
std::vector<std::vector<ScoredItem>> Oracle(const OcularModel& model,
                                            const CsrMatrix& train,
                                            uint32_t m) {
  OcularModelRecommender rec(model);
  BatchOptions batch;
  batch.m = m;
  batch.skip_cold_users = false;
  return RecommendForAllUsers(rec, train, batch).value().recommendations;
}

/// Replays the daemon's update pipeline offline from the artifact at
/// `model_path`: materialize, merge `adds` into `train`, refresh the
/// touched rows (RefreshModel). Also returns the config the daemon would
/// persist with, so the caller can save an artifact byte-identical to the
/// daemon's.
struct OfflineUpdate {
  OcularModel model;
  CsrMatrix train;
  OcularConfig config;
};
OfflineUpdate ReplayUpdate(
    const std::string& model_path, const CsrMatrix& train,
    const std::vector<std::pair<uint32_t, uint32_t>>& adds, uint32_t sweeps) {
  auto store = ModelStore::Open(model_path);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  auto loaded = store->MaterializeOcular();
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  uint32_t users = store->num_users();
  uint32_t items = store->num_items();
  CooBuilder coo;
  for (auto [u, i] : train.ToPairs()) coo.Add(u, i);
  for (auto [u, i] : adds) {
    users = std::max(users, u + 1);
    items = std::max(items, i + 1);
    coo.Add(u, i);
  }
  CsrMatrix merged = CsrMatrix::FromCoo(coo.Finalize(users, items).value());
  OcularConfig config = loaded->config;
  config.max_sweeps = sweeps;
  auto refreshed =
      RefreshModel(&loaded->model, merged, adds, config, ExpandOptions{});
  EXPECT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  return {std::move(loaded->model), std::move(merged), config};
}

/// Arms-then-disarms around a test body; a test can never leak an armed
/// point into the next one (the framework is process-global).
struct FaultGuard {
  FaultGuard() { fault::Reset(); }
  ~FaultGuard() { fault::Reset(); }
};

// ------------------------------------------------ the framework itself

TEST(FaultFrameworkTest, DisarmedByDefaultAndFirstNGrammar) {
  FaultGuard guard;
  EXPECT_FALSE(fault::Armed());
  EXPECT_FALSE(fault::Maybe("store.rename"));

  ASSERT_TRUE(fault::Configure("store.rename=2").ok());
  EXPECT_TRUE(fault::Armed());
  EXPECT_TRUE(fault::Maybe("store.rename"));
  EXPECT_TRUE(fault::Maybe("store.rename"));
  EXPECT_FALSE(fault::Maybe("store.rename"));
  // Unconfigured points never fire even while armed.
  EXPECT_FALSE(fault::Maybe("store.write"));
  EXPECT_EQ(fault::Calls("store.rename"), 3u);
  EXPECT_EQ(fault::Hits("store.rename"), 2u);

  fault::Reset();
  EXPECT_FALSE(fault::Armed());
  EXPECT_FALSE(fault::Maybe("store.rename"));
  EXPECT_EQ(fault::Calls("store.rename"), 0u);
}

TEST(FaultFrameworkTest, KOfNIsDeterministicallyPeriodic) {
  FaultGuard guard;
  ASSERT_TRUE(fault::Configure("daemon.send=1/3").ok());
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(fault::Maybe("daemon.send"));
  EXPECT_EQ(fired, (std::vector<bool>{true, false, false, true, false, false,
                                      true, false, false}));
  EXPECT_EQ(fault::Hits("daemon.send"), 3u);
}

TEST(FaultFrameworkTest, InvalidSpecKeepsThePreviousConfiguration) {
  FaultGuard guard;
  ASSERT_TRUE(fault::Configure("update.apply=1").ok());
  for (const std::string bad :
       {"update.apply", "=1", "update.apply=", "update.apply=x",
        "update.apply=2/0", "update.apply=3/2", "update.apply=kill@0",
        "update.apply=kill@x"}) {
    EXPECT_FALSE(fault::Configure(bad).ok()) << bad;
  }
  // The old spec is still armed and fires.
  EXPECT_TRUE(fault::Maybe("update.apply"));
  EXPECT_FALSE(fault::Maybe("update.apply"));
}

TEST(FaultFrameworkTest, InjectedErrorNamesThePoint) {
  const Status st = fault::InjectedError("store.fsync");
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("store.fsync"), std::string::npos);
}

// ------------------------------------------------------ journal format

UpdateRecord MakeRecord(uint64_t fingerprint,
                        std::vector<std::pair<uint32_t, uint32_t>> adds,
                        uint32_t users, uint32_t items, uint32_t sweeps = 3,
                        uint64_t seed = 0) {
  UpdateRecord r;
  r.base_fingerprint = fingerprint;
  r.seed = seed;
  r.num_users = users;
  r.num_items = items;
  r.sweeps = sweeps;
  r.adds = std::move(adds);
  return r;
}

TEST(UpdateJournalTest, RoundTripAndLifecyclePlan) {
  const std::string path = TempPath("journal_roundtrip.journal");
  std::remove(path.c_str());

  // A missing file is an empty journal, not an error.
  auto empty = UpdateJournal::LoadPlan(path);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->applied.empty());
  EXPECT_FALSE(empty->has_pending);
  EXPECT_FALSE(empty->torn_tail);

  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(path).ok());
  ASSERT_TRUE(
      journal.AppendUpdate(MakeRecord(0xfeed, {{50, 1}, {50, 7}}, 51, 30))
          .ok());
  ASSERT_TRUE(journal.AppendCommit().ok());
  ASSERT_TRUE(
      journal.AppendUpdate(MakeRecord(0xbad, {{9, 9}}, 51, 30, 2, 77)).ok());
  ASSERT_TRUE(journal.AppendAbort().ok());
  ASSERT_TRUE(
      journal.AppendUpdate(MakeRecord(0xcafe, {{51, 3}}, 52, 30, 4, 5)).ok());
  journal.Close();

  bool torn = true;
  auto records = UpdateJournal::ReadAll(path, &torn);
  ASSERT_TRUE(records.ok());
  EXPECT_FALSE(torn);
  ASSERT_EQ(records->size(), 5u);
  EXPECT_EQ((*records)[0].type, UpdateJournal::RecordType::kUpdate);
  EXPECT_EQ((*records)[1].type, UpdateJournal::RecordType::kCommit);
  EXPECT_EQ((*records)[3].type, UpdateJournal::RecordType::kAbort);
  EXPECT_EQ((*records)[0].update.base_fingerprint, 0xfeedu);
  EXPECT_EQ((*records)[0].update.adds,
            (std::vector<std::pair<uint32_t, uint32_t>>{{50, 1}, {50, 7}}));

  auto plan = UpdateJournal::LoadPlan(path);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->applied.size(), 1u);  // committed one only
  EXPECT_EQ(plan->applied[0].base_fingerprint, 0xfeedu);
  EXPECT_EQ(plan->aborted, 1u);
  ASSERT_TRUE(plan->has_pending);  // the trailing uncommitted record
  EXPECT_EQ(plan->pending.base_fingerprint, 0xcafeu);
  EXPECT_EQ(plan->pending.seed, 5u);
  EXPECT_EQ(plan->pending.sweeps, 4u);
  EXPECT_EQ(plan->pending.num_users, 52u);
  EXPECT_FALSE(plan->torn_tail);
  std::remove(path.c_str());
}

TEST(UpdateJournalTest, TornTailEndsTheReadablePrefix) {
  const std::string path = TempPath("journal_torn.journal");
  std::remove(path.c_str());
  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(path).ok());
  ASSERT_TRUE(
      journal.AppendUpdate(MakeRecord(1, {{50, 0}, {50, 1}}, 51, 30)).ok());
  struct stat st;
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  const size_t after_update = static_cast<size_t>(st.st_size);
  ASSERT_TRUE(journal.AppendCommit().ok());
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  const size_t after_commit = static_cast<size_t>(st.st_size);
  ASSERT_TRUE(journal.AppendUpdate(MakeRecord(2, {{51, 2}}, 52, 30)).ok());
  journal.Close();
  const std::string full = ReadFileBytes(path);

  struct Case {
    size_t keep;
    size_t expect_records;
    bool expect_torn;
  };
  // Cuts: mid-payload of the last record, mid-header of the commit, and a
  // clean end exactly on a record boundary (not torn).
  const Case cases[] = {
      {full.size() - 3, 2, true},
      {after_update + 7, 1, true},
      {after_commit, 2, false},
  };
  for (const Case& c : cases) {
    const std::string cut_path = TempPath("journal_torn_cut.journal");
    WriteFileBytes(cut_path, full.substr(0, c.keep));
    bool torn = false;
    auto records = UpdateJournal::ReadAll(cut_path, &torn);
    ASSERT_TRUE(records.ok()) << c.keep;
    EXPECT_EQ(records->size(), c.expect_records) << c.keep;
    EXPECT_EQ(torn, c.expect_torn) << c.keep;
    std::remove(cut_path.c_str());
  }

  // A flipped payload byte fails the checksum: same as a torn tail.
  std::string corrupt = full;
  corrupt[corrupt.size() - 2] ^= 0x5a;
  const std::string corrupt_path = TempPath("journal_torn_corrupt.journal");
  WriteFileBytes(corrupt_path, corrupt);
  bool torn = false;
  auto records = UpdateJournal::ReadAll(corrupt_path, &torn);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
  EXPECT_TRUE(torn);
  // The trusted prefix still yields a full plan.
  auto plan = UpdateJournal::LoadPlan(corrupt_path);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->applied.size(), 1u);
  EXPECT_FALSE(plan->has_pending);
  EXPECT_TRUE(plan->torn_tail);
  std::remove(corrupt_path.c_str());
  std::remove(path.c_str());
}

// ------------------------------------------- injected-fault update path

/// The two update algorithms: a journaled retrain of a monolithic
/// artifact, and a fold-in refresh of a 3-way user-range shardset.
enum class Binding { kMonolithic, kSharded };

/// DaemonFixture's model served under either binding. `path` is what the
/// registry binds; `files` lists every file an update may rewrite (the
/// artifact, or the manifest plus every member).
struct BoundModel {
  DaemonFixture f;
  Binding binding;
  std::string path;
  std::vector<std::string> files;

  static BoundModel Make(const std::string& stem, Binding binding) {
    BoundModel b{DaemonFixture::Make(stem + ".oclr"), binding, "", {}};
    if (binding == Binding::kMonolithic) {
      b.path = b.f.model_path;
      b.files = {b.path};
      return b;
    }
    b.path = TempPath(stem + ".shardset");
    auto store = ModelStore::Open(b.f.model_path);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(SaveModelSharded(store->meta(), store->user_factors(),
                                 store->item_factors(),
                                 store->item_factors_t(), 3, b.path)
                    .ok());
    auto manifest = LoadShardSetManifest(b.path);
    EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
    b.files = {b.path, ShardSetResolve(b.path, manifest->items_file)};
    for (const ShardSetEntry& shard : manifest->shards) {
      b.files.push_back(ShardSetResolve(b.path, shard.file));
    }
    return b;
  }

  /// The bytes of every file, concatenated.
  std::string Snapshot() const {
    std::string bytes;
    for (const std::string& file : files) bytes += ReadFileBytes(file);
    return bytes;
  }

  /// True when any publish left its tmp file behind.
  bool AnyTmpLeft() const {
    for (const std::string& file : files) {
      if (FileExists(file + ".update.tmp")) return true;
    }
    return false;
  }

  void Cleanup() const {
    for (const std::string& file : files) std::remove(file.c_str());
    f.Cleanup();
  }
};

class UpdateFaultMatrixTest : public ::testing::TestWithParam<Binding> {
 protected:
  /// A catalog-growing retrain for the artifact; for the shardset, adds
  /// confined to shard 0 (users 2 and 3 of the 50-user, 3-way split).
  const char* UpdateRequest() const {
    return GetParam() == Binding::kMonolithic
               ? R"({"cmd":"update","adds":[[50,0],[50,7]],"sweeps":2})"
               : R"({"cmd":"update","adds":[[2,1],[3,9]],"sweeps":2})";
  }
};

INSTANTIATE_TEST_SUITE_P(
    Bindings, UpdateFaultMatrixTest,
    ::testing::Values(Binding::kMonolithic, Binding::kSharded),
    [](const ::testing::TestParamInfo<Binding>& info) {
      return info.param == Binding::kMonolithic ? "Monolithic" : "Sharded";
    });

TEST_P(UpdateFaultMatrixTest, EveryFaultFailsTheUpdateCleanlyAndServingSurvives) {
  FaultGuard guard;
  const bool sharded = GetParam() == Binding::kSharded;
  BoundModel b = BoundModel::Make("fault_matrix", GetParam());
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", b.path, b.f.shared_train()).ok());
  RequestServer server(&registry);

  const std::string journal_path = UpdateJournal::PathFor(b.path);
  const std::string base_bytes = b.Snapshot();
  const uint64_t base_generation = registry.generation();

  struct Case {
    const char* point;
    bool leaves_pending;  // journal.fsync: the record may have survived
  };
  // Sharded updates keep no journal, so only the publish and entry
  // points can fire on them.
  std::vector<Case> cases = {{"store.write", false},
                             {"store.fsync", false},
                             {"store.rename", false},
                             {"update.apply", false}};
  if (!sharded) {
    cases.push_back({"journal.append", false});
    cases.push_back({"journal.fsync", true});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.point);
    std::remove(journal_path.c_str());
    ASSERT_TRUE(fault::Configure(std::string(c.point) + "=1").ok());

    auto reply = JsonValue::Parse(server.HandleLine(UpdateRequest()));
    ASSERT_TRUE(reply.ok());
    EXPECT_FALSE(reply->Find("ok")->boolean());
    // The injected error is greppable in the reply.
    ASSERT_NE(reply->Find("error"), nullptr);
    EXPECT_NE(reply->Find("error")->string().find(c.point),
              std::string::npos);
    EXPECT_EQ(fault::Hits(c.point), 1u);

    // No torn state anywhere: nothing published, no stray tmp file, every
    // file byte-identical to before the attempt.
    EXPECT_EQ(server.Stats().updates, 0u);
    EXPECT_EQ(registry.generation(), base_generation);
    EXPECT_FALSE(b.AnyTmpLeft());
    EXPECT_EQ(b.Snapshot(), base_bytes);

    if (sharded) {
      // The set on disk still opens: no member disagrees with the
      // manifest.
      auto reopened = OpenShardSet(b.path);
      EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    } else {
      // The journal's verdict matches the failure mode: a clean failure
      // aborts the record; an ambiguous journal fsync leaves it pending
      // (recovery resolves it by fingerprint — at-least-once, never
      // lost).
      auto plan = UpdateJournal::LoadPlan(journal_path);
      ASSERT_TRUE(plan.ok());
      EXPECT_TRUE(plan->applied.empty());
      EXPECT_EQ(plan->has_pending, c.leaves_pending);
    }

    // The daemon is unharmed: the very next recommend answers.
    auto ok = JsonValue::Parse(
        server.HandleLine(R"({"cmd":"recommend","user":3,"m":4})"));
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(ok->Find("ok")->boolean());
    fault::Reset();
  }

  // With every fault cleared the same update goes through end to end.
  std::remove(journal_path.c_str());
  auto reply = JsonValue::Parse(server.HandleLine(UpdateRequest()));
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->Find("ok")->boolean());
  EXPECT_EQ(server.Stats().updates, 1u);
  EXPECT_GT(registry.generation(), base_generation);
  EXPECT_FALSE(b.AnyTmpLeft());
  auto plan = UpdateJournal::LoadPlan(journal_path);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->applied.size(), sharded ? 0u : 1u);
  EXPECT_FALSE(plan->has_pending);
  if (sharded) {
    auto reopened = OpenShardSet(b.path);
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
  }
  b.Cleanup();
}

TEST_P(UpdateFaultMatrixTest, DirsyncFailureAfterRenameStillPublishes) {
  // DurableRename's dirsync comes AFTER the rename: when only it fails,
  // the file has already moved, so the update must report success — the
  // journal must commit (recovery must never replay an update that
  // clients can already observe), and a shardset must go on to publish
  // its manifest instead of leaving a member the manifest disowns.
  FaultGuard guard;
  const bool sharded = GetParam() == Binding::kSharded;
  BoundModel b = BoundModel::Make("fault_dirsync", GetParam());
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", b.path, b.f.shared_train()).ok());
  RequestServer server(&registry);
  ASSERT_TRUE(fault::Configure("store.dirsync=1").ok());

  auto reply = JsonValue::Parse(server.HandleLine(UpdateRequest()));
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->Find("ok")->boolean()) << reply->Find("error")->string();
  EXPECT_EQ(fault::Hits("store.dirsync"), 1u);
  EXPECT_EQ(server.Stats().updates, 1u);
  EXPECT_FALSE(b.AnyTmpLeft());
  if (sharded) {
    auto reopened = OpenShardSet(b.path);
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    auto reload = JsonValue::Parse(server.HandleLine(R"({"cmd":"reload"})"));
    ASSERT_TRUE(reload.ok());
    EXPECT_TRUE(reload->Find("ok")->boolean())
        << reload->Find("error")->string();
  } else {
    auto plan = UpdateJournal::LoadPlan(UpdateJournal::PathFor(b.path));
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan->applied.size(), 1u);
    EXPECT_FALSE(plan->has_pending);
  }
  b.Cleanup();
}

// ------------------------------------------------- crash-window recovery

TEST(JournalRecoveryTest, CrashBeforeRenameReplaysBitIdentically) {
  DaemonFixture f = DaemonFixture::Make("fault_replay.oclr");
  const std::string base_copy = TempPath("fault_replay_base.oclr");
  WriteFileBytes(base_copy, ReadFileBytes(f.model_path));
  const std::vector<std::pair<uint32_t, uint32_t>> adds = {
      {50, 0}, {50, 7}, {50, 12}};

  // Simulate the crash window: the previous incarnation journaled the
  // update (fingerprint of the artifact it retrained from) and died
  // before the rename — artifact untouched, record pending.
  auto fingerprint = fs::FileFingerprint(f.model_path);
  ASSERT_TRUE(fingerprint.ok());
  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(UpdateJournal::PathFor(f.model_path)).ok());
  ASSERT_TRUE(
      journal.AppendUpdate(MakeRecord(*fingerprint, adds, 51, 30, 3)).ok());
  journal.Close();

  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);
  auto recovered = server.updater().RecoverJournal("default");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->replayed_pending);
  EXPECT_FALSE(recovered->healed_commit);
  EXPECT_EQ(recovered->applied_merged, 0u);
  EXPECT_EQ(server.Stats().journal_replays, 1u);

  // The replay ran the exact pipeline the lost ack promised: the
  // recovered artifact is byte-identical to the offline oracle's, and
  // serving the brand-new user matches the oracle exactly.
  OfflineUpdate oracle = ReplayUpdate(base_copy, f.train, adds, 3);
  const std::string oracle_path = TempPath("fault_replay_oracle.oclr");
  ASSERT_TRUE(SaveModelBinary(oracle.model, oracle.config, oracle_path).ok());
  EXPECT_EQ(ReadFileBytes(f.model_path), ReadFileBytes(oracle_path));

  const auto expect = Oracle(oracle.model, oracle.train, 5);
  EXPECT_TRUE(ReplyMatchesRanked(
      server.HandleLine(R"({"cmd":"recommend","user":50,"m":5})"),
      expect[50]));

  // The journal is now committed, and a second restart is idempotent:
  // the (same) delta re-merges, nothing replays, the artifact is stable.
  const std::string recovered_bytes = ReadFileBytes(f.model_path);
  ModelRegistry registry2;
  ASSERT_TRUE(registry2.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server2(&registry2);
  auto again = server2.updater().RecoverJournal("default");
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_FALSE(again->replayed_pending);
  EXPECT_EQ(again->applied_merged, 1u);
  EXPECT_EQ(ReadFileBytes(f.model_path), recovered_bytes);
  EXPECT_TRUE(ReplyMatchesRanked(
      server2.HandleLine(R"({"cmd":"recommend","user":50,"m":5})"),
      expect[50]));

  std::remove(base_copy.c_str());
  std::remove(oracle_path.c_str());
  f.Cleanup();
}

TEST(JournalRecoveryTest, PublishedButUncommittedUpdateHealsTheCommit) {
  // The other side of the crash window: the rename landed (the live
  // artifact's fingerprint moved past the record's base) but the commit
  // record is missing. The adds are law — recovery must merge them and
  // append the commit, never retrain over the published artifact.
  DaemonFixture f = DaemonFixture::Make("fault_heal.oclr");
  auto fingerprint = fs::FileFingerprint(f.model_path);
  ASSERT_TRUE(fingerprint.ok());
  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(UpdateJournal::PathFor(f.model_path)).ok());
  ASSERT_TRUE(journal
                  .AppendUpdate(MakeRecord(*fingerprint ^ 0x1234,
                                           {{50, 1}, {50, 4}}, 51, 30))
                  .ok());
  journal.Close();
  const std::string artifact_bytes = ReadFileBytes(f.model_path);

  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer server(&registry);
  auto recovered = server.updater().RecoverJournal("default");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->healed_commit);
  EXPECT_FALSE(recovered->replayed_pending);
  EXPECT_EQ(recovered->applied_merged, 1u);
  // Healing touches the journal, never the published artifact.
  EXPECT_EQ(ReadFileBytes(f.model_path), artifact_bytes);
  auto plan = UpdateJournal::LoadPlan(UpdateJournal::PathFor(f.model_path));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->applied.size(), 1u);
  EXPECT_FALSE(plan->has_pending);
  // The healed deltas are live in the serving base: user 50's adds now
  // exclude those items from its recommendations.
  auto model = registry.Get("default");
  ASSERT_NE(model, nullptr);
  ASSERT_NE(model->train, nullptr);
  EXPECT_EQ(model->train->num_rows(), 51u);
  f.Cleanup();
}

TEST(JournalRecoveryTest, RecordsWithoutABoundDatasetRefuseRecovery) {
  DaemonFixture f = DaemonFixture::Make("fault_nodataset.oclr");
  UpdateJournal journal;
  ASSERT_TRUE(journal.Open(UpdateJournal::PathFor(f.model_path)).ok());
  ASSERT_TRUE(journal.AppendUpdate(MakeRecord(1, {{50, 0}}, 51, 30)).ok());
  ASSERT_TRUE(journal.AppendCommit().ok());
  journal.Close();

  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path).ok());  // no dataset
  RequestServer server(&registry);
  auto recovered = server.updater().RecoverJournal("default");
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().ToString().find("no bound dataset"),
            std::string::npos);
  f.Cleanup();
}

TEST(JournalRecoveryTest, PoisonedPendingRecordFailsRecoveryInsteadOfCrashing) {
  // A record journaled by a build that accepted an id of UINT32_MAX (its
  // +1 wraps the shape to 0) must make recovery refuse, never replay: the
  // retrain would read past the factors and crash on every restart.
  const std::vector<std::pair<uint32_t, uint32_t>> kPoisoned[] = {
      {{3, UINT32_MAX}}, {{UINT32_MAX, 0}}};
  for (const auto& adds : kPoisoned) {
    DaemonFixture f = DaemonFixture::Make("fault_poison.oclr");
    auto fingerprint = fs::FileFingerprint(f.model_path);
    ASSERT_TRUE(fingerprint.ok());
    UpdateJournal journal;
    ASSERT_TRUE(journal.Open(UpdateJournal::PathFor(f.model_path)).ok());
    ASSERT_TRUE(
        journal.AppendUpdate(MakeRecord(*fingerprint, adds, 50, 30)).ok());
    journal.Close();
    const std::string artifact_bytes = ReadFileBytes(f.model_path);

    ModelRegistry registry;
    ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
    RequestServer server(&registry);
    auto recovered = server.updater().RecoverJournal("default");
    ASSERT_FALSE(recovered.ok());
    EXPECT_NE(recovered.status().ToString().find("4294967295"),
              std::string::npos)
        << recovered.status().ToString();
    // Nothing was published and the record stays for the operator.
    EXPECT_EQ(ReadFileBytes(f.model_path), artifact_bytes);
    EXPECT_EQ(server.Stats().journal_replays, 0u);
    auto plan = UpdateJournal::LoadPlan(UpdateJournal::PathFor(f.model_path));
    ASSERT_TRUE(plan.ok());
    EXPECT_TRUE(plan->has_pending);
    f.Cleanup();
  }
}

TEST(JournalRecoveryTest, OversizedPendingShapeFailsRecoveryInsteadOfAborting) {
  // A pending record whose shape needs more factor memory than the
  // machine has must make recovery refuse before allocating: replaying
  // it would throw std::bad_alloc (abort under ASan) on every restart.
  struct Oversized {
    std::vector<std::pair<uint32_t, uint32_t>> adds;
    uint32_t items;
  };
  const Oversized kOversized[] = {{{{1, 2}}, 4000000000u},
                                  {{{1, 4294967294u}}, 30}};
  for (const Oversized& record : kOversized) {
    DaemonFixture f = DaemonFixture::Make("fault_oversized.oclr");
    auto fingerprint = fs::FileFingerprint(f.model_path);
    ASSERT_TRUE(fingerprint.ok());
    UpdateJournal journal;
    ASSERT_TRUE(journal.Open(UpdateJournal::PathFor(f.model_path)).ok());
    ASSERT_TRUE(journal
                    .AppendUpdate(MakeRecord(*fingerprint, record.adds, 50,
                                             record.items))
                    .ok());
    journal.Close();
    const std::string artifact_bytes = ReadFileBytes(f.model_path);

    ModelRegistry registry;
    ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
    RequestServer server(&registry);
    auto recovered = server.updater().RecoverJournal("default");
    ASSERT_FALSE(recovered.ok());
    EXPECT_NE(recovered.status().ToString().find("memory"), std::string::npos)
        << recovered.status().ToString();
    // Nothing was published and the record stays for the operator.
    EXPECT_EQ(ReadFileBytes(f.model_path), artifact_bytes);
    EXPECT_EQ(server.Stats().journal_replays, 0u);
    auto plan = UpdateJournal::LoadPlan(UpdateJournal::PathFor(f.model_path));
    ASSERT_TRUE(plan.ok());
    EXPECT_TRUE(plan->has_pending);
    f.Cleanup();
  }
}

// --------------------------------------------------- connection guards

/// Minimal raw TCP client (same shape as daemon_test's): exact control
/// over partial sends and reads that the load generator hides.
struct RawClient {
  int fd = -1;
  std::string buffer;

  bool Connect(uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }
  bool Send(const std::string& line) {
    const std::string framed = line + "\n";
    return net::SendAll(fd, framed.data(), framed.size());
  }
  bool SendRaw(const std::string& bytes) {
    return net::SendAll(fd, bytes.data(), bytes.size());
  }
  bool ReadLine(std::string* line) { return net::ReadLine(fd, &buffer, line); }
  void Close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

uint16_t WaitForPort(const RequestServer& server, std::thread* serve_thread) {
  for (int ms = 0; ms < 10000; ++ms) {
    const uint16_t port = server.bound_port();
    if (port != 0) return port;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (serve_thread->joinable()) serve_thread->join();
  return 0;
}

TEST(ConnectionGuardTest, OversizeLineGets413AndABoundedBuffer) {
  DaemonFixture f = DaemonFixture::Make("fault_oversize.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.num_workers = 1;
  options.io_timeout_ms = 100;
  RequestServer server(&registry, options);  // max_request_bytes = 1 MiB

  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 3).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0);

  // Deterministic 413: push just past the cap, stop, read the reply.
  {
    RawClient c;
    ASSERT_TRUE(c.Connect(port));
    const std::string chunk(256 << 10, 'x');  // newline-free
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(c.SendRaw(chunk));  // 1.25 MiB
    std::string line;
    ASSERT_TRUE(c.ReadLine(&line)) << "oversize line must get a reply";
    auto parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok()) << line;
    EXPECT_FALSE(parsed->Find("ok")->boolean());
    ASSERT_NE(parsed->Find("code"), nullptr);
    EXPECT_EQ(parsed->Find("code")->number(), 413.0);
    EXPECT_FALSE(c.ReadLine(&line)) << "oversize connection must be closed";
    c.Close();
  }

  // The OOM regression: a 64 MiB newline-free stream. The server stops
  // reading at the cap and closes, so the kernel backpressures our send
  // long before 64 MiB — the worker's buffer can never absorb the flood.
  {
    RawClient c;
    ASSERT_TRUE(c.Connect(port));
    const std::string chunk(1 << 20, 'y');
    size_t sent = 0;
    for (int i = 0; i < 64; ++i) {
      if (!c.SendRaw(chunk)) break;  // peer closed: RST ends the flood
      sent += chunk.size();
    }
    EXPECT_LT(sent, size_t{64} << 20)
        << "the server kept reading an unbounded newline-free stream";
    c.Close();
  }

  // The daemon survived both abuses and still serves.
  {
    RawClient c;
    ASSERT_TRUE(c.Connect(port));
    ASSERT_TRUE(c.Send(R"({"cmd":"recommend","user":3,"m":4})"));
    std::string line;
    ASSERT_TRUE(c.ReadLine(&line));
    auto parsed = JsonValue::Parse(line);
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed->Find("ok")->boolean());
    c.Close();
  }
  serve_thread.join();
  EXPECT_GE(server.Stats().errors, 1u);
  f.Cleanup();
}

TEST(ConnectionGuardTest, IdleConnectionIsReapedWith408) {
  DaemonFixture f = DaemonFixture::Make("fault_idle.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.num_workers = 1;
  options.io_timeout_ms = 50;    // the reaper's wakeup tick
  options.idle_timeout_ms = 150;
  RequestServer server(&registry, options);

  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 1).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0);

  RawClient c;
  ASSERT_TRUE(c.Connect(port));
  // Slow-loris: dribble bytes but never a complete request. The idle
  // clock counts completed requests, so this connection is idle despite
  // being byte-active.
  ASSERT_TRUE(c.SendRaw(R"({"cmd":)"));
  std::string line;
  ASSERT_TRUE(c.ReadLine(&line)) << "idle connection must get a 408 reply";
  auto parsed = JsonValue::Parse(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_FALSE(parsed->Find("ok")->boolean());
  ASSERT_NE(parsed->Find("code"), nullptr);
  EXPECT_EQ(parsed->Find("code")->number(), 408.0);
  EXPECT_FALSE(c.ReadLine(&line)) << "reaped connection must be closed";
  c.Close();
  serve_thread.join();
  EXPECT_EQ(server.Stats().connections_timed_out, 1u);
  f.Cleanup();
}

TEST(ShedRetryTest, LoadgenAbsorbs503WithBackoffAndTheRunCompletes) {
  DaemonFixture f = DaemonFixture::Make("fault_shed_retry.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.num_workers = 1;
  // Blockers A and B hold both admission slots; the loadgen client is
  // shed with 503 until the releaser frees a slot. (Under the epoll core
  // idle connections cost no worker, so the cap — not a parked worker —
  // is what produces the shed.)
  options.max_connections = 2;
  options.io_timeout_ms = 50;
  options.retry_after_ms = 10;
  RequestServer server(&registry, options);

  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 0).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0);

  RawClient a;
  ASSERT_TRUE(a.Connect(port));
  ASSERT_TRUE(a.Send(R"({"user":0,"m":3})"));
  std::string line;
  ASSERT_TRUE(a.ReadLine(&line));  // A is live and admitted
  RawClient b;
  ASSERT_TRUE(b.Connect(port));  // takes the second (and last) slot
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Release the blockers while the loadgen is backing off: its shed
  // batches must be retried and the run must account for every request.
  std::thread releaser([&a, &b] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    a.Close();
    b.Close();
  });

  LoadGenOptions load;
  load.port = port;
  load.clients = 1;
  load.requests_per_client = 8;
  load.pipeline = 4;
  load.m = 4;
  load.num_users = 50;
  auto result = RunLoadGen(load);
  releaser.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->requests, 8u);
  EXPECT_EQ(result->ok_replies, 8u);
  EXPECT_EQ(result->error_replies, 0u);
  EXPECT_GE(result->shed_retries, 1u);
  EXPECT_GE(server.Stats().connections_shed, 1u);

  // In-process drain: the latch stops the accept loop, the pool drains,
  // RunTcpLoop returns OK, and the latch is consumed for the next test.
  LineServer::RequestShutdown();
  serve_thread.join();
  EXPECT_FALSE(LineServer::ShutdownRequested());
  f.Cleanup();
}

TEST(ConnectionCoreFaultTest, EpollStallInjectionDoesNotDropConnections) {
  FaultGuard guard;
  DaemonFixture f = DaemonFixture::Make("fault_epoll_stall.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.num_workers = 1;
  options.io_timeout_ms = 1000;  // deadlines far beyond the injected stall
  RequestServer server(&registry, options);

  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 0).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0);

  // Freeze the whole readiness loop (reads, flushes, accepts, sweeps) for
  // several iterations while pipelined traffic is in flight. The stall is
  // pure delay: every request must still be answered, nothing shed,
  // nothing torn.
  ASSERT_TRUE(fault::Configure("daemon.epoll=3").ok());
  LoadGenOptions load;
  load.port = port;
  load.clients = 2;
  load.requests_per_client = 16;
  load.pipeline = 4;
  load.m = 4;
  load.num_users = 50;
  auto result = RunLoadGen(load);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->requests, 32u);
  EXPECT_EQ(result->ok_replies, 32u);
  EXPECT_EQ(result->error_replies, 0u);
  EXPECT_EQ(server.Stats().connections_shed, 0u);

  LineServer::RequestShutdown();
  serve_thread.join();
  EXPECT_FALSE(LineServer::ShutdownRequested());
  f.Cleanup();
}

TEST(ConnectionCoreFaultTest, FlushFaultTearsOnlyTheTargetConnection) {
  FaultGuard guard;
  DaemonFixture f = DaemonFixture::Make("fault_flush_tear.oclr");
  ModelRegistry registry;
  ASSERT_TRUE(registry.Load("default", f.model_path, f.shared_train()).ok());
  RequestServer::Options options;
  options.num_workers = 1;
  options.io_timeout_ms = 50;
  RequestServer server(&registry, options);

  std::thread serve_thread([&server] {
    EXPECT_TRUE(server.RunTcpLoop(0, 2).ok());
  });
  const uint16_t port = WaitForPort(server, &serve_thread);
  ASSERT_NE(port, 0);

  // A's first reply flush dies ("daemon.flush"): the connection is torn
  // mid-write-path — abrupt close, no reply bytes.
  RawClient a;
  ASSERT_TRUE(a.Connect(port));
  ASSERT_TRUE(fault::Configure("daemon.flush=1").ok());
  ASSERT_TRUE(a.Send(R"({"user":1,"m":3})"));
  std::string line;
  EXPECT_FALSE(a.ReadLine(&line))
      << "flush-faulted connection must close without a reply, got: " << line;
  a.Close();

  // The blast radius is exactly one connection: the next client is served
  // normally by the same loop.
  RawClient b;
  ASSERT_TRUE(b.Connect(port));
  ASSERT_TRUE(b.Send(R"({"user":1,"m":3})"));
  ASSERT_TRUE(b.ReadLine(&line)) << "connection after the tear must serve";
  auto parsed = JsonValue::Parse(line);
  ASSERT_TRUE(parsed.ok()) << line;
  EXPECT_TRUE(parsed->Find("ok")->boolean());
  b.Close();
  serve_thread.join();
  EXPECT_EQ(server.Stats().connections_shed, 0u);
  f.Cleanup();
}

// ------------------------------------------------ fork/exec chaos drills

#ifndef OCULAR_TSAN

/// A free loopback port: bind 0, read the assignment, close. The tiny
/// close-to-exec race is acceptable for tests.
uint16_t FreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof(addr);
  uint16_t port = 0;
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) ==
      0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

/// The real daemon binary as a child process, stderr captured to a file,
/// faults injected through OCULAR_FAULTS.
struct ServedProcess {
  pid_t pid = -1;
  std::string stderr_path;

  static ServedProcess Start(const std::vector<std::string>& args,
                             const std::string& faults,
                             const std::string& stderr_path) {
    ServedProcess p;
    p.stderr_path = stderr_path;
    p.pid = ::fork();
    if (p.pid == 0) {
      if (faults.empty()) {
        ::unsetenv("OCULAR_FAULTS");
      } else {
        ::setenv("OCULAR_FAULTS", faults.c_str(), 1);
      }
      const int err =
          ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (err >= 0) {
        ::dup2(err, 2);
        ::close(err);
      }
      const int null = ::open("/dev/null", O_RDONLY);
      if (null >= 0) {
        ::dup2(null, 0);
        ::close(null);
      }
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(OCULAR_SERVED_PATH));
      for (const std::string& a : args) {
        argv.push_back(const_cast<char*>(a.c_str()));
      }
      argv.push_back(nullptr);
      ::execv(OCULAR_SERVED_PATH, argv.data());
      ::_exit(127);
    }
    return p;
  }

  /// Waits (bounded) for the child to die; returns the raw wait status,
  /// or -1 on timeout.
  int Wait(int timeout_ms = 30000) {
    for (int waited = 0; waited < timeout_ms; waited += 10) {
      int status = 0;
      const pid_t done = ::waitpid(pid, &status, WNOHANG);
      if (done == pid) {
        pid = -1;
        return status;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }

  void KillHard() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      Wait();
    }
  }
  ~ServedProcess() { KillHard(); }
};

/// Polls until the daemon accepts on `port` (it is serving) or the child
/// died. Returns whether a connection succeeded.
bool WaitForServing(uint16_t port, ServedProcess* served,
                    int timeout_ms = 20000) {
  for (int waited = 0; waited < timeout_ms; waited += 20) {
    RawClient probe;
    if (probe.Connect(port)) {
      probe.Close();
      return true;
    }
    int status = 0;
    if (served->pid > 0 &&
        ::waitpid(served->pid, &status, WNOHANG) == served->pid) {
      served->pid = -1;
      return false;  // died before listening
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// One round trip on a fresh connection; empty string on failure.
std::string RoundTrip(uint16_t port, const std::string& request) {
  RawClient c;
  if (!c.Connect(port)) return "";
  std::string line;
  if (!c.Send(request) || !c.ReadLine(&line)) line.clear();
  c.Close();
  return line;
}

/// Writes `train` as the `user<TAB>item` dataset the daemon loads, and
/// returns the loader's view of it (the exact matrix the daemon serves
/// and recovers against).
CsrMatrix WriteAndReloadDataset(const CsrMatrix& train,
                                const std::string& path) {
  std::ofstream out(path);
  for (auto [u, i] : train.ToPairs()) out << u << '\t' << i << '\n';
  out.close();
  CsvOptions opts;
  opts.delimiter = '\t';
  // Mirror serve_main exactly: the daemon keeps raw ids so dataset row u
  // IS model user u; the default dense remap would permute columns.
  opts.compact_ids = false;
  auto ds = LoadCsv(path, opts);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return ds->interactions();
}

TEST(ChaosSubprocessTest, KillBeforeRenameIsReplayedBitIdenticallyOnRestart) {
  DaemonFixture f = DaemonFixture::Make("chaos_replay.oclr");
  const std::string dataset_path = TempPath("chaos_replay.tsv");
  const CsrMatrix train = WriteAndReloadDataset(f.train, dataset_path);
  ASSERT_EQ(train.num_rows(), f.train.num_rows());
  ASSERT_EQ(train.num_cols(), f.train.num_cols());
  const std::string base_copy = TempPath("chaos_replay_base.oclr");
  WriteFileBytes(base_copy, ReadFileBytes(f.model_path));

  const uint16_t port = FreePort();
  ASSERT_NE(port, 0);
  const std::vector<std::string> args = {
      "--models=default=" + f.model_path,
      "--datasets=default=" + dataset_path,
      "--port=" + std::to_string(port),
      "--io-timeout-ms=100",
  };

  // Incarnation 1: armed to SIGKILL itself inside the crash window — the
  // journal append has happened, the rename has not.
  ServedProcess crashed = ServedProcess::Start(
      args, "store.rename=kill", TempPath("chaos_replay_stderr1.log"));
  ASSERT_TRUE(WaitForServing(port, &crashed));
  ASSERT_FALSE(RoundTrip(port, R"({"cmd":"recommend","user":3,"m":4})")
                   .empty());
  // The killing update: the connection dies with no reply.
  EXPECT_TRUE(
      RoundTrip(port,
                R"({"cmd":"update","adds":[[50,0],[50,7],[50,12]],"sweeps":3})")
          .empty());
  const int status = crashed.Wait();
  ASSERT_NE(status, -1) << "daemon did not die in the kill window";
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // The crash left the artifact untouched and the journal pending.
  EXPECT_EQ(ReadFileBytes(f.model_path), ReadFileBytes(base_copy));
  auto plan = UpdateJournal::LoadPlan(UpdateJournal::PathFor(f.model_path));
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->has_pending);

  // Incarnation 2, no faults: startup recovery must replay the update.
  const std::string stderr2 = TempPath("chaos_replay_stderr2.log");
  ServedProcess recovered = ServedProcess::Start(args, "", stderr2);
  ASSERT_TRUE(WaitForServing(port, &recovered));

  auto stats = JsonValue::Parse(RoundTrip(port, R"({"cmd":"stats"})"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Find("journal_replays")->number(), 1.0);

  // Bit-identical recovery: the restarted daemon's artifact equals the
  // offline oracle's, and the acked-then-crashed user serves exactly.
  const OfflineUpdate oracle =
      ReplayUpdate(base_copy, train, {{50, 0}, {50, 7}, {50, 12}}, 3);
  const std::string oracle_path = TempPath("chaos_replay_oracle.oclr");
  ASSERT_TRUE(SaveModelBinary(oracle.model, oracle.config, oracle_path).ok());
  EXPECT_EQ(ReadFileBytes(f.model_path), ReadFileBytes(oracle_path));
  const auto expect = Oracle(oracle.model, oracle.train, 5);
  EXPECT_TRUE(ReplyMatchesRanked(
      RoundTrip(port, R"({"cmd":"recommend","user":50,"m":5})"), expect[50]));

  // SIGTERM drains gracefully: exit 0 with the final stats line.
  ASSERT_EQ(::kill(recovered.pid, SIGTERM), 0);
  const int drained = recovered.Wait();
  ASSERT_NE(drained, -1) << "daemon did not drain on SIGTERM";
  ASSERT_TRUE(WIFEXITED(drained));
  EXPECT_EQ(WEXITSTATUS(drained), 0);
  const std::string log = ReadFileBytes(stderr2);
  EXPECT_NE(log.find("crashed update replayed"), std::string::npos) << log;
  EXPECT_NE(log.find("drained:"), std::string::npos) << log;

  std::remove(dataset_path.c_str());
  std::remove(base_copy.c_str());
  std::remove(oracle_path.c_str());
  f.Cleanup();
}

TEST(ChaosSubprocessTest, SigkillAfterAckedUpdatesRecoversEveryDelta) {
  DaemonFixture f = DaemonFixture::Make("chaos_storm.oclr");
  const std::string dataset_path = TempPath("chaos_storm.tsv");
  const CsrMatrix train = WriteAndReloadDataset(f.train, dataset_path);
  const std::string base_copy = TempPath("chaos_storm_base.oclr");
  WriteFileBytes(base_copy, ReadFileBytes(f.model_path));

  const uint16_t port = FreePort();
  ASSERT_NE(port, 0);
  const std::vector<std::string> args = {
      "--models=default=" + f.model_path,
      "--datasets=default=" + dataset_path,
      "--port=" + std::to_string(port),
      "--io-timeout-ms=100",
  };

  ServedProcess served =
      ServedProcess::Start(args, "", TempPath("chaos_storm_stderr1.log"));
  ASSERT_TRUE(WaitForServing(port, &served));

  // A storm of acked updates, then a power cut with zero warning.
  const std::vector<std::pair<uint32_t, uint32_t>> adds1 = {{50, 1}, {50, 4}};
  const std::vector<std::pair<uint32_t, uint32_t>> adds2 = {{51, 2}, {51, 9}};
  for (const char* request :
       {R"({"cmd":"update","adds":[[50,1],[50,4]],"sweeps":2})",
        R"({"cmd":"update","adds":[[51,2],[51,9]],"sweeps":2})"}) {
    auto reply = JsonValue::Parse(RoundTrip(port, request));
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply->Find("ok")->boolean());
  }
  served.KillHard();

  // Restart: both committed deltas must be re-merged (the dataset CSV on
  // disk knows nothing about them) and serving must match the offline
  // chain of both updates exactly.
  const std::string stderr2 = TempPath("chaos_storm_stderr2.log");
  ServedProcess recovered = ServedProcess::Start(args, "", stderr2);
  ASSERT_TRUE(WaitForServing(port, &recovered));
  auto stats = JsonValue::Parse(RoundTrip(port, R"({"cmd":"stats"})"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Find("journal_recovered")->number(), 2.0);
  EXPECT_EQ(stats->Find("journal_replays")->number(), 0.0);

  const OfflineUpdate first = ReplayUpdate(base_copy, train, adds1, 2);
  const std::string chain_path = TempPath("chaos_storm_chain.oclr");
  ASSERT_TRUE(SaveModelBinary(first.model, first.config, chain_path).ok());
  const OfflineUpdate second = ReplayUpdate(chain_path, first.train, adds2, 2);
  const auto expect = Oracle(second.model, second.train, 5);
  for (uint32_t user : {uint32_t{3}, uint32_t{50}, uint32_t{51}}) {
    EXPECT_TRUE(ReplyMatchesRanked(
        RoundTrip(port, R"({"cmd":"recommend","user":)" +
                            std::to_string(user) + R"(,"m":5})"),
        expect[user]))
        << "user " << user;
  }

  ASSERT_EQ(::kill(recovered.pid, SIGTERM), 0);
  const int drained = recovered.Wait();
  ASSERT_NE(drained, -1);
  ASSERT_TRUE(WIFEXITED(drained));
  EXPECT_EQ(WEXITSTATUS(drained), 0);
  EXPECT_NE(ReadFileBytes(stderr2).find("journal recovery for 'default'"),
            std::string::npos);

  std::remove(dataset_path.c_str());
  std::remove(base_copy.c_str());
  std::remove(chain_path.c_str());
  f.Cleanup();
}

#endif  // OCULAR_TSAN

}  // namespace
}  // namespace ocular
