#ifndef OCULAR_SERVING_JOURNAL_H_
#define OCULAR_SERVING_JOURNAL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"

namespace ocular {

/// \file
/// \brief The update journal: a durable write-ahead log of `update` verbs.
///
/// The daemon's in-place update pipeline (serving/updater.h, Updater::Apply)
/// acks an update only after the refreshed artifact is renamed over the
/// model file. Two crash windows would still lose state without a log:
///
///   1. Crash between journal-append and artifact rename: the refresh
///      never published. The journal's trailing *pending* record carries
///      everything needed to replay it deterministically (adds, dims,
///      sweeps, seed) plus the fingerprint of the artifact it was based
///      on, so recovery can tell "replay me" from "I already published".
///   2. Restart at any later point: the `--datasets` CSV on disk is the
///      ORIGINAL training snapshot — without the journal, every applied
///      update's interaction deltas would vanish from the exclusion rows
///      and from future updates' training base. The journal doubles as
///      the durable delta log: recovery re-merges every committed
///      record's adds into the bound training matrix before serving.
///
/// On-disk format (`<model>.update.journal`): a sequence of length-
/// prefixed, checksummed records, appended with O_APPEND + fsync:
///
///   [u32 type][u32 payload_len][u64 fnv1a64(payload)][payload]
///
/// kUpdate payload: u64 base_fingerprint, u64 seed, u32 num_users,
/// u32 num_items, u32 sweeps, u32 reserved, u64 n, then n x (u32 user,
/// u32 item). kCommit/kAbort carry no payload. Integers are host-endian:
/// the journal is a same-machine crash-recovery artifact, not an
/// interchange format. A torn or corrupt tail (short header, short
/// payload, checksum mismatch) ends the readable prefix — everything
/// before it is trusted, everything after discarded.
///
/// Lifecycle discipline: each kUpdate is closed by exactly one kCommit
/// (artifact renamed — the adds are law) or kAbort (clean failure before
/// the rename — the adds never happened). Only a crash leaves a trailing
/// pending record; Updater::RecoverJournal resolves it by
/// fingerprint on the next start. The journal must stay next to the model
/// file for as long as the original dataset snapshot is the serving base;
/// deleting it forgets every applied update's deltas on the next restart
/// (see docs/OPERATIONS.md, "Failure modes & recovery").

/// \brief One `update` verb as journaled: the full recipe to re-run it.
struct UpdateRecord {
  /// fs::FileFingerprint of the artifact this update refreshed FROM,
  /// taken before the refresh. Recovery compares it against the live
  /// artifact to decide replay (equal: the rename never happened) vs
  /// heal (different: the rename published, only the commit is missing).
  uint64_t base_fingerprint = 0;
  /// Expansion seed of the request (0 = shape-derived stream).
  uint64_t seed = 0;
  /// Final (post-growth) training dimensions the update resolved to.
  uint32_t num_users = 0;
  uint32_t num_items = 0;
  /// Refresh rounds over the touched rows (RefreshModel).
  uint32_t sweeps = 0;
  /// The interaction deltas.
  std::vector<std::pair<uint32_t, uint32_t>> adds;
};

/// \brief Appender + torn-tail-tolerant reader for the update journal.
/// Appends are serialized by the caller (the Updater's mutex); the
/// reader is a static, whole-file pass used only at recovery time.
class UpdateJournal {
 public:
  enum class RecordType : uint32_t {
    kUpdate = 1,  ///< an update was received and is about to refresh
    kCommit = 2,  ///< its artifact was renamed into place — adds are law
    kAbort = 3,   ///< it failed cleanly before the rename — adds are void
  };

  /// \brief A decoded journal record. `update` is meaningful only for
  /// kUpdate records.
  struct Record {
    RecordType type = RecordType::kUpdate;
    UpdateRecord update;
  };

  /// \brief The journal interpreted for recovery: which updates are law,
  /// and whether a trailing pending record needs fingerprint resolution.
  struct Plan {
    /// Committed updates in append order (includes pending records that
    /// LoadPlan could already prove published — none; that resolution
    /// needs the live artifact and is RecoverJournal's job).
    std::vector<UpdateRecord> applied;
    /// Trailing kUpdate with no kCommit/kAbort — a crash window.
    bool has_pending = false;
    UpdateRecord pending;
    /// kAbort groups seen (informational).
    uint64_t aborted = 0;
    /// True when the file ended in a torn/corrupt record; the readable
    /// prefix above is still trusted.
    bool torn_tail = false;
  };

  UpdateJournal() = default;
  ~UpdateJournal();
  UpdateJournal(UpdateJournal&& other) noexcept;
  UpdateJournal& operator=(UpdateJournal&& other) noexcept;
  UpdateJournal(const UpdateJournal&) = delete;
  UpdateJournal& operator=(const UpdateJournal&) = delete;

  /// \brief The journal path for a model artifact path.
  static std::string PathFor(const std::string& model_path) {
    return model_path + ".update.journal";
  }

  /// \brief Opens (creating if absent) `path` for appending.
  Status Open(const std::string& path);
  bool is_open() const { return fd_ >= 0; }
  void Close();

  /// \brief Appends one record and fsyncs the journal — the record is
  /// durable when this returns OK. Fault points "journal.append" (before
  /// the write: nothing lands) and "journal.fsync" (after the write:
  /// the record may or may not survive a crash — callers must fail the
  /// update, and recovery treats a surviving record like any pending
  /// one).
  Status AppendUpdate(const UpdateRecord& record);
  Status AppendCommit();
  Status AppendAbort();

  /// \brief Reads every well-formed record from `path` in order, stopping
  /// at (and discarding) a torn/corrupt tail; `*torn_tail` reports whether
  /// one was found. A missing file is an empty journal, not an error.
  static Result<std::vector<Record>> ReadAll(const std::string& path,
                                             bool* torn_tail = nullptr);

  /// \brief ReadAll + lifecycle interpretation (see Plan).
  static Result<Plan> LoadPlan(const std::string& path);

 private:
  Status AppendFrame(RecordType type, const std::string& payload);

  int fd_ = -1;
  std::string path_;
};

}  // namespace ocular

#endif  // OCULAR_SERVING_JOURNAL_H_
