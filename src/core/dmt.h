// Data Mapping Table (DMT), §III-D Fig. 5.
//
// Tracks which byte ranges of each original (DServer) file are cached in
// the corresponding cache (CServer) file, where they live there, and
// whether the cached copy is dirty (D_flag). The in-memory table is a
// per-file ordered extent map supporting range lookup, splitting on partial
// overwrite/invalidation, LRU victim selection over *clean* extents, and a
// per-extent version counter that lets the Rebuilder detect writes that
// raced with an in-flight flush.
//
// Each extent is also indexed by its D_flag, in exactly one of two places:
// clean extents in a recency index (oldest first, so a victim search is
// O(log n) however much of the cache is dirty), dirty extents in a
// file-ordered set (so a destage scan costs O(dirty), not O(entries)).
//
// When constructed with a KvStore, every mutation is written through to the
// store (the paper persists the DMT synchronously via Berkeley DB so it
// survives power failures); LoadFromStore() rebuilds the table on restart.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "common/units.h"
#include "kvstore/kvstore.h"

namespace s4d::core {

// One contiguous piece of a lookup result.
struct MappedSegment {
  byte_count orig_begin = 0;
  byte_count orig_end = 0;
  byte_count cache_offset = 0;  // cache-file offset of orig_begin
  bool dirty = false;
};

struct DmtLookup {
  std::vector<MappedSegment> mapped;  // ascending, clipped to the query
  std::vector<std::pair<byte_count, byte_count>> gaps;

  bool fully_mapped() const { return gaps.empty() && !mapped.empty(); }
  bool fully_unmapped() const { return mapped.empty(); }
};

// A mapping removed by eviction or invalidation; the caller returns
// [cache_offset, cache_offset + (orig_end - orig_begin)) to the allocator.
struct RemovedExtent {
  std::string file;
  byte_count orig_begin = 0;
  byte_count orig_end = 0;
  byte_count cache_offset = 0;
  bool dirty = false;

  byte_count length() const { return orig_end - orig_begin; }
};

// A dirty range snapshot handed to the Rebuilder for flushing.
struct DirtyRange {
  std::string file;
  byte_count orig_begin = 0;
  byte_count orig_end = 0;
  byte_count cache_offset = 0;
  std::uint64_t version = 0;  // entry version at snapshot time
};

// A run of dirty extents contiguous in *original-file* space. The segments
// are usually scattered in the cache file (admitted at different times),
// which is fine: the SSD reads them cheaply, and the write-back becomes one
// large sequential HDD write — the coalescing that lets the Rebuilder keep
// up with random-write admission.
struct DirtyRun {
  std::string file;
  byte_count orig_begin = 0;
  byte_count orig_end = 0;
  std::vector<DirtyRange> segments;  // ascending, exactly covering the run

  byte_count length() const { return orig_end - orig_begin; }
};

class DataMappingTable {
 public:
  // `store` may be null (volatile DMT — used by tests and ablations).
  explicit DataMappingTable(kv::KvStore* store = nullptr);

  // Rebuilds the in-memory table from the persisted records.
  Status LoadFromStore();

  DmtLookup Lookup(const std::string& file, byte_count offset,
                   byte_count size) const;

  // Maps [offset, offset+size) -> cache [cache_offset, ...). The range must
  // currently be unmapped (callers Invalidate or fill gaps only).
  void Insert(const std::string& file, byte_count offset, byte_count size,
              byte_count cache_offset, bool dirty);

  // Removes all mappings overlapping [offset, offset+size), splitting
  // boundary entries. Returns the removed (clipped) extents.
  std::vector<RemovedExtent> Invalidate(const std::string& file,
                                        byte_count offset, byte_count size);

  // Sets/clears D_flag over the mapped parts of the range (splits entries
  // at the boundaries). Setting dirty bumps the entries' versions.
  void SetDirty(const std::string& file, byte_count offset, byte_count size,
                bool dirty);

  // LRU bump over mapped parts of the range (no splitting: recency applies
  // to whole entries).
  void Touch(const std::string& file, byte_count offset, byte_count size);

  // Removes and returns the least-recently-used *clean* mapping, or
  // nullopt when every mapping is dirty (or the table is empty).
  std::optional<RemovedExtent> EvictLruClean();

  // Like EvictLruClean(), but only mappings for which `pred` returns true
  // qualify (pred sees the candidate before removal; an empty `pred`
  // accepts every one). Walks the clean recency index oldest-first, so with
  // an always-true predicate the selection is identical to EvictLruClean().
  // Used by the tenant subsystem to restrict victim selection to one cache
  // partition.
  std::optional<RemovedExtent> EvictLruCleanIf(
      const std::function<bool(const RemovedExtent&)>& pred);

  // Snapshots dirty extents in file order, coalescing extents adjacent in
  // the original file into runs of at most `max_run_bytes`, until about
  // `max_total_bytes` have been collected. Walks only the dirty set, so a
  // call costs O(collected) lookups, however many clean extents there are.
  std::vector<DirtyRun> CollectDirtyRuns(byte_count max_total_bytes,
                                         byte_count max_run_bytes) const;

  // Clears D_flag on the entry exactly spanning [begin, end) iff its
  // version still equals `version` (no write raced the flush). Returns
  // whether the entry was cleaned.
  bool MarkCleanIfVersion(const std::string& file, byte_count begin,
                          byte_count end, std::uint64_t version);

  // Every current mapping (ascending per file). Used for recovery-time
  // cache-space re-reservation and by diagnostics.
  std::vector<RemovedExtent> AllExtents() const;

  std::size_t entry_count() const;
  byte_count mapped_bytes() const;
  byte_count dirty_bytes() const;

  // --- dirty-age accounting ----------------------------------------------
  // `clock` supplies the current simulated time; with it installed, every
  // clean→dirty transition stamps the extent (already-dirty extents keep
  // their original stamp — the age measures how long the *oldest write* in
  // the extent has been exposed to loss). The stamp is in-memory only: the
  // persisted record format is unchanged, so a recovered DMT restarts ages
  // at load time. No clock (the default) stamps 0 and the summary below
  // degenerates gracefully.
  void SetClock(std::function<SimTime()> clock) { clock_ = std::move(clock); }

  struct DirtyAgeSummary {
    std::int64_t dirty_extents = 0;
    SimTime oldest = 0;
    SimTime mean = 0;  // exact over every dirty extent
    SimTime p50 = 0;   // from a deterministic stride-decimation sample
  };
  // Walks the dirty extents and summarizes their ages at `now`. The p50
  // comes from a bounded sample thinned by deterministic doubling
  // decimation (no RNG — identical across runs and thread counts).
  DirtyAgeSummary SummarizeDirtyAges(SimTime now) const;

  // Walks the whole table and S4D_CHECKs the representation invariants:
  // per-file extents sorted and non-overlapping with positive length, the
  // mapped/dirty byte counters equal to the recomputed sums, every entry in
  // exactly the index its D_flag names (clean recency index or dirty set;
  // the two sizes sum to the entry count), and versions below the
  // allocator cursor. O(entries); aborts with the violated invariant on
  // failure. Paranoid builds (-DS4D_PARANOID=ON) run it automatically every
  // few mutations; tests call it directly.
  void AuditInvariants() const;

  // Serialized size of one persisted record; reported by bench_metadata to
  // reproduce the §V-E.1 space-overhead estimate.
  static std::size_t ApproxRecordBytes() { return 6 * 4; }

 private:
  friend struct DmtTestPeer;  // corruption injection in test_invariants

  struct Entry {
    byte_count end = 0;           // exclusive
    byte_count cache_offset = 0;  // of the entry's begin
    bool dirty = false;
    std::uint64_t version = 0;
    // Recency stamp, unique per entry. Keys the clean index; a dirty entry
    // keeps its stamp so it re-enters that index at its recency when
    // cleaned.
    std::uint64_t lru_seq = 0;
    // When the extent last transitioned clean→dirty (0 = no clock or
    // clean). In-memory only — never persisted. Splits copy the Entry, so
    // both halves keep the original exposure time.
    SimTime dirty_since = 0;
  };
  using FileMap = std::map<byte_count, Entry>;  // begin -> Entry

  struct LruRef {
    std::uint32_t file_index;
    byte_count begin;
  };
  using DirtyKey = std::pair<std::uint32_t, byte_count>;  // (file, begin)

  FileMap* FindFile(const std::string& file);
  const FileMap* FindFile(const std::string& file) const;
  std::uint32_t InternFile(const std::string& file);

  // First entry a range query at `offset` must examine: the entry covering
  // `offset` if any, else the first entry past it. Checks the last-hit
  // hint (and up to two successors) before paying the O(log n)
  // upper_bound — sequential scans, the dominant access pattern, land on
  // the hint nearly every time.
  FileMap::const_iterator FirstOverlapCandidate(const FileMap& map,
                                                std::uint32_t file_index,
                                                byte_count offset) const;
  void InvalidateHint() const { hint_valid_ = false; }

  // Splits the entry containing `pos` (if any) so `pos` becomes a boundary.
  void SplitAt(std::uint32_t file_index, byte_count pos);

  // Gives `entry` a fresh recency stamp.
  void Stamp(Entry& entry) { entry.lru_seq = next_lru_seq_++; }
  // Adds/removes `entry` to/from the index its D_flag names.
  void Index(std::uint32_t file_index, byte_count begin, const Entry& entry);
  void Unindex(std::uint32_t file_index, byte_count begin,
               const Entry& entry);
  // Sets D_flag, moving the entry to the matching index (its stamp kept)
  // and updating the dirty stamp and byte counter. No-op if unchanged.
  void SetFlag(std::uint32_t file_index, byte_count begin, Entry& entry,
               bool dirty);
  // Resolves dirty-set keys, taken in set order, to their entries. A key
  // that is also the file-map successor of the previous one (dense dirty
  // data) costs one iterator step instead of a find.
  class DirtyWalk {
   public:
    explicit DirtyWalk(const DataMappingTable& dmt) : dmt_(dmt) {}
    const Entry& operator()(const DirtyKey& key);

   private:
    const DataMappingTable& dmt_;
    std::uint32_t file_ = 0;
    bool valid_ = false;
    FileMap::const_iterator it_;
  };

  void PersistEntry(std::uint32_t file_index, byte_count begin,
                    const Entry& entry);
  void ErasePersisted(std::uint32_t file_index, byte_count begin);

  // Paranoid-build hook: audits every 8th mutation (deterministic stride —
  // the full walk after every mutation would make the fuzz suites
  // quadratic).
#ifdef S4D_PARANOID
  void MaybeAudit() const {
    if ((++audit_tick_ & 7) == 0) AuditInvariants();
  }
  mutable std::uint64_t audit_tick_ = 0;
#else
  void MaybeAudit() const {}
#endif

  SimTime ClockNow() const { return clock_ ? clock_() : 0; }

  kv::KvStore* store_;
  std::function<SimTime()> clock_;
  // Last-hit lookup hint; points at a dereferenceable entry of
  // files_[hint_file_] whenever hint_valid_. Conservatively invalidated by
  // every structural mutation.
  mutable bool hint_valid_ = false;
  mutable std::uint32_t hint_file_ = 0;
  mutable FileMap::const_iterator hint_it_;
  std::unordered_map<std::string, std::uint32_t> file_index_;
  std::vector<std::string> file_names_;
  std::vector<FileMap> files_;
  std::map<std::uint64_t, LruRef> clean_lru_;  // lru_seq -> clean entry
  std::set<DirtyKey> dirty_;                   // dirty entries, file order
  std::uint64_t next_lru_seq_ = 1;
  std::uint64_t next_version_ = 1;
  byte_count mapped_bytes_ = 0;
  byte_count dirty_bytes_ = 0;
};

}  // namespace s4d::core
