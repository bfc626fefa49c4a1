#include "core/dmt.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"

namespace s4d::core {
namespace {

TEST(Dmt, EmptyLookup) {
  DataMappingTable dmt;
  const auto result = dmt.Lookup("f", 0, 100);
  EXPECT_TRUE(result.mapped.empty());
  ASSERT_EQ(result.gaps.size(), 1u);
  EXPECT_EQ(result.gaps[0].first, 0);
  EXPECT_EQ(result.gaps[0].second, 100);
  EXPECT_TRUE(result.fully_unmapped());
  EXPECT_FALSE(result.fully_mapped());
}

TEST(Dmt, InsertAndExactLookup) {
  DataMappingTable dmt;
  dmt.Insert("f", 1000, 500, 0, /*dirty=*/true);
  const auto result = dmt.Lookup("f", 1000, 500);
  ASSERT_TRUE(result.fully_mapped());
  ASSERT_EQ(result.mapped.size(), 1u);
  EXPECT_EQ(result.mapped[0].orig_begin, 1000);
  EXPECT_EQ(result.mapped[0].orig_end, 1500);
  EXPECT_EQ(result.mapped[0].cache_offset, 0);
  EXPECT_TRUE(result.mapped[0].dirty);
  EXPECT_EQ(dmt.mapped_bytes(), 500);
  EXPECT_EQ(dmt.dirty_bytes(), 500);
}

TEST(Dmt, SubRangeLookupTranslatesCacheOffset) {
  DataMappingTable dmt;
  dmt.Insert("f", 1000, 500, 8000, false);
  const auto result = dmt.Lookup("f", 1200, 100);
  ASSERT_TRUE(result.fully_mapped());
  EXPECT_EQ(result.mapped[0].cache_offset, 8200);
}

TEST(Dmt, PartialOverlapYieldsMappedAndGaps) {
  DataMappingTable dmt;
  dmt.Insert("f", 100, 100, 0, false);
  dmt.Insert("f", 300, 100, 100, false);
  const auto result = dmt.Lookup("f", 0, 500);
  ASSERT_EQ(result.mapped.size(), 2u);
  ASSERT_EQ(result.gaps.size(), 3u);
  EXPECT_EQ(result.gaps[0], (std::pair<byte_count, byte_count>{0, 100}));
  EXPECT_EQ(result.gaps[1], (std::pair<byte_count, byte_count>{200, 300}));
  EXPECT_EQ(result.gaps[2], (std::pair<byte_count, byte_count>{400, 500}));
}

TEST(Dmt, FilesAreIndependent) {
  DataMappingTable dmt;
  dmt.Insert("a", 0, 100, 0, false);
  EXPECT_TRUE(dmt.Lookup("b", 0, 100).fully_unmapped());
}

TEST(Dmt, InvalidateSplitsBoundaries) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 300, 0, true);
  const auto removed = dmt.Invalidate("f", 100, 100);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0].orig_begin, 100);
  EXPECT_EQ(removed[0].orig_end, 200);
  EXPECT_EQ(removed[0].cache_offset, 100);
  EXPECT_TRUE(removed[0].dirty);
  // Left and right halves survive with translated cache offsets.
  const auto left = dmt.Lookup("f", 0, 100);
  ASSERT_TRUE(left.fully_mapped());
  EXPECT_EQ(left.mapped[0].cache_offset, 0);
  const auto right = dmt.Lookup("f", 200, 100);
  ASSERT_TRUE(right.fully_mapped());
  EXPECT_EQ(right.mapped[0].cache_offset, 200);
  EXPECT_TRUE(dmt.Lookup("f", 100, 100).fully_unmapped());
  EXPECT_EQ(dmt.mapped_bytes(), 200);
  EXPECT_EQ(dmt.dirty_bytes(), 200);
}

TEST(Dmt, SetDirtyAndCleanAdjustCounters) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, false);
  EXPECT_EQ(dmt.dirty_bytes(), 0);
  dmt.SetDirty("f", 0, 50, true);
  EXPECT_EQ(dmt.dirty_bytes(), 50);
  dmt.SetDirty("f", 0, 100, true);
  EXPECT_EQ(dmt.dirty_bytes(), 100);
  dmt.SetDirty("f", 25, 50, false);
  EXPECT_EQ(dmt.dirty_bytes(), 50);
}

TEST(Dmt, EvictLruCleanPrefersOldest) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, false);
  dmt.Insert("f", 100, 100, 100, false);
  dmt.Insert("f", 200, 100, 200, false);
  dmt.Touch("f", 0, 100);  // entry 0 becomes most recent
  const auto victim = dmt.EvictLruClean();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->orig_begin, 100) << "second-inserted is now LRU";
  EXPECT_EQ(dmt.entry_count(), 2u);
}

TEST(Dmt, EvictSkipsDirty) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, true);
  dmt.Insert("f", 100, 100, 100, false);
  const auto victim = dmt.EvictLruClean();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->orig_begin, 100);
  EXPECT_EQ(dmt.EvictLruClean(), std::nullopt) << "only dirty data remains";
}

TEST(Dmt, EvictCleanOverlappingPicksOnlyInRange) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, false);
  dmt.Insert("f", 200, 100, 100, false);
  dmt.Insert("g", 0, 100, 200, false);
  EXPECT_EQ(dmt.EvictCleanOverlapping("f", 100, 200), std::nullopt)
      << "gap between extents must not match";
  const auto victim = dmt.EvictCleanOverlapping("f", 250, 260);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->orig_begin, 200);
  EXPECT_EQ(victim->orig_end, 300);
  EXPECT_EQ(dmt.mapped_bytes(), 200);
  EXPECT_TRUE(dmt.Lookup("f", 200, 100).fully_unmapped());
  EXPECT_TRUE(dmt.Lookup("g", 0, 100).fully_mapped()) << "other file intact";
}

TEST(Dmt, EvictCleanOverlappingSkipsDirty) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, true);
  dmt.Insert("f", 100, 25, 200, false);
  const auto victim = dmt.EvictCleanOverlapping("f", 0, 125);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->orig_begin, 100);
  EXPECT_EQ(victim->orig_end, 125);
  EXPECT_FALSE(victim->dirty);
  EXPECT_EQ(dmt.EvictCleanOverlapping("f", 0, 125), std::nullopt)
      << "only dirty extents remain in range";
  EXPECT_EQ(dmt.dirty_bytes(), dmt.mapped_bytes());
}

TEST(Dmt, CollectDirtyReturnsSnapshotsWithVersions) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 500, true);
  dmt.Insert("f", 200, 100, 600, false);
  const auto dirty = dmt.CollectDirty(10);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0].orig_begin, 0);
  EXPECT_EQ(dirty[0].cache_offset, 500);
  EXPECT_GT(dirty[0].version, 0u);
}

TEST(Dmt, CollectDirtyRunsCoalescesAdjacent) {
  DataMappingTable dmt;
  // Three adjacent dirty extents with scattered cache offsets, then a gap,
  // then another dirty extent.
  dmt.Insert("f", 0, 100, 500, true);
  dmt.Insert("f", 100, 100, 900, true);
  dmt.Insert("f", 200, 100, 100, true);
  dmt.Insert("f", 400, 50, 700, true);
  const auto runs = dmt.CollectDirtyRuns(1 << 20, 1 << 20);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].orig_begin, 0);
  EXPECT_EQ(runs[0].orig_end, 300);
  ASSERT_EQ(runs[0].segments.size(), 3u);
  EXPECT_EQ(runs[0].segments[1].cache_offset, 900);
  EXPECT_EQ(runs[1].orig_begin, 400);
  EXPECT_EQ(runs[1].segments.size(), 1u);
}

TEST(Dmt, CollectDirtyRunsSkipsCleanNeighbours) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, true);
  dmt.Insert("f", 100, 100, 100, false);  // clean: breaks the run
  dmt.Insert("f", 200, 100, 200, true);
  const auto runs = dmt.CollectDirtyRuns(1 << 20, 1 << 20);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].orig_end, 100);
  EXPECT_EQ(runs[1].orig_begin, 200);
}

TEST(Dmt, CollectDirtyRunsRespectsRunCap) {
  DataMappingTable dmt;
  for (int i = 0; i < 10; ++i) {
    dmt.Insert("f", i * 100, 100, i * 100, true);
  }
  const auto runs = dmt.CollectDirtyRuns(1 << 20, 250);
  // 1000 contiguous dirty bytes in runs of <= 250.
  ASSERT_GE(runs.size(), 4u);
  byte_count total = 0;
  for (const auto& run : runs) {
    EXPECT_LE(run.length(), 250);
    total += run.length();
  }
  EXPECT_EQ(total, 1000);
}

TEST(Dmt, CollectDirtyRunsRespectsTotalBudget) {
  DataMappingTable dmt;
  for (int i = 0; i < 10; ++i) {
    dmt.Insert("f", i * 1000, 100, i * 100, true);  // non-adjacent
  }
  const auto runs = dmt.CollectDirtyRuns(350, 1 << 20);
  // Stops once ~350 bytes are collected (4 x 100-byte runs).
  EXPECT_EQ(runs.size(), 4u);
}

TEST(Dmt, CollectDirtyRunsSpansFiles) {
  DataMappingTable dmt;
  dmt.Insert("a", 0, 100, 0, true);
  dmt.Insert("b", 0, 100, 100, true);
  const auto runs = dmt.CollectDirtyRuns(1 << 20, 1 << 20);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_NE(runs[0].file, runs[1].file);
}

TEST(Dmt, MarkCleanIfVersionMatches) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, true);
  const auto dirty = dmt.CollectDirty(1);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_TRUE(dmt.MarkCleanIfVersion("f", 0, 100, dirty[0].version));
  EXPECT_EQ(dmt.dirty_bytes(), 0);
  EXPECT_FALSE(dmt.MarkCleanIfVersion("f", 0, 100, dirty[0].version))
      << "already clean";
}

TEST(Dmt, MarkCleanFailsAfterRedirtying) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, true);
  const auto snapshot = dmt.CollectDirty(1);
  // A write races the in-flight flush and re-dirties the extent.
  dmt.SetDirty("f", 0, 100, true);
  EXPECT_FALSE(dmt.MarkCleanIfVersion("f", 0, 100, snapshot[0].version));
  EXPECT_EQ(dmt.dirty_bytes(), 100) << "racing write's dirtiness preserved";
}

TEST(Dmt, MarkCleanFailsAfterSplit) {
  DataMappingTable dmt;
  dmt.Insert("f", 0, 100, 0, true);
  const auto snapshot = dmt.CollectDirty(1);
  (void)dmt.Invalidate("f", 40, 20);
  EXPECT_FALSE(dmt.MarkCleanIfVersion("f", 0, 100, snapshot[0].version));
}

TEST(Dmt, AllExtentsEnumeratesEverything) {
  DataMappingTable dmt;
  dmt.Insert("a", 0, 100, 0, true);
  dmt.Insert("b", 50, 25, 100, false);
  const auto all = dmt.AllExtents();
  EXPECT_EQ(all.size(), 2u);
}

// --- differential test against a brute-force reference --------------------

// The obvious implementation of the DMT contract: a flat vector of extents
// with one global recency stamp each, every query a full scan in table order
// (files in first-insert order, then ascending begin). Stamps and versions
// are handed out in the same order DataMappingTable hands them out — a
// split's right half gets a fresh stamp and keeps the version, SetDirty(true)
// bumps versions in file order — so snapshots compare field by field.
class ReferenceDmt {
 public:
  struct Ext {
    std::string file;
    byte_count begin = 0;
    byte_count end = 0;
    byte_count cache_offset = 0;
    bool dirty = false;
    std::uint64_t version = 0;
    std::uint64_t seq = 0;
    SimTime dirty_since = 0;
  };

  explicit ReferenceDmt(const SimTime* now) : now_(now) {}

  bool Known(const std::string& file) const {
    return std::find(files_.begin(), files_.end(), file) != files_.end();
  }

  bool Overlaps(const std::string& file, byte_count begin,
                byte_count end) const {
    for (const Ext& e : exts_) {
      if (e.file == file && e.begin < end && e.end > begin) return true;
    }
    return false;
  }

  void Insert(const std::string& file, byte_count offset, byte_count size,
              byte_count cache_offset, bool dirty) {
    if (!Known(file)) files_.push_back(file);
    Ext e;
    e.file = file;
    e.begin = offset;
    e.end = offset + size;
    e.cache_offset = cache_offset;
    e.dirty = dirty;
    e.dirty_since = dirty ? *now_ : 0;
    e.version = next_version_++;
    e.seq = next_seq_++;
    exts_.push_back(e);
  }

  std::vector<RemovedExtent> Invalidate(const std::string& file,
                                        byte_count offset, byte_count size) {
    std::vector<RemovedExtent> removed;
    if (size <= 0 || !Known(file)) return removed;
    SplitAt(file, offset);
    SplitAt(file, offset + size);
    for (std::size_t i : InRange(file, offset, offset + size)) {
      removed.push_back(ToRemoved(exts_[i]));
    }
    std::erase_if(exts_, [&](const Ext& e) {
      return e.file == file && e.begin >= offset && e.begin < offset + size;
    });
    return removed;
  }

  void SetDirty(const std::string& file, byte_count offset, byte_count size,
                bool dirty) {
    if (size <= 0 || !Known(file)) return;
    SplitAt(file, offset);
    SplitAt(file, offset + size);
    for (std::size_t i : InRange(file, offset, offset + size)) {
      Ext& e = exts_[i];
      if (e.dirty != dirty) {
        e.dirty = dirty;
        e.dirty_since = dirty ? *now_ : 0;
      }
      if (dirty) e.version = next_version_++;
    }
  }

  void Touch(const std::string& file, byte_count offset, byte_count size) {
    if (size <= 0 || !Known(file)) return;
    for (std::size_t i : InRange(file, offset, offset + size)) {
      exts_[i].seq = next_seq_++;
    }
  }

  bool MarkCleanIfVersion(const std::string& file, byte_count begin,
                          byte_count end, std::uint64_t version) {
    for (Ext& e : exts_) {
      if (e.file == file && e.begin == begin) {
        if (e.end != end || e.version != version || !e.dirty) return false;
        e.dirty = false;
        e.dirty_since = 0;
        return true;
      }
    }
    return false;
  }

  // The oldest-stamped clean extent accepted by `pred`, without removing it.
  std::optional<RemovedExtent> PeekLruClean(
      const std::function<bool(const RemovedExtent&)>& pred) const {
    const auto i = LruClean(pred);
    if (!i) return std::nullopt;
    return ToRemoved(exts_[*i]);
  }

  std::optional<RemovedExtent> EvictLruCleanIf(
      const std::function<bool(const RemovedExtent&)>& pred) {
    const auto i = LruClean(pred);
    if (!i) return std::nullopt;
    const RemovedExtent out = ToRemoved(exts_[*i]);
    exts_.erase(exts_.begin() + static_cast<std::ptrdiff_t>(*i));
    return out;
  }

  std::optional<RemovedExtent> EvictCleanOverlapping(const std::string& file,
                                                     byte_count begin,
                                                     byte_count end) {
    if (begin >= end || !Known(file)) return std::nullopt;
    for (std::size_t i : InRange(file, begin, end)) {
      if (exts_[i].dirty) continue;
      const RemovedExtent out = ToRemoved(exts_[i]);
      exts_.erase(exts_.begin() + static_cast<std::ptrdiff_t>(i));
      return out;
    }
    return std::nullopt;
  }

  std::vector<DirtyRange> CollectDirty(std::size_t max_ranges) const {
    std::vector<const Ext*> dirty;
    for (const Ext& e : exts_) {
      if (e.dirty) dirty.push_back(&e);
    }
    std::sort(dirty.begin(), dirty.end(),
              [](const Ext* a, const Ext* b) { return a->seq < b->seq; });
    std::vector<DirtyRange> out;
    for (std::size_t i = 0; i < dirty.size() && i < max_ranges; ++i) {
      out.push_back(ToRange(*dirty[i]));
    }
    return out;
  }

  // The whole-table scan: every extent of every file in table order, a
  // clean one closing the open run.
  std::vector<DirtyRun> CollectDirtyRuns(byte_count max_total_bytes,
                                         byte_count max_run_bytes) const {
    std::vector<DirtyRun> runs;
    byte_count total = 0;
    for (std::size_t f = 0; f < files_.size() && total < max_total_bytes;
         ++f) {
      DirtyRun run;
      auto emit = [&] {
        if (!run.segments.empty()) {
          total += run.length();
          runs.push_back(std::move(run));
          run = DirtyRun{};
        }
      };
      for (const Ext* e : FileOrder(files_[f])) {
        if (total + run.length() >= max_total_bytes) break;
        if (!e->dirty) {
          emit();
          continue;
        }
        const bool continues = !run.segments.empty() &&
                               run.orig_end == e->begin &&
                               run.length() + (e->end - e->begin) <=
                                   max_run_bytes;
        if (!continues) emit();
        if (run.segments.empty()) {
          run.file = e->file;
          run.orig_begin = e->begin;
        }
        run.orig_end = e->end;
        run.segments.push_back(ToRange(*e));
      }
      emit();
    }
    return runs;
  }

  // Exact for up to 512 dirty extents, where the summary's sample is every
  // extent.
  DataMappingTable::DirtyAgeSummary SummarizeDirtyAges(SimTime now) const {
    DataMappingTable::DirtyAgeSummary summary;
    std::vector<SimTime> ages;
    long double total = 0.0L;
    for (const Ext* e : TableOrder()) {
      if (!e->dirty) continue;
      const SimTime age = now > e->dirty_since ? now - e->dirty_since : 0;
      ages.push_back(age);
      summary.oldest = std::max(summary.oldest, age);
      total += static_cast<long double>(age);
    }
    summary.dirty_extents = static_cast<std::int64_t>(ages.size());
    if (!ages.empty()) {
      summary.mean = static_cast<SimTime>(
          total / static_cast<long double>(ages.size()));
      std::sort(ages.begin(), ages.end());
      summary.p50 = ages[ages.size() / 2];
    }
    return summary;
  }

  std::vector<RemovedExtent> AllExtents() const {
    std::vector<RemovedExtent> out;
    for (const Ext* e : TableOrder()) out.push_back(ToRemoved(*e));
    return out;
  }

  std::vector<const Ext*> DirtyExtents() const {
    std::vector<const Ext*> out;
    for (const Ext* e : TableOrder()) {
      if (e->dirty) out.push_back(e);
    }
    return out;
  }

  std::size_t size() const { return exts_.size(); }

 private:
  static RemovedExtent ToRemoved(const Ext& e) {
    return RemovedExtent{e.file, e.begin, e.end, e.cache_offset, e.dirty};
  }
  static DirtyRange ToRange(const Ext& e) {
    return DirtyRange{e.file, e.begin, e.end, e.cache_offset, e.version};
  }

  std::optional<std::size_t> LruClean(
      const std::function<bool(const RemovedExtent&)>& pred) const {
    std::optional<std::size_t> best;
    for (std::size_t i = 0; i < exts_.size(); ++i) {
      const Ext& e = exts_[i];
      if (e.dirty || (pred && !pred(ToRemoved(e)))) continue;
      if (!best || e.seq < exts_[*best].seq) best = i;
    }
    return best;
  }

  void SplitAt(const std::string& file, byte_count pos) {
    for (Ext& e : exts_) {
      if (e.file != file || e.begin >= pos || e.end <= pos) continue;
      Ext right = e;
      right.begin = pos;
      right.cache_offset += pos - e.begin;
      right.seq = next_seq_++;
      e.end = pos;
      exts_.push_back(right);
      return;
    }
  }

  std::vector<const Ext*> FileOrder(const std::string& file) const {
    std::vector<const Ext*> out;
    for (const Ext& e : exts_) {
      if (e.file == file) out.push_back(&e);
    }
    std::sort(out.begin(), out.end(),
              [](const Ext* a, const Ext* b) { return a->begin < b->begin; });
    return out;
  }

  std::vector<const Ext*> TableOrder() const {
    std::vector<const Ext*> out;
    for (const std::string& file : files_) {
      for (const Ext* e : FileOrder(file)) out.push_back(e);
    }
    return out;
  }

  // Indices of `file`'s extents overlapping [begin, end), ascending begin.
  std::vector<std::size_t> InRange(const std::string& file, byte_count begin,
                                   byte_count end) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < exts_.size(); ++i) {
      const Ext& e = exts_[i];
      if (e.file == file && e.begin < end && e.end > begin) out.push_back(i);
    }
    std::sort(out.begin(), out.end(), [&](std::size_t a, std::size_t b) {
      return exts_[a].begin < exts_[b].begin;
    });
    return out;
  }

  const SimTime* now_;
  std::vector<std::string> files_;  // first-insert order
  std::vector<Ext> exts_;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_version_ = 1;
};

void ExpectSameExtents(const std::vector<RemovedExtent>& got,
                       const std::vector<RemovedExtent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("extent " + std::to_string(i));
    EXPECT_EQ(got[i].file, want[i].file);
    EXPECT_EQ(got[i].orig_begin, want[i].orig_begin);
    EXPECT_EQ(got[i].orig_end, want[i].orig_end);
    EXPECT_EQ(got[i].cache_offset, want[i].cache_offset);
    EXPECT_EQ(got[i].dirty, want[i].dirty);
  }
}

void ExpectSameVictim(const std::optional<RemovedExtent>& got,
                      const std::optional<RemovedExtent>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (got) ExpectSameExtents({*got}, {*want});
}

void ExpectSameRanges(const std::vector<DirtyRange>& got,
                      const std::vector<DirtyRange>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("range " + std::to_string(i));
    EXPECT_EQ(got[i].file, want[i].file);
    EXPECT_EQ(got[i].orig_begin, want[i].orig_begin);
    EXPECT_EQ(got[i].orig_end, want[i].orig_end);
    EXPECT_EQ(got[i].cache_offset, want[i].cache_offset);
    EXPECT_EQ(got[i].version, want[i].version);
  }
}

void ExpectSameRuns(const std::vector<DirtyRun>& got,
                    const std::vector<DirtyRun>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    EXPECT_EQ(got[i].file, want[i].file);
    EXPECT_EQ(got[i].orig_begin, want[i].orig_begin);
    EXPECT_EQ(got[i].orig_end, want[i].orig_end);
    ExpectSameRanges(got[i].segments, want[i].segments);
  }
}

// Compares every read-only query (and an EvictLruClean on a throwaway copy)
// between the table and the reference.
void ExpectSameState(const DataMappingTable& dmt, const ReferenceDmt& ref,
                     SimTime now, Rng& rng) {
  dmt.AuditInvariants();
  EXPECT_EQ(dmt.entry_count(), ref.size());
  const std::vector<RemovedExtent> all = ref.AllExtents();
  byte_count mapped = 0;
  byte_count dirty = 0;
  for (const RemovedExtent& e : all) {
    mapped += e.length();
    if (e.dirty) dirty += e.length();
  }
  EXPECT_EQ(dmt.mapped_bytes(), mapped);
  EXPECT_EQ(dmt.dirty_bytes(), dirty);
  ExpectSameExtents(dmt.AllExtents(), all);

  const std::size_t k = rng.NextBelow(6);
  ExpectSameRanges(dmt.CollectDirty(k), ref.CollectDirty(k));
  ExpectSameRanges(dmt.CollectDirty(1 << 20), ref.CollectDirty(1 << 20));

  // Small budgets exercise the total-budget break and the run cap.
  const byte_count total = rng.NextInRange(1, 400);
  const byte_count run = rng.NextInRange(1, 160);
  ExpectSameRuns(dmt.CollectDirtyRuns(total, run),
                 ref.CollectDirtyRuns(total, run));
  ExpectSameRuns(dmt.CollectDirtyRuns(1 << 20, 1 << 20),
                 ref.CollectDirtyRuns(1 << 20, 1 << 20));

  const auto ages = dmt.SummarizeDirtyAges(now);
  const auto want_ages = ref.SummarizeDirtyAges(now);
  EXPECT_EQ(ages.dirty_extents, want_ages.dirty_extents);
  EXPECT_EQ(ages.oldest, want_ages.oldest);
  EXPECT_EQ(ages.mean, want_ages.mean);
  EXPECT_EQ(ages.p50, want_ages.p50);

  DataMappingTable copy = dmt;
  ExpectSameVictim(copy.EvictLruClean(), ref.PeekLruClean(nullptr));
}

TEST(DmtDifferential, MatchesBruteForceReference) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    SimTime now = 0;
    DataMappingTable dmt;
    dmt.SetClock([&now] { return now; });
    ReferenceDmt ref(&now);
    byte_count next_cache = 0;
    const std::string files[] = {"a", "b", "c"};
    // Keeps the partition predicate's target fixed per seed.
    const std::string target = files[rng.NextBelow(3)];
    const auto in_partition = [&](const RemovedExtent& e) {
      return e.file == target || (e.orig_begin / 8) % 3 == 0;
    };

    for (int step = 0; step < 300; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      now += rng.NextInRange(0, 999);
      const std::string& file = files[rng.NextBelow(3)];
      const byte_count offset = rng.NextInRange(0, 63) * 8;
      const byte_count size = rng.NextInRange(1, 12) * 8;
      const unsigned op = static_cast<unsigned>(rng.NextBelow(100));
      if (op < 30) {  // Insert, invalidating any overlap first
        if (ref.Overlaps(file, offset, offset + size)) {
          ExpectSameExtents(dmt.Invalidate(file, offset, size),
                            ref.Invalidate(file, offset, size));
        }
        const bool dirty = rng.NextBelow(2) == 0;
        dmt.Insert(file, offset, size, next_cache, dirty);
        ref.Insert(file, offset, size, next_cache, dirty);
        next_cache += size;
      } else if (op < 38) {
        ExpectSameExtents(dmt.Invalidate(file, offset, size),
                          ref.Invalidate(file, offset, size));
      } else if (op < 50) {
        dmt.SetDirty(file, offset, size, true);
        ref.SetDirty(file, offset, size, true);
      } else if (op < 58) {
        dmt.SetDirty(file, offset, size, false);
        ref.SetDirty(file, offset, size, false);
      } else if (op < 70) {
        dmt.Touch(file, offset, size);
        ref.Touch(file, offset, size);
      } else if (op < 82) {  // a flush completing, sometimes stale
        const auto dirty = ref.DirtyExtents();
        if (!dirty.empty()) {
          const ReferenceDmt::Ext e = *dirty[rng.NextBelow(dirty.size())];
          const std::uint64_t version =
              rng.NextBelow(4) == 0 ? e.version - 1 : e.version;
          EXPECT_EQ(dmt.MarkCleanIfVersion(e.file, e.begin, e.end, version),
                    ref.MarkCleanIfVersion(e.file, e.begin, e.end, version));
        }
      } else if (op < 88) {
        ExpectSameVictim(dmt.EvictLruClean(), ref.EvictLruCleanIf(nullptr));
      } else if (op < 94) {
        ExpectSameVictim(dmt.EvictLruCleanIf(in_partition),
                         ref.EvictLruCleanIf(in_partition));
      } else {
        const byte_count end = offset + size;
        ExpectSameVictim(dmt.EvictCleanOverlapping(file, offset, end),
                         ref.EvictCleanOverlapping(file, offset, end));
      }
      ASSERT_LT(ref.DirtyExtents().size(), 512u);
      ExpectSameState(dmt, ref, now, rng);
      if (HasFailure()) return;
    }
  }
}

// --- persistence -----------------------------------------------------------

class DmtPersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("s4d_dmt_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "dmt.db").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::unique_ptr<kv::KvStore> OpenStore() {
    kv::Options options;
    options.sync_writes = false;
    auto store = kv::KvStore::Open(path_, options);
    EXPECT_TRUE(store.ok());
    return std::move(*store);
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(DmtPersistenceTest, RoundTripsThroughStore) {
  {
    auto store = OpenStore();
    DataMappingTable dmt(store.get());
    dmt.Insert("data/file1", 0, 16384, 0, true);
    dmt.Insert("data/file1", 32768, 16384, 16384, false);
    dmt.Insert("data/file2", 100, 50, 32768, false);
  }
  auto store = OpenStore();
  DataMappingTable recovered(store.get());
  ASSERT_TRUE(recovered.LoadFromStore().ok());
  EXPECT_EQ(recovered.entry_count(), 3u);
  EXPECT_EQ(recovered.mapped_bytes(), 16384 + 16384 + 50);
  EXPECT_EQ(recovered.dirty_bytes(), 16384);
  const auto result = recovered.Lookup("data/file1", 32768, 16384);
  ASSERT_TRUE(result.fully_mapped());
  EXPECT_EQ(result.mapped[0].cache_offset, 16384);
  EXPECT_FALSE(result.mapped[0].dirty);
}

TEST_F(DmtPersistenceTest, MutationsArePersisted) {
  {
    auto store = OpenStore();
    DataMappingTable dmt(store.get());
    dmt.Insert("f", 0, 1000, 0, true);
    (void)dmt.Invalidate("f", 200, 100);  // split + removal
    dmt.SetDirty("f", 0, 200, false);
  }
  auto store = OpenStore();
  DataMappingTable recovered(store.get());
  ASSERT_TRUE(recovered.LoadFromStore().ok());
  EXPECT_TRUE(recovered.Lookup("f", 200, 100).fully_unmapped());
  const auto left = recovered.Lookup("f", 0, 200);
  ASSERT_TRUE(left.fully_mapped());
  EXPECT_FALSE(left.mapped[0].dirty);
  const auto right = recovered.Lookup("f", 300, 700);
  ASSERT_TRUE(right.fully_mapped());
  EXPECT_TRUE(right.mapped[0].dirty);
  EXPECT_EQ(right.mapped[0].cache_offset, 300);
}

TEST_F(DmtPersistenceTest, EvictionRemovesPersistedRecord) {
  {
    auto store = OpenStore();
    DataMappingTable dmt(store.get());
    dmt.Insert("f", 0, 100, 0, false);
    ASSERT_TRUE(dmt.EvictLruClean().has_value());
  }
  auto store = OpenStore();
  DataMappingTable recovered(store.get());
  ASSERT_TRUE(recovered.LoadFromStore().ok());
  EXPECT_EQ(recovered.entry_count(), 0u);
}

TEST_F(DmtPersistenceTest, FileNamesWithSeparatorsRoundTrip) {
  {
    auto store = OpenStore();
    DataMappingTable dmt(store.get());
    dmt.Insert("weird|name|with|pipes", 10, 20, 0, true);
  }
  auto store = OpenStore();
  DataMappingTable recovered(store.get());
  ASSERT_TRUE(recovered.LoadFromStore().ok());
  EXPECT_TRUE(recovered.Lookup("weird|name|with|pipes", 10, 20).fully_mapped());
}

}  // namespace
}  // namespace s4d::core
