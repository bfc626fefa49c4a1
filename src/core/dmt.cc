#include "core/dmt.h"

#include <algorithm>
#include <charconv>
#include <cstdio>

#include "common/check.h"

namespace s4d::core {

namespace {

std::string RecordKey(const std::string& file, byte_count begin) {
  return "D|" + file + "|" + std::to_string(begin);
}

}  // namespace

DataMappingTable::DataMappingTable(kv::KvStore* store) : store_(store) {}

std::uint32_t DataMappingTable::InternFile(const std::string& file) {
  auto [it, inserted] = file_index_.emplace(
      file, static_cast<std::uint32_t>(file_names_.size()));
  if (inserted) {
    file_names_.push_back(file);
    files_.emplace_back();
  }
  return it->second;
}

DataMappingTable::FileMap* DataMappingTable::FindFile(
    const std::string& file) {
  auto it = file_index_.find(file);
  return it == file_index_.end() ? nullptr : &files_[it->second];
}

const DataMappingTable::FileMap* DataMappingTable::FindFile(
    const std::string& file) const {
  auto it = file_index_.find(file);
  return it == file_index_.end() ? nullptr : &files_[it->second];
}

void DataMappingTable::Index(std::uint32_t file_index, byte_count begin,
                             const Entry& entry) {
  if (entry.dirty) {
    dirty_.emplace(file_index, begin);
  } else {
    clean_lru_.emplace(entry.lru_seq, LruRef{file_index, begin});
  }
}

void DataMappingTable::Unindex(std::uint32_t file_index, byte_count begin,
                               const Entry& entry) {
  if (entry.dirty) {
    dirty_.erase(DirtyKey{file_index, begin});
  } else {
    clean_lru_.erase(entry.lru_seq);
  }
}

void DataMappingTable::SetFlag(std::uint32_t file_index, byte_count begin,
                               Entry& entry, bool dirty) {
  if (entry.dirty == dirty) return;
  Unindex(file_index, begin, entry);
  entry.dirty = dirty;
  Index(file_index, begin, entry);
  entry.dirty_since = dirty ? ClockNow() : 0;
  const byte_count len = entry.end - begin;
  dirty_bytes_ += dirty ? len : -len;
}

const DataMappingTable::Entry& DataMappingTable::DirtyWalk::operator()(
    const DirtyKey& key) {
  const FileMap& map = dmt_.files_[key.first];
  if (!valid_ || file_ != key.first || ++it_ == map.end() ||
      it_->first != key.second) {
    it_ = map.find(key.second);
    file_ = key.first;
    valid_ = true;
  }
  S4D_DCHECK(it_ != map.end() && it_->second.dirty);
  return it_->second;
}

void DataMappingTable::PersistEntry(std::uint32_t file_index,
                                    byte_count begin, const Entry& entry) {
  if (!store_) return;
  char value[96];
  std::snprintf(value, sizeof(value), "%lld %lld %d %llu",
                static_cast<long long>(entry.end),
                static_cast<long long>(entry.cache_offset),
                entry.dirty ? 1 : 0,
                static_cast<unsigned long long>(entry.version));
  const Status s = store_->Put(RecordKey(file_names_[file_index], begin), value);
  S4D_CHECK(s.ok()) << "DMT write-through failed: " << s.ToString();
}

void DataMappingTable::ErasePersisted(std::uint32_t file_index,
                                      byte_count begin) {
  if (!store_) return;
  (void)store_->Delete(RecordKey(file_names_[file_index], begin));
}

Status DataMappingTable::LoadFromStore() {
  InvalidateHint();
  if (!store_) return Status::FailedPrecondition("DMT has no backing store");
  for (const std::string& key : store_->KeysWithPrefix("D|")) {
    const auto last_sep = key.rfind('|');
    if (last_sep == std::string::npos || last_sep < 2) {
      return Status::Corruption("bad DMT key: " + key);
    }
    const std::string file = key.substr(2, last_sep - 2);
    byte_count begin = 0;
    {
      const char* first = key.data() + last_sep + 1;
      const char* last = key.data() + key.size();
      if (std::from_chars(first, last, begin).ec != std::errc{}) {
        return Status::Corruption("bad DMT key offset: " + key);
      }
    }
    const auto value = store_->Get(key);
    if (!value) return Status::Corruption("DMT record vanished: " + key);
    long long end = 0;
    long long cache_offset = 0;
    int dirty = 0;
    unsigned long long version = 0;
    if (std::sscanf(value->c_str(), "%lld %lld %d %llu", &end, &cache_offset,
                    &dirty, &version) != 4) {
      return Status::Corruption("bad DMT record: " + *value);
    }

    const std::uint32_t file_index = InternFile(file);
    Entry entry;
    entry.end = end;
    entry.cache_offset = cache_offset;
    entry.dirty = dirty != 0;
    // The stamp is not persisted; a recovered dirty extent's exposure
    // clock restarts at load time.
    if (entry.dirty) entry.dirty_since = ClockNow();
    entry.version = version;
    next_version_ = std::max(next_version_, entry.version + 1);
    auto [it, inserted] = files_[file_index].emplace(begin, entry);
    if (!inserted) return Status::Corruption("duplicate DMT record: " + key);
    mapped_bytes_ += entry.end - begin;
    if (entry.dirty) dirty_bytes_ += entry.end - begin;
    Stamp(it->second);
    Index(file_index, begin, it->second);
  }
#ifdef S4D_PARANOID
  AuditInvariants();
#endif
  return Status::Ok();
}

DataMappingTable::FileMap::const_iterator
DataMappingTable::FirstOverlapCandidate(const FileMap& map,
                                        std::uint32_t file_index,
                                        byte_count offset) const {
  if (hint_valid_ && hint_file_ == file_index) {
    auto h = hint_it_;
    // The hint (or one of its next two neighbours) decides the query
    // locally when it is the floor entry for `offset`.
    for (int step = 0; step < 2 && h->first <= offset; ++step) {
      auto next = std::next(h);
      if (next == map.end() || next->first > offset) {
        return h->second.end > offset ? h : next;
      }
      h = next;
    }
  }
  auto it = map.upper_bound(offset);
  if (it != map.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > offset) it = prev;
  }
  return it;
}

DmtLookup DataMappingTable::Lookup(const std::string& file, byte_count offset,
                                   byte_count size) const {
  DmtLookup result;
  if (size <= 0) return result;
  const byte_count end = offset + size;
  byte_count cursor = offset;
  auto idx_it = file_index_.find(file);
  if (idx_it != file_index_.end()) {
    const std::uint32_t file_index = idx_it->second;
    const FileMap& map = files_[file_index];
    auto it = FirstOverlapCandidate(map, file_index, offset);
    auto last_examined = map.end();
    for (; it != map.end() && it->first < end; ++it) {
      last_examined = it;
      const byte_count seg_begin = std::max(offset, it->first);
      const byte_count seg_end = std::min(end, it->second.end);
      if (seg_begin >= seg_end) continue;
      if (seg_begin > cursor) result.gaps.emplace_back(cursor, seg_begin);
      MappedSegment seg;
      seg.orig_begin = seg_begin;
      seg.orig_end = seg_end;
      seg.cache_offset = it->second.cache_offset + (seg_begin - it->first);
      seg.dirty = it->second.dirty;
      result.mapped.push_back(seg);
      cursor = seg_end;
    }
    if (last_examined != map.end()) {
      hint_valid_ = true;
      hint_file_ = file_index;
      hint_it_ = last_examined;
    }
  }
  if (cursor < end) result.gaps.emplace_back(cursor, end);
  return result;
}

void DataMappingTable::SplitAt(std::uint32_t file_index, byte_count pos) {
  InvalidateHint();
  FileMap& map = files_[file_index];
  auto it = map.upper_bound(pos);
  if (it == map.begin()) return;
  --it;
  if (it->first >= pos || it->second.end <= pos) return;

  Entry right = it->second;
  right.cache_offset += pos - it->first;
  // Halves keep the version: a flush snapshot identifies its target by the
  // exact (begin, end) range, so a split alone invalidates the snapshot
  // match without needing a version bump.
  it->second.end = pos;
  PersistEntry(file_index, it->first, it->second);
  Stamp(right);
  auto [new_it, inserted] = map.emplace(pos, right);
  S4D_CHECK(inserted) << "split position " << pos << " already a boundary";
  Index(file_index, pos, new_it->second);
  PersistEntry(file_index, pos, new_it->second);
}

void DataMappingTable::Insert(const std::string& file, byte_count offset,
                              byte_count size, byte_count cache_offset,
                              bool dirty) {
  S4D_CHECK(size > 0) << "inserting empty mapping for " << file;
  InvalidateHint();
  const std::uint32_t file_index = InternFile(file);
  FileMap& map = files_[file_index];
#ifndef NDEBUG
  {
    const DmtLookup existing = Lookup(file, offset, size);
    S4D_CHECK(existing.mapped.empty())
        << "Insert over an existing mapping: " << file << " [" << offset
        << ", " << offset + size << ")";
  }
#endif
  Entry entry;
  entry.end = offset + size;
  entry.cache_offset = cache_offset;
  entry.dirty = dirty;
  if (dirty) entry.dirty_since = ClockNow();
  entry.version = next_version_++;
  Stamp(entry);
  auto [it, inserted] = map.emplace(offset, entry);
  S4D_CHECK(inserted) << "mapping already begins at " << offset << " in "
                      << file;
  Index(file_index, offset, it->second);
  PersistEntry(file_index, offset, it->second);
  mapped_bytes_ += size;
  if (dirty) dirty_bytes_ += size;
  MaybeAudit();
}

std::vector<RemovedExtent> DataMappingTable::Invalidate(
    const std::string& file, byte_count offset, byte_count size) {
  std::vector<RemovedExtent> removed;
  if (size <= 0) return removed;
  auto idx_it = file_index_.find(file);
  if (idx_it == file_index_.end()) return removed;
  const std::uint32_t file_index = idx_it->second;
  const byte_count end = offset + size;

  SplitAt(file_index, offset);
  SplitAt(file_index, end);
  InvalidateHint();

  FileMap& map = files_[file_index];
  auto it = map.lower_bound(offset);
  while (it != map.end() && it->first < end) {
    S4D_DCHECK(it->second.end <= end);
    RemovedExtent ext;
    ext.file = file;
    ext.orig_begin = it->first;
    ext.orig_end = it->second.end;
    ext.cache_offset = it->second.cache_offset;
    ext.dirty = it->second.dirty;
    removed.push_back(ext);

    mapped_bytes_ -= ext.length();
    if (ext.dirty) dirty_bytes_ -= ext.length();
    Unindex(file_index, it->first, it->second);
    ErasePersisted(file_index, it->first);
    it = map.erase(it);
  }
  MaybeAudit();
  return removed;
}

void DataMappingTable::SetDirty(const std::string& file, byte_count offset,
                                byte_count size, bool dirty) {
  if (size <= 0) return;
  auto idx_it = file_index_.find(file);
  if (idx_it == file_index_.end()) return;
  const std::uint32_t file_index = idx_it->second;
  const byte_count end = offset + size;

  SplitAt(file_index, offset);
  SplitAt(file_index, end);

  FileMap& map = files_[file_index];
  for (auto it = map.lower_bound(offset); it != map.end() && it->first < end;
       ++it) {
    Entry& entry = it->second;
    SetFlag(file_index, it->first, entry, dirty);
    if (dirty) entry.version = next_version_++;
    PersistEntry(file_index, it->first, entry);
  }
  MaybeAudit();
}

void DataMappingTable::Touch(const std::string& file, byte_count offset,
                             byte_count size) {
  if (size <= 0) return;
  auto idx_it = file_index_.find(file);
  if (idx_it == file_index_.end()) return;
  FileMap& map = files_[idx_it->second];
  const byte_count end = offset + size;
  auto it = map.upper_bound(offset);
  if (it != map.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > offset) it = prev;
  }
  for (; it != map.end() && it->first < end; ++it) {
    Entry& entry = it->second;
    if (entry.dirty) {
      Stamp(entry);  // the dirty set is file-ordered; only the stamp moves
      continue;
    }
    auto node = clean_lru_.extract(entry.lru_seq);
    Stamp(entry);
    node.key() = entry.lru_seq;
    clean_lru_.insert(std::move(node));
  }
  MaybeAudit();
}

std::optional<RemovedExtent> DataMappingTable::EvictLruClean() {
  return EvictLruCleanIf(nullptr);
}

std::optional<RemovedExtent> DataMappingTable::EvictLruCleanIf(
    const std::function<bool(const RemovedExtent&)>& pred) {
  InvalidateHint();
  for (auto lru_it = clean_lru_.begin(); lru_it != clean_lru_.end();
       ++lru_it) {
    const LruRef ref = lru_it->second;
    FileMap& map = files_[ref.file_index];
    auto it = map.find(ref.begin);
    S4D_CHECK(it != map.end() && it->second.lru_seq == lru_it->first &&
              !it->second.dirty)
        << "clean LRU index out of sync for " << file_names_[ref.file_index]
        << " at " << ref.begin;

    RemovedExtent ext;
    ext.file = file_names_[ref.file_index];
    ext.orig_begin = it->first;
    ext.orig_end = it->second.end;
    ext.cache_offset = it->second.cache_offset;
    ext.dirty = false;
    if (pred && !pred(ext)) continue;  // outside the caller's partition

    mapped_bytes_ -= ext.length();
    clean_lru_.erase(lru_it);
    ErasePersisted(ref.file_index, it->first);
    map.erase(it);
    MaybeAudit();
    return ext;
  }
  return std::nullopt;
}

std::vector<DirtyRun> DataMappingTable::CollectDirtyRuns(
    byte_count max_total_bytes, byte_count max_run_bytes) const {
  std::vector<DirtyRun> runs;
  byte_count total = 0;
  DirtyRun run;
  std::uint32_t run_file = 0;
  auto emit = [&] {
    if (!run.segments.empty()) {
      total += run.length();
      runs.push_back(std::move(run));
      run = DirtyRun{};
    }
  };
  // The dirty set is the table order filtered to dirty extents. A clean
  // extent or a hole between two dirty ones leaves orig_end != begin, so
  // the adjacency test alone splits runs there.
  DirtyWalk walk(*this);
  for (const DirtyKey& key : dirty_) {
    const auto& [file_index, begin] = key;
    if (file_index != run_file) emit();
    if (total + run.length() >= max_total_bytes) break;
    const Entry& entry = walk(key);
    const bool continues = !run.segments.empty() && run.orig_end == begin &&
                           run.length() + (entry.end - begin) <= max_run_bytes;
    if (!continues) emit();
    if (run.segments.empty()) {
      run_file = file_index;
      run.file = file_names_[file_index];
      run.orig_begin = begin;
    }
    run.orig_end = entry.end;
    DirtyRange seg;
    seg.file = run.file;
    seg.orig_begin = begin;
    seg.orig_end = entry.end;
    seg.cache_offset = entry.cache_offset;
    seg.version = entry.version;
    run.segments.push_back(std::move(seg));
  }
  emit();
  return runs;
}

bool DataMappingTable::MarkCleanIfVersion(const std::string& file,
                                          byte_count begin, byte_count end,
                                          std::uint64_t version) {
  auto idx_it = file_index_.find(file);
  if (idx_it == file_index_.end()) return false;
  FileMap& map = files_[idx_it->second];
  auto it = map.find(begin);
  if (it == map.end() || it->second.end != end ||
      it->second.version != version || !it->second.dirty) {
    return false;  // the extent changed while the flush was in flight
  }
  SetFlag(idx_it->second, begin, it->second, false);
  PersistEntry(idx_it->second, begin, it->second);
  MaybeAudit();
  return true;
}

DataMappingTable::DirtyAgeSummary DataMappingTable::SummarizeDirtyAges(
    SimTime now) const {
  DirtyAgeSummary summary;
  // Bounded p50 sample: take every stride-th dirty extent in table order;
  // when the sample fills, drop every other element and double the stride.
  // Deterministic — same table, same sample — and O(1) memory.
  constexpr std::size_t kMaxSample = 512;
  std::vector<SimTime> sample;
  sample.reserve(kMaxSample);
  std::uint64_t stride = 1;
  std::uint64_t index = 0;
  long double total = 0.0L;
  DirtyWalk walk(*this);
  for (const DirtyKey& key : dirty_) {
    const Entry& entry = walk(key);
    const SimTime age = now > entry.dirty_since ? now - entry.dirty_since : 0;
    ++summary.dirty_extents;
    summary.oldest = std::max(summary.oldest, age);
    total += static_cast<long double>(age);
    if (index++ % stride == 0) {
      sample.push_back(age);
      if (sample.size() == kMaxSample) {
        std::size_t keep = 0;
        for (std::size_t i = 0; i < sample.size(); i += 2) {
          sample[keep++] = sample[i];
        }
        sample.resize(keep);
        stride *= 2;
      }
    }
  }
  if (summary.dirty_extents > 0) {
    summary.mean = static_cast<SimTime>(
        total / static_cast<long double>(summary.dirty_extents));
  }
  if (!sample.empty()) {
    auto mid = sample.begin() + static_cast<std::ptrdiff_t>(sample.size() / 2);
    std::nth_element(sample.begin(), mid, sample.end());
    summary.p50 = *mid;
  }
  return summary;
}

std::vector<RemovedExtent> DataMappingTable::AllExtents() const {
  std::vector<RemovedExtent> out;
  out.reserve(entry_count());
  for (std::size_t i = 0; i < files_.size(); ++i) {
    for (const auto& [begin, entry] : files_[i]) {
      RemovedExtent ext;
      ext.file = file_names_[i];
      ext.orig_begin = begin;
      ext.orig_end = entry.end;
      ext.cache_offset = entry.cache_offset;
      ext.dirty = entry.dirty;
      out.push_back(std::move(ext));
    }
  }
  return out;
}

void DataMappingTable::AuditInvariants() const {
  S4D_CHECK(files_.size() == file_names_.size());
  S4D_CHECK(file_index_.size() == file_names_.size());
  byte_count mapped = 0;
  byte_count dirty = 0;
  std::size_t entries = 0;
  std::size_t dirty_entries = 0;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    byte_count prev_end = 0;
    bool first = true;
    for (const auto& [begin, entry] : files_[i]) {
      S4D_CHECK(entry.end > begin)
          << "empty/negative extent [" << begin << ", " << entry.end
          << ") in " << file_names_[i];
      S4D_CHECK(first || begin >= prev_end)
          << "overlapping extents in " << file_names_[i] << ": previous ends "
          << prev_end << ", next begins " << begin;
      S4D_CHECK(entry.cache_offset >= 0);
      S4D_CHECK(entry.version < next_version_)
          << "version " << entry.version << " >= allocator cursor "
          << next_version_;
      // Exactly the index the D_flag names: a dirty extent in the dirty
      // set and absent from the clean index, a clean one the reverse.
      const auto lru = clean_lru_.find(entry.lru_seq);
      const bool in_dirty_set =
          dirty_.count(DirtyKey{static_cast<std::uint32_t>(i), begin}) != 0;
      if (entry.dirty) {
        S4D_CHECK(in_dirty_set)
            << "dirty extent at " << begin << " in " << file_names_[i]
            << " missing from the dirty set";
        S4D_CHECK(lru == clean_lru_.end())
            << "dirty extent at " << begin << " in " << file_names_[i]
            << " also in the clean LRU index";
        ++dirty_entries;
      } else {
        S4D_CHECK(lru != clean_lru_.end())
            << "clean extent at " << begin << " in " << file_names_[i]
            << " missing from the clean LRU index";
        S4D_CHECK(lru->second.file_index == i && lru->second.begin == begin)
            << "clean LRU index points elsewhere for extent at " << begin;
        S4D_CHECK(!in_dirty_set)
            << "clean extent at " << begin << " in " << file_names_[i]
            << " also in the dirty set";
      }
      mapped += entry.end - begin;
      if (entry.dirty) dirty += entry.end - begin;
      ++entries;
      prev_end = entry.end;
      first = false;
    }
  }
  S4D_CHECK(dirty_entries == dirty_.size() &&
            entries - dirty_entries == clean_lru_.size())
      << "indexes hold " << clean_lru_.size() << " clean + " << dirty_.size()
      << " dirty refs for " << entries - dirty_entries << " clean + "
      << dirty_entries << " dirty extents";
  S4D_CHECK(mapped == mapped_bytes_)
      << "mapped_bytes counter " << mapped_bytes_ << " != recomputed "
      << mapped;
  S4D_CHECK(dirty == dirty_bytes_)
      << "dirty_bytes counter " << dirty_bytes_ << " != recomputed " << dirty;
  S4D_CHECK(!hint_valid_ || hint_file_ < files_.size());
}

std::size_t DataMappingTable::entry_count() const {
  return clean_lru_.size() + dirty_.size();
}

byte_count DataMappingTable::mapped_bytes() const { return mapped_bytes_; }
byte_count DataMappingTable::dirty_bytes() const { return dirty_bytes_; }

}  // namespace s4d::core
