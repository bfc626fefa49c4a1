// Ghost list for the tenant subsystem's online sizer: remembers recently
// evicted ranges so a later request overlapping one counts as would-have-hit
// evidence (the marginal utility of giving a tenant more cache).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "common/units.h"

namespace s4d::tenant {

// Bounded FIFO set of recently evicted (file, byte-range) extents. Ranges
// per file are kept disjoint: inserting an overlapping range first absorbs
// the overlap, so probes and audits stay simple.
class GhostCache {
 public:
  explicit GhostCache(std::size_t capacity) : capacity_(capacity) {}

  void Insert(const std::string& file, byte_count begin, byte_count end);

  // True iff [begin, end) overlaps a remembered range; a hit *consumes*
  // every overlapped range (each ghost entry answers at most once).
  bool Probe(const std::string& file, byte_count begin, byte_count end);

  // Non-consuming overlap test.
  bool Contains(const std::string& file, byte_count begin,
                byte_count end) const;

  std::size_t size() const { return fifo_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::int64_t insertions() const { return insertions_; }
  std::int64_t hits() const { return hits_; }

  // S4D_CHECKs: per-file ranges sorted, disjoint, positive length; the FIFO
  // order and the range maps index exactly the same entries; size within
  // capacity. O(entries).
  void AuditInvariants() const;

 private:
  struct Range {
    byte_count end = 0;
    std::uint64_t seq = 0;
  };
  void Erase(const std::string& file, byte_count begin);

  std::size_t capacity_;
  // file -> begin -> (end, seq); seq keys the FIFO eviction order.
  std::map<std::string, std::map<byte_count, Range>> ranges_;
  std::map<std::uint64_t, std::pair<std::string, byte_count>> fifo_;
  std::uint64_t next_seq_ = 1;
  std::int64_t insertions_ = 0;
  std::int64_t hits_ = 0;
};

}  // namespace s4d::tenant
