// Data Identifier (§III-C): computes the cost-model benefit of every
// incoming request and records performance-critical ones in the CDT.
//
// The request distance d (Table I) is the logical gap between a request's
// offset and the end of the previous request in the *same process's stream
// on the same file* — the per-process randomness signal the selection
// algorithm is derived from.
//
// Refinement: the identifier additionally keeps a bounded table of recent
// stream tails per file across *all* ranks (the middleware sees the global
// request stream — the paper's stated advantage of sitting at this layer).
// Interleaved dense patterns (HPIO with small spacing, MPI-Tile-IO rows)
// look random per rank but continue each other globally, and the buffered
// file servers serve them as streams; a request continuing any recent tail
// within the readahead window is measured by that small forward gap
// instead of its per-rank jump.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "core/cdt.h"
#include "core/cost_model.h"

namespace s4d::core {

// What the admission filters (policy and tenant subsystems) read about a
// request at decision time. `model_critical` is the paper's verdict
// (B > 0) after the health veto.
struct AdmissionContext {
  int rank;  // issuing MPI rank (tenant attribution)
  byte_count size;
  SimTime benefit;  // health-scaled B
  bool model_critical;
};

struct IdentifierStats {
  std::int64_t requests = 0;
  std::int64_t critical = 0;
  std::int64_t cdt_inserts = 0;
  // Health-aware admission: requests whose verdict changed (or was vetoed)
  // because the cache tier is currently degraded.
  std::int64_t health_rejections = 0;
};

class DataIdentifier {
 public:
  DataIdentifier(const CostModel& model, CriticalDataTable& cdt)
      : model_(model), cdt_(cdt) {}

  // Evaluates one request; adds it to the CDT when B > 0 (and it is not
  // already present). Returns whether the request is performance-critical.
  // Always advances the (file, rank) stream position.
  bool Identify(const std::string& file, int rank, device::IoKind kind,
                byte_count offset, byte_count size);

  // Current *signed* stream distance a request at `offset` would have
  // (negative = backward jump). Exposed for tests.
  byte_count DistanceFor(const std::string& file, int rank,
                         byte_count offset) const;

  // --- health-aware admission (ROADMAP) ---------------------------------
  // `probe` returns the cache tier's current slowdown factor (worst
  // DeviceModel::degrade() across CServers; 1.0 = healthy). The factor
  // scales T_C in the benefit computation, and beyond
  // `unhealthy_threshold` the tier is treated as unattractive outright:
  // the per-request model compares latencies but is blind to queueing, and
  // a tier running several times slow loses far more aggregate bandwidth
  // than the latency comparison can see (the LBICA-style load argument).
  void SetHealthProbe(std::function<double()> probe) {
    health_probe_ = std::move(probe);
  }
  void set_unhealthy_threshold(double factor) {
    unhealthy_threshold_ = factor;
  }

  // --- pluggable admission (policy subsystem) ---------------------------
  // The filter runs after the health veto with the full decision context
  // and returns the final verdict. Null (the default) keeps the paper's
  // B > 0 rule byte-identically.
  using AdmissionFilter = std::function<bool(const AdmissionContext&)>;
  void SetAdmissionFilter(AdmissionFilter filter) {
    admission_filter_ = std::move(filter);
  }
  // Installed filter, exposed so a later subsystem (tenancy) can wrap it.
  const AdmissionFilter& admission_filter() const { return admission_filter_; }

  // Benefit B computed for the most recent Identify() call (already scaled
  // by the health factor) — the per-decision value the tracer records.
  SimTime last_benefit() const { return last_benefit_; }
  // Predicted DServer cost T_D for the most recent Identify() call — the
  // baseline against which the feedback controller measures realized gain.
  SimTime last_dserver_cost() const { return last_dserver_cost_; }
  // Predicted (health-scaled) CServer cost T_C for the most recent
  // Identify() call — with T_D, the per-route prediction the calibration
  // bench scores for mispredict magnitude.
  SimTime last_cserver_cost() const { return last_cserver_cost_; }
  double last_health_scale() const { return last_health_scale_; }

  const IdentifierStats& stats() const { return stats_; }

 private:
  struct StreamKey {
    std::string file;
    int rank;
    friend bool operator==(const StreamKey&, const StreamKey&) = default;
  };
  struct StreamKeyHash {
    std::size_t operator()(const StreamKey& k) const {
      return std::hash<std::string>{}(k.file) * 31 +
             std::hash<int>{}(k.rank);
    }
  };

  const CostModel& model_;
  CriticalDataTable& cdt_;
  std::unordered_map<StreamKey, byte_count, StreamKeyHash> last_end_;
  // Per file: recent stream tails across all ranks, ordered by position for
  // O(log n) nearest-preceding-tail lookup; values are recency sequence
  // numbers for LRU eviction. Sized like the servers' aggregate stream
  // capacity (max_streams per disk x M disks).
  std::unordered_map<std::string, std::map<byte_count, std::uint64_t>>
      global_tails_;
  std::uint64_t tail_seq_ = 0;
  IdentifierStats stats_;
  std::function<double()> health_probe_;
  AdmissionFilter admission_filter_;
  double unhealthy_threshold_ = 2.0;
  SimTime last_benefit_ = 0;
  SimTime last_dserver_cost_ = 0;
  SimTime last_cserver_cost_ = 0;
  double last_health_scale_ = 1.0;

  static constexpr std::size_t kMaxTailsPerFile = 512;
};

}  // namespace s4d::core
