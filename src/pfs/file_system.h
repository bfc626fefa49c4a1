// A simulated parallel file system (the role PVFS2 plays in the paper).
//
// The system stripes each file round-robin across its servers
// (src/pfs/striping.h), fans a request out into per-server sub-requests,
// and completes the request when the *last* sub-request finishes — the
// max-over-servers behaviour the paper's cost model analyses.
//
// Two independent instances are built in an S4D deployment: the OPFS over
// HDD DServers and the CPFS over SSD CServers.
//
// For correctness verification the file system can optionally track file
// *contents* as version tokens over byte ranges (no payload bytes are
// simulated). Content effects are applied at request submission time; the
// middleware serializes its decisions per request, so this is a
// deterministic linearization.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/interval_map.h"
#include "common/status.h"
#include "pfs/file_server.h"
#include "pfs/striping.h"

namespace s4d::pfs {

using FileId = std::int32_t;
inline constexpr FileId kInvalidFile = -1;

struct FsConfig {
  std::string name = "pfs";
  StripeConfig stripe;
  net::LinkProfile link;  // one such link per server
  // Per-server device-address reservation per file: file i's server-local
  // offsets map to LBA [i * reservation, (i+1) * reservation).
  byte_count file_reservation_per_server = 8 * GiB;
  bool track_content = false;
};

// Every non-empty request submitted to the file system is reported to
// observers (tests and bench_table3 attach here for per-request detail).
struct RequestRecord {
  FileId file = kInvalidFile;
  device::IoKind kind = device::IoKind::kRead;
  byte_count offset = 0;
  byte_count size = 0;
  Priority priority = Priority::kNormal;
  SimTime issue_time = 0;
  int server_count = 0;
};

struct FsStats {
  std::int64_t requests = 0;
  byte_count bytes = 0;
  // Requests in which at least one sub-request failed (crashed server,
  // injected error).
  std::int64_t failed_requests = 0;
  // The normal-priority (foreground) share of `requests` and `bytes`; the
  // rest is background (Rebuilder) traffic.
  std::int64_t foreground_requests = 0;
  byte_count foreground_bytes = 0;
};

// Counter-wise difference: what a file system did between two snapshots.
FsStats operator-(const FsStats& after, const FsStats& before);

// One resolved sub-request, as the *client* observed it: submitted at
// `submit_time` when `depth_at_submit` subs were already outstanding on that
// server, resolved at `complete_time`. Emitted at the resolution instant.
// Failed subs are emitted too (ok = false) so consumers can keep exact
// outstanding-depth accounting.
struct SubRequestSample {
  std::uint32_t tag = 0;  // echo of the SetSubRequestSink tag (tier id)
  std::int32_t server = 0;
  device::IoKind kind = device::IoKind::kRead;
  Priority priority = Priority::kNormal;
  byte_count size = 0;
  std::int32_t depth_at_submit = 0;
  SimTime submit_time = 0;
  SimTime complete_time = 0;
  bool ok = true;
};

class SubRequestSink {
 public:
  virtual ~SubRequestSink() = default;
  virtual void OnSubRequestResolved(const SubRequestSample& sample) = 0;
};

class FileSystem {
 public:
  using DeviceFactory =
      std::function<std::unique_ptr<device::DeviceModel>(int server_index)>;
  using ContentMap = IntervalMap<std::uint64_t>;

  FileSystem(sim::Engine& engine, FsConfig config, DeviceFactory factory);

  // Opens `name`, creating it on first open. Open is idempotent: the same
  // name always yields the same FileId.
  FileId OpenOrCreate(const std::string& name);

  // Returns the id of an existing file, or kInvalidFile.
  FileId Lookup(const std::string& name) const;

  // Issues a striped request. `on_complete` fires once, at the simulated
  // time the last sub-request finishes. Zero-size requests complete
  // immediately (next engine step).
  //
  // `on_failure` (optional): invoked instead of `on_complete` — still
  // exactly once, when the last sub-request resolves — if any sub-request
  // failed (its server crashed, or a fault injector failed it). Callers
  // that pass no `on_failure` keep the legacy semantics: failures resolve
  // through `on_complete`, and only FsStats records them.
  // `parent_span` (optional): the request-level span the per-server
  // sub-request spans attach to when tracing is enabled.
  void Submit(FileId file, device::IoKind kind, byte_count offset,
              byte_count size, Priority priority,
              std::function<void(SimTime)> on_complete,
              std::function<void(SimTime)> on_failure = nullptr,
              obs::SpanId parent_span = obs::kNoSpan);

  // Attaches the shared observability bundle to this file system and all
  // its servers; metrics are scoped "pfs.<config.name>.*". Null detaches.
  void SetObservability(obs::Observability* obs);

  // --- content tracking (only when config.track_content) ---------------
  // Records that [offset, offset+size) of `file` now holds `token`.
  void StampContent(FileId file, byte_count offset, byte_count size,
                    std::uint64_t token);
  // Forgets any content in [offset, offset+size) — used when storage space
  // is recycled for a new purpose (a hole must not expose a previous
  // tenant's bytes).
  void EraseContent(FileId file, byte_count offset, byte_count size);
  // Returns the tokens covering [offset, offset+size), clipped.
  std::vector<ContentMap::Entry> ReadContent(FileId file, byte_count offset,
                                             byte_count size) const;

  void AddObserver(std::function<void(const RequestRecord&)> observer) {
    observers_.push_back(std::move(observer));
  }

  const FsConfig& config() const { return config_; }
  int server_count() const { return static_cast<int>(servers_.size()); }
  FileServer& server(int i) { return *servers_[static_cast<std::size_t>(i)]; }
  const FileServer& server(int i) const {
    return *servers_[static_cast<std::size_t>(i)];
  }
  const FsStats& stats() const { return stats_; }
  sim::Engine& engine() { return engine_; }

  // Sub-requests submitted and not yet resolved, summed over all servers.
  std::int64_t outstanding_subs() const { return outstanding_subs_; }

  // Installs the per-sub-request observation sink (src/calib). `tag` is
  // echoed in every sample so one sink can serve several FileSystems. Must
  // be installed before any I/O (per-server depth counters start at zero)
  // and only once; null is a no-op installation-wise but keeps the counters
  // off. With no sink the submit/complete paths are bit-for-bit the
  // pre-existing ones.
  void SetSubRequestSink(SubRequestSink* sink, std::uint32_t tag);
  // Client-maintained outstanding sub-requests per server; empty until a
  // sink is installed.
  const std::vector<std::int32_t>& sub_depths() const { return sub_depth_; }

  // Aggregates across servers (for reports).
  ServerStats TotalServerStats() const;

  // Resets device head positions on all servers (between phases).
  void ResetDevices();

  // --- fault state and health probes (middleware-side) -----------------
  // All servers up and none partitioned — a request issued now would not
  // fail or stall. The middleware's degraded-mode routing polls this.
  bool AllServersReachable() const;
  int DownServerCount() const;
  double WorstDeviceDegrade() const;
  double WorstWearFraction() const;
  double MeanQueueDepth() const;

 private:
  byte_count FileBaseLba(FileId file) const;

  // Failure-aware join state for one striped request, pooled and reused so
  // the submit hot path performs no per-request heap allocation (the
  // completion lambdas capture {FileSystem*, Fanout*}, which fits
  // std::function's inline buffer).
  struct Fanout {
    int remaining = 0;
    SimTime last = 0;
    bool failed = false;
    std::function<void(SimTime)> on_complete;
    std::function<void(SimTime)> on_failure;
  };
  Fanout* AcquireFanout();
  void FanoutArrive(Fanout* fanout, SimTime t, bool ok);

  // Per-sub observation state, pooled like Fanout so the
  // instrumented submit path still performs no steady-state allocation
  // (the completion lambdas capture {FileSystem*, SubTag*}: 16 bytes).
  struct SubTag {
    Fanout* fanout = nullptr;
    SimTime submit = 0;
    byte_count size = 0;
    std::int32_t server = 0;
    std::int32_t depth = 0;
    std::uint8_t kind = 0;
    std::uint8_t priority = 0;
  };
  SubTag* AcquireSubTag();
  // Decrements the server's depth, emits the sample, recycles the tag,
  // then joins the fan-out.
  void SubTagArrive(SubTag* tag, SimTime t, bool ok);

  sim::Engine& engine_;
  FsConfig config_;
  std::vector<std::unique_ptr<FileServer>> servers_;
  std::unordered_map<std::string, FileId> files_by_name_;
  std::vector<std::string> file_names_;
  std::vector<ContentMap> contents_;
  std::vector<std::function<void(const RequestRecord&)>> observers_;
  std::vector<std::unique_ptr<Fanout>> fanout_pool_;
  std::vector<Fanout*> fanout_free_;
  // Sub-observation sink (null = tap off, zero-cost paths).
  SubRequestSink* sub_sink_ = nullptr;
  std::uint32_t sub_sink_tag_ = 0;
  std::vector<std::int32_t> sub_depth_;
  std::vector<std::unique_ptr<SubTag>> subtag_pool_;
  std::vector<SubTag*> subtag_free_;
  FsStats stats_;
  std::int64_t outstanding_subs_ = 0;  // see outstanding_subs()
};

}  // namespace s4d::pfs
