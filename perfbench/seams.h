// Host-time seams for the benchmark's traced run.
//
// Every seam sits *outside* the simulator: it wraps a public interface
// (IoDispatch, the Redirector's victim-provider hook, the pfs sub-request
// sink) or calls a side-effect-free const method, so the traced run
// simulates exactly what the untraced run does. Spans are kept in memory
// while recording is on and written out once the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "mpiio/io_dispatch.h"
#include "pfs/file_system.h"

namespace s4d::perfbench {

using Clock = std::chrono::steady_clock;

enum class Layer : std::uint8_t {
  kCoreWrite,         // S4DCache::Write, via the IoDispatch decorator
  kCoreRead,          // S4DCache::Read
  kDmtEvict,          // DataMappingTable::EvictLruClean (victim search)
  kDmtCollectDirty,   // DataMappingTable::CollectDirtyRuns (destage scan)
  kCheck,             // ContentChecker's ReadContent (traced run only)
  kCount,
};

inline const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kCoreWrite: return "core.write";
    case Layer::kCoreRead: return "core.read";
    case Layer::kDmtEvict: return "core.dmt.evict";
    case Layer::kDmtCollectDirty: return "core.dmt.collect_dirty";
    case Layer::kCheck: return "harness.check";
    case Layer::kCount: break;
  }
  return "?";
}

struct Span {
  Layer layer = Layer::kCoreWrite;
  std::int64_t start_ns = 0;  // host ns since recording started
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;  // core call the span belongs to; 0 = none
  std::int32_t parent = -1;   // index of the enclosing span; -1 = top level

  std::int64_t duration() const { return end_ns - start_ns; }
};

// In-memory span recorder. Nesting follows the host call stack: a span
// opened while another is open becomes its child and inherits its request.
class SpanLog {
 public:
  void Start() {
    origin_ = Clock::now();
    recording_ = true;
  }
  void Stop() { recording_ = false; }
  bool recording() const { return recording_; }

  // Runs `fn` inside a span of `layer`; `request` 0 inherits the enclosing
  // span's request. Outside recording, just runs `fn`.
  template <typename F>
  decltype(auto) Timed(Layer layer, std::uint64_t request, F&& fn) {
    if (!recording_) return fn();
    const auto index = static_cast<std::int32_t>(spans_.size());
    Span span;
    span.layer = layer;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.request = request != 0 ? request
                   : span.parent >= 0
                       ? spans_[static_cast<std::size_t>(span.parent)].request
                       : 0;
    spans_.push_back(span);
    stack_.push_back(index);
    spans_.back().start_ns = Now();
    struct Closer {
      SpanLog& log;
      std::int32_t index;
      ~Closer() {
        log.spans_[static_cast<std::size_t>(index)].end_ns = log.Now();
        log.stack_.pop_back();
      }
    } closer{*this, index};
    return fn();
  }

  const std::vector<Span>& spans() const { return spans_; }

  // One line per span: id,layer,start_ns,end_ns,request,parent.
  bool WriteCsv(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "id,layer,start_ns,end_ns,request,parent\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu,%s,%lld,%lld,%llu,%d\n", i, LayerName(s.layer),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.request), s.parent);
    }
    return std::fclose(out) == 0;
  }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool recording_ = false;
  Clock::time_point origin_{};
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

// IoDispatch decorator between MpiIoLayer and S4DCache: times each
// foreground call into the middleware (the `core` layer).
class TimedDispatch final : public mpiio::IoDispatch {
 public:
  TimedDispatch(mpiio::IoDispatch& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  void Open(const std::string& file) override { inner_.Open(file); }
  void Close(const std::string& file) override { inner_.Close(file); }
  void Read(const mpiio::FileRequest& request,
            mpiio::IoCompletion done) override {
    log_.Timed(Layer::kCoreRead, ++calls_,
               [&] { inner_.Read(request, std::move(done)); });
  }
  void Write(const mpiio::FileRequest& request,
             mpiio::IoCompletion done) override {
    log_.Timed(Layer::kCoreWrite, ++calls_,
               [&] { inner_.Write(request, std::move(done)); });
  }
  // Only the ContentChecker reads content; timing it keeps verification
  // out of the host time attributed to the simulator.
  std::vector<mpiio::ContentEntry> ReadContent(const std::string& file,
                                               byte_count offset,
                                               byte_count size) override {
    return log_.Timed(Layer::kCheck, 0, [&] {
      return inner_.ReadContent(file, offset, size);
    });
  }
  void StampContent(const std::string& file, byte_count offset,
                    byte_count size, std::uint64_t token) override {
    inner_.StampContent(file, offset, size, token);
  }
  std::string Name() const override { return inner_.Name(); }

 private:
  mpiio::IoDispatch& inner_;
  SpanLog& log_;
  std::uint64_t calls_ = 0;
};

// Foreground sub-requests per tier, as the pfs client observed them.
class TierRecorder final : public pfs::SubRequestSink {
 public:
  struct Tier {
    Samples latency;  // ns
    std::int64_t depth_sum = 0;
  };
  static constexpr std::uint32_t kDServers = 0;
  static constexpr std::uint32_t kCServers = 1;

  explicit TierRecorder(const SpanLog& log) : log_(log) {}

  void OnSubRequestResolved(const pfs::SubRequestSample& sample) override {
    if (!log_.recording() || sample.priority != pfs::Priority::kNormal) return;
    Tier& tier = tiers_[sample.tag == kCServers ? 1 : 0];
    tier.latency.Add(
        static_cast<double>(sample.complete_time - sample.submit_time));
    tier.depth_sum += sample.depth_at_submit;
  }

  Tier& tier(std::uint32_t tag) { return tiers_[tag == kCServers ? 1 : 0]; }

 private:
  const SpanLog& log_;
  Tier tiers_[2];
};

}  // namespace s4d::perfbench
