#include "pfs/file_system.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"

namespace s4d::pfs {

FsStats operator-(const FsStats& after, const FsStats& before) {
  FsStats d;
  d.requests = after.requests - before.requests;
  d.bytes = after.bytes - before.bytes;
  d.failed_requests = after.failed_requests - before.failed_requests;
  d.foreground_requests =
      after.foreground_requests - before.foreground_requests;
  d.foreground_bytes = after.foreground_bytes - before.foreground_bytes;
  return d;
}

FileSystem::FileSystem(sim::Engine& engine, FsConfig config,
                       DeviceFactory factory)
    : engine_(engine), config_(std::move(config)) {
  S4D_CHECK(config_.stripe.server_count >= 1)
      << "file system needs at least one server, got "
      << config_.stripe.server_count;
  servers_.reserve(static_cast<std::size_t>(config_.stripe.server_count));
  for (int i = 0; i < config_.stripe.server_count; ++i) {
    servers_.push_back(std::make_unique<FileServer>(
        engine_, factory(i), net::LinkModel(config_.link),
        config_.name + "/server" + std::to_string(i)));
  }
}

FileId FileSystem::OpenOrCreate(const std::string& name) {
  auto [it, inserted] =
      files_by_name_.emplace(name, static_cast<FileId>(file_names_.size()));
  if (inserted) {
    file_names_.push_back(name);
    if (config_.track_content) contents_.emplace_back();
  }
  return it->second;
}

FileId FileSystem::Lookup(const std::string& name) const {
  auto it = files_by_name_.find(name);
  return it == files_by_name_.end() ? kInvalidFile : it->second;
}

byte_count FileSystem::FileBaseLba(FileId file) const {
  return static_cast<byte_count>(file) * config_.file_reservation_per_server;
}

void FileSystem::SetObservability(obs::Observability* obs) {
  for (const auto& server : servers_) {
    server->SetObservability(obs, config_.name);
  }
  if (obs == nullptr) return;
  // Tier-level load signals, evaluated lazily at sample/export time.
  obs->metrics.SetGaugeFn("pfs." + config_.name + ".queue_depth", [this] {
    std::size_t depth = 0;
    for (const auto& server : servers_) depth += server->queue_depth();
    return static_cast<double>(depth);
  });
  obs->metrics.SetGaugeFn("pfs." + config_.name + ".link_busy_ns", [this] {
    SimTime busy = 0;
    for (const auto& server : servers_) busy += server->link().stats().wire_time;
    return static_cast<double>(busy);
  });
}

void FileSystem::SetSubRequestSink(SubRequestSink* sink, std::uint32_t tag) {
  S4D_CHECK(outstanding_subs_ == 0)
      << "SetSubRequestSink with " << outstanding_subs_
      << " sub-requests in flight (install before any I/O)";
  sub_sink_ = sink;
  sub_sink_tag_ = tag;
  sub_depth_.assign(static_cast<std::size_t>(server_count()), 0);
}

FileSystem::SubTag* FileSystem::AcquireSubTag() {
  if (subtag_free_.empty()) {
    subtag_pool_.push_back(std::make_unique<SubTag>());
    subtag_free_.push_back(subtag_pool_.back().get());
  }
  SubTag* tag = subtag_free_.back();
  subtag_free_.pop_back();
  return tag;
}

void FileSystem::SubTagArrive(SubTag* tag, SimTime t, bool ok) {
  --sub_depth_[static_cast<std::size_t>(tag->server)];
  SubRequestSample sample;
  sample.tag = sub_sink_tag_;
  sample.server = tag->server;
  sample.kind = static_cast<device::IoKind>(tag->kind);
  sample.priority = static_cast<Priority>(tag->priority);
  sample.size = tag->size;
  sample.depth_at_submit = tag->depth;
  sample.submit_time = tag->submit;
  sample.complete_time = t;
  sample.ok = ok;
  Fanout* fanout = tag->fanout;
  // Recycle before emitting/joining: either callback may submit follow-up
  // I/O that re-acquires this tag.
  subtag_free_.push_back(tag);
  sub_sink_->OnSubRequestResolved(sample);
  FanoutArrive(fanout, t, ok);
}

FileSystem::Fanout* FileSystem::AcquireFanout() {
  if (fanout_free_.empty()) {
    fanout_pool_.push_back(std::make_unique<Fanout>());
    fanout_free_.push_back(fanout_pool_.back().get());
  }
  Fanout* fanout = fanout_free_.back();
  fanout_free_.pop_back();
  return fanout;
}

void FileSystem::FanoutArrive(Fanout* fanout, SimTime t, bool ok) {
  S4D_DCHECK(fanout->remaining > 0)
      << "sub-request completion after the request already finished";
  --outstanding_subs_;
  fanout->last = std::max(fanout->last, t);
  if (!ok) fanout->failed = true;
  if (--fanout->remaining > 0) return;
  // Move the callbacks out and recycle *before* firing: the callback may
  // submit a follow-up request that re-acquires this very Fanout.
  auto on_complete = std::move(fanout->on_complete);
  auto on_failure = std::move(fanout->on_failure);
  const bool failed = fanout->failed;
  const SimTime last = fanout->last;
  fanout->on_complete = nullptr;
  fanout->on_failure = nullptr;
  fanout_free_.push_back(fanout);
  if (failed) {
    ++stats_.failed_requests;
    auto& cb = on_failure ? on_failure : on_complete;
    if (cb) cb(last);
  } else if (on_complete) {
    on_complete(last);
  }
}

void FileSystem::Submit(FileId file, device::IoKind kind, byte_count offset,
                        byte_count size, Priority priority,
                        std::function<void(SimTime)> on_complete,
                        std::function<void(SimTime)> on_failure,
                        obs::SpanId parent_span) {
  S4D_CHECK(file >= 0 && static_cast<std::size_t>(file) < file_names_.size())
      << "I/O on unopened file id " << file << " (" << file_names_.size()
      << " files open)";
  S4D_CHECK(offset >= 0) << "negative file offset " << offset;

  const auto subs = SplitRequest(config_.stripe, offset, size);
  if (subs.empty()) {
    engine_.ScheduleAfter(0, [cb = std::move(on_complete), this]() {
      if (cb) cb(engine_.now());
    });
    return;
  }

  ++stats_.requests;
  stats_.bytes += size;
  if (priority == Priority::kNormal) {
    ++stats_.foreground_requests;
    stats_.foreground_bytes += size;
  }
  outstanding_subs_ += static_cast<std::int64_t>(subs.size());

  RequestRecord record;
  record.file = file;
  record.kind = kind;
  record.offset = offset;
  record.size = size;
  record.priority = priority;
  record.issue_time = engine_.now();
  record.server_count = static_cast<int>(subs.size());
  for (const auto& observer : observers_) observer(record);

  // Failure-aware join: the request resolves when the last sub-request
  // does; it fails as a whole if any sub-request failed.
  Fanout* state = AcquireFanout();
  state->remaining = static_cast<int>(subs.size());
  state->last = 0;
  state->failed = false;
  state->on_complete = std::move(on_complete);
  state->on_failure = std::move(on_failure);

  const byte_count base = FileBaseLba(file);
  for (const SubRequest& sub : subs) {
    ServerJob job;
    job.kind = kind;
    job.lba = base + sub.server_offset;
    job.size = sub.size;
    job.priority = priority;
    if (sub_sink_ != nullptr) {
      SubTag* tag = AcquireSubTag();
      tag->fanout = state;
      tag->submit = record.issue_time;
      tag->size = sub.size;
      tag->server = sub.server;
      tag->depth = sub_depth_[static_cast<std::size_t>(sub.server)]++;
      tag->kind = static_cast<std::uint8_t>(kind);
      tag->priority = static_cast<std::uint8_t>(priority);
      // {this, tag} fits std::function's inline buffer: no allocation.
      job.on_complete = [this, tag](SimTime t) { SubTagArrive(tag, t, true); };
      job.on_failure = [this, tag](SimTime t) { SubTagArrive(tag, t, false); };
    } else {
      // {this, state} fits std::function's inline buffer: no allocation.
      job.on_complete = [this, state](SimTime t) {
        FanoutArrive(state, t, true);
      };
      job.on_failure = [this, state](SimTime t) {
        FanoutArrive(state, t, false);
      };
    }
    job.parent_span = parent_span;
    servers_[static_cast<std::size_t>(sub.server)]->Submit(std::move(job));
  }
}

bool FileSystem::AllServersReachable() const {
  for (const auto& server : servers_) {
    if (!server->reachable()) return false;
  }
  return true;
}

int FileSystem::DownServerCount() const {
  int down = 0;
  for (const auto& server : servers_) {
    if (!server->up()) ++down;
  }
  return down;
}

double FileSystem::WorstDeviceDegrade() const {
  double worst = 1.0;
  for (const auto& server : servers_) {
    worst = std::max(worst, server->device().degrade());
  }
  return worst;
}

double FileSystem::WorstWearFraction() const {
  double worst = 0.0;
  for (const auto& server : servers_) {
    worst = std::max(worst, server->device().WearFraction());
  }
  return worst;
}

double FileSystem::MeanQueueDepth() const {
  if (servers_.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& server : servers_) {
    sum += static_cast<double>(server->queue_depth());
  }
  return sum / static_cast<double>(servers_.size());
}

void FileSystem::StampContent(FileId file, byte_count offset, byte_count size,
                              std::uint64_t token) {
  if (!config_.track_content || size <= 0) return;
  S4D_CHECK(file >= 0 && static_cast<std::size_t>(file) < contents_.size())
      << "stamping unopened file id " << file;
  contents_[static_cast<std::size_t>(file)].Assign(offset, offset + size,
                                                   token);
}

void FileSystem::EraseContent(FileId file, byte_count offset,
                              byte_count size) {
  if (!config_.track_content || size <= 0) return;
  S4D_CHECK(file >= 0 && static_cast<std::size_t>(file) < contents_.size())
      << "erasing content of unopened file id " << file;
  contents_[static_cast<std::size_t>(file)].Erase(offset, offset + size);
}

std::vector<FileSystem::ContentMap::Entry> FileSystem::ReadContent(
    FileId file, byte_count offset, byte_count size) const {
  if (!config_.track_content || size <= 0) return {};
  S4D_CHECK(file >= 0 && static_cast<std::size_t>(file) < contents_.size())
      << "reading content of unopened file id " << file;
  return contents_[static_cast<std::size_t>(file)].Overlapping(offset,
                                                               offset + size);
}

ServerStats FileSystem::TotalServerStats() const {
  ServerStats total;
  for (const auto& server : servers_) {
    const ServerStats& s = server->stats();
    total.requests += s.requests;
    total.background_requests += s.background_requests;
    total.bytes += s.bytes;
    total.background_bytes += s.background_bytes;
    total.busy_time += s.busy_time;
    total.positioning_time += s.positioning_time;
    total.zero_positioning_jobs += s.zero_positioning_jobs;
  }
  return total;
}

void FileSystem::ResetDevices() {
  for (auto& server : servers_) server->ResetDevice();
}

}  // namespace s4d::pfs
