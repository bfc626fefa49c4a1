// The interception point the paper installs inside the MPI-IO library.
//
// Every file operation an application issues through the MpiIoLayer is
// routed to an IoDispatch. The *stock* dispatch (stock_dispatch.h) forwards
// everything to the HDD-backed parallel file system — the paper's baseline
// "stock I/O system". The S4D-Cache facade (core/s4d_cache.h) implements the
// same interface and is what §IV-B's modified MPI_File_* functions become.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/interval_map.h"
#include "common/sim_time.h"
#include "common/units.h"
#include "device/device_model.h"

namespace s4d::mpiio {

struct FileRequest {
  std::string file;   // logical (original) file name
  int rank = 0;       // issuing MPI rank
  byte_count offset = 0;
  byte_count size = 0;
  // Verification only: when non-zero and content tracking is enabled, a
  // write stamps this token over the range it lands on.
  std::uint64_t content_token = 0;
};

using ContentEntry = IntervalMap<std::uint64_t>::Entry;
using IoCompletion = std::function<void(SimTime completion_time)>;

class IoDispatch {
 public:
  virtual ~IoDispatch() = default;

  // Mirrors MPI_File_open / MPI_File_close: open is per logical file (the
  // middleware may open companion cache files under the hood).
  virtual void Open(const std::string& file) = 0;
  virtual void Close(const std::string& file) = 0;

  virtual void Read(const FileRequest& request, IoCompletion done) = 0;
  virtual void Write(const FileRequest& request, IoCompletion done) = 0;

  // Verification hooks (no-ops unless the underlying file systems track
  // content). ReadContent returns what an application read of the range
  // would observe *given the mapping at this instant* — the same instant at
  // which Read() makes its routing decision.
  virtual std::vector<ContentEntry> ReadContent(const std::string& file,
                                                byte_count offset,
                                                byte_count size) = 0;

  // Stamps `token` over the range, wherever the data for that range
  // currently lives, without issuing I/O. Dispatches that wrap another one
  // (the client memory cache, timing shims) forward it to their backend.
  // Must be called at the same instant as (directly after) the
  // corresponding Write().
  virtual void StampContent(const std::string& file, byte_count offset,
                            byte_count size, std::uint64_t token) {
    (void)file;
    (void)offset;
    (void)size;
    (void)token;
  }

  virtual std::string Name() const = 0;
};

}  // namespace s4d::mpiio
