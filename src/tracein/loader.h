// Format-sniffing trace loader. Reduces every supported input to the
// LoadedTrace normal form (trace_format.h):
//
//   msr     MSR-Cambridge-style block trace CSV, one request per row:
//             timestamp,hostname,disk,type,offset,size,latency
//           timestamp and latency are 100 ns ticks (Windows-filetime
//           convention); type is read/write (case-insensitive); offset and
//           size are bytes. A header row starting with "timestamp" is
//           skipped. Arrivals are normalized to the earliest row and rows
//           are stably ordered by arrival, so equal (rounded) timestamps
//           keep their file order. Each distinct hostname.disk pair is one
//           replay stream.
//
//   native  The CSV that the former IOSIG-style trace collector wrote
//           (examples/traces/native_sample.csv is the committed sample):
//             system,file,kind,offset,size,priority,issue_ns,servers
//           Background-priority rows are dropped (they are the middleware's
//           own flush/fetch traffic, not application requests). Each
//           distinct system/file pair is one stream; arrivals are
//           normalized to the earliest kept row.
//
//   replay  The replay CSV the driver's on_issue hook captures:
//             rank,kind,offset,size[,arrival_ns]
//           The arrival column is optional but must be present on every
//           row or none (a mixed file is malformed). Without it the trace
//           loads with has_timestamps = false and file order per rank.
//
//   binary  Compact binary (magic "S4DTRC01"): a 24-byte header, the
//           stream-label table, then 32 bytes per record. Produced by
//           ToBinary / tools/trace_convert; ~3x smaller than CSV and loads
//           without any text parsing.
//
// All parsers return a precise error Status naming the 1-based line (or
// record) number of the first malformed row.
#pragma once

#include <string>

#include "common/status.h"
#include "tracein/trace_format.h"

namespace s4d::tracein {

class TraceLoader {
 public:
  // Maps a [trace] config value ("auto", "msr", ...) to a format.
  static Result<TraceFormat> FormatFromName(const std::string& name);

  // Content-based format detection; never fails outright — returns kAuto
  // when nothing matches (Parse then reports the error).
  static TraceFormat Sniff(const std::string& data);

  // Parses `data` as `format` (kAuto = sniff first). `source` labels the
  // trace in error messages and reports.
  static Result<LoadedTrace> Parse(const std::string& data,
                                   TraceFormat format = TraceFormat::kAuto,
                                   const std::string& source = "<memory>");

  // Reads and parses a file.
  static Result<LoadedTrace> LoadFile(const std::string& path,
                                      TraceFormat format = TraceFormat::kAuto);

  // Serializers, for tools/trace_convert and tests. ToReplayCsv emits the
  // arrival column only when the trace has timestamps.
  static std::string ToBinary(const LoadedTrace& trace);
  static std::string ToReplayCsv(const LoadedTrace& trace);
};

}  // namespace s4d::tracein
