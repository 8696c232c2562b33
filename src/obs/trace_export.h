// Exporters for recorded spans: Chrome trace-event JSON (loadable in
// chrome://tracing or https://ui.perfetto.dev) and a human-readable
// indented span tree for slow-query logs and CLI output.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/status.h"

namespace dust {
namespace obs {

/// Renders `records` as Chrome trace-event JSON. Every span becomes a
/// complete ("ph":"X") event with ts/dur in microseconds on the shared
/// steady-clock base; trace/span/parent ids ride in `args` as hex strings
/// so they survive JSON number precision. `process_label` names this
/// process in the trace viewer via a process_name metadata event.
std::string ExportChromeTrace(const std::vector<SpanRecord>& records,
                              const std::string& process_label);

/// Writes `ExportChromeTrace(records, process_label)` to `path`.
Status WriteChromeTrace(const std::string& path,
                        const std::vector<SpanRecord>& records,
                        const std::string& process_label);

/// Renders the spans of one trace as an indented tree, children ordered
/// by start time, each line showing the span name, duration, and offset
/// from the trace's first span. Spans whose parent is absent from
/// `records` (e.g. evicted from the collector's ring) are printed as
/// roots.
std::string RenderSpanTree(uint64_t trace_id,
                           const std::vector<SpanRecord>& records);

}  // namespace obs
}  // namespace dust
