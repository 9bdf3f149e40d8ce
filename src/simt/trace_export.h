#pragma once

#include <iosfwd>

#include "src/simt/device.h"

namespace nestpar::simt {

/// Write the recorded session's schedule as Chrome trace-event JSON
/// (loadable in chrome://tracing or Perfetto): one timeline row per stream,
/// one complete event per grid, with launch origin / grid shape / key
/// metrics in the event args. The timing pass runs on a copy of the session,
/// so exporting does not perturb a later `report()`.
///
/// Under an active simt::Profile (see ProfileScope) the trace additionally
/// carries Perfetto counter tracks for every counter sample recorded into
/// that profile (queue split sizes, autoropes split levels, ...), instant
/// events for template markers (queue flushes) and fault-model activity
/// (injections, refusals, retries, degradations) attributed to the grid
/// they occurred in, launch-edge flows and a critical-path row. With no
/// active profile the output is byte-identical to the plain exporter.
void write_chrome_trace(std::ostream& out, const Device& dev);

}  // namespace nestpar::simt
