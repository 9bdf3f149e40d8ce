#pragma once

#include "src/nested/workload.h"
#include "src/simt/device.h"

namespace nestpar::nested {

/// Flattening transformation (Blelloch & Sabot [25], NESL [26], Bergstrom &
/// Reppy [27]) — the related-work alternative to the paper's templates: the
/// nested loop is flattened into a single edge-parallel loop over all
/// (i, j) pairs, so no load balancing is needed at all.
///
/// Pipeline (all on the device, as a flattening compiler would emit):
///   1. `sizes` kernel  — materialize f(i) for every outer iteration;
///   2. scan kernels    — exclusive prefix sum of the sizes (two-level
///                        block scan), yielding flat segment offsets;
///   3. `edge` kernel   — one thread per inner iteration: binary-search the
///                        offsets for its segment, run the body, and reduce
///                        block-local runs in shared memory (segments fully
///                        inside a block commit immediately; block-boundary
///                        segments spill to a global partial array);
///   4. `fixup` kernel  — commit every segment not already committed
///                        (boundary segments and empty segments).
///
/// Contrast with the templates: perfect load balance (every lane does one
/// inner iteration) at the price of the scan passes, the per-edge segment
/// search, and atomics on boundary segments.
struct FlattenParams {
  int block_size = 192;
  int max_grid_blocks = 65535;
};

/// Run the workload once, flattened. Functional results land in the
/// workload's arrays; model time and metrics come from the report of the
/// Session the caller opened on `dev`.
void run_flattened(simt::Device& dev, const NestedLoopWorkload& w,
                   const FlattenParams& p = {});

}  // namespace nestpar::nested
