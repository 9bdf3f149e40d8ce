#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "src/graph/csr.h"
#include "src/nested/templates.h"
#include "src/simt/cpu_model.h"
#include "src/simt/device.h"

namespace nestpar::apps {

inline constexpr float kInfDistance = std::numeric_limits<float>::infinity();

/// Result of an SSSP run: distances plus the relaxation-sweep count.
struct SsspResult {
  std::vector<float> dist;
  int iterations = 0;
};

/// Single-source shortest paths after Harish & Narayanan [5]: a mask-driven
/// Bellman-Ford whose relaxation kernel is the paper's flagship irregular
/// nested loop (Fig. 5, Table I). Every sweep runs the relaxation through the
/// chosen parallelization template, followed by a plain thread-mapped update
/// kernel (identical across templates, as in the paper).
SsspResult run_sssp(simt::Device& dev, const graph::Csr& g, std::uint32_t src,
                    nested::LoopTemplate tmpl,
                    const nested::LoopParams& p = {});

/// Serial CPU reference: worklist Bellman-Ford (SPFA) — the natural serial
/// counterpart of the GPU mask-driven relaxation and the CPU baseline used
/// for the paper's speedup figures. Charges `timer` if given.
std::vector<float> sssp_serial(const graph::Csr& g, std::uint32_t src,
                               simt::CpuTimer* timer = nullptr);

/// Serial Dijkstra (binary heap).
/// Test oracle: independent of SPFA, it validates both the GPU variants and
/// the SPFA reference.
std::vector<float> sssp_serial_dijkstra(const graph::Csr& g, std::uint32_t src,
                                        simt::CpuTimer* timer = nullptr);

}  // namespace nestpar::apps
