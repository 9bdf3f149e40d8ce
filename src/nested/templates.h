#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/nested/workload.h"
#include "src/simt/device.h"
#include "src/simt/exec_policy.h"

namespace nestpar::nested {

/// The parallelization templates of Figure 1 plus the workload-consolidation
/// family from the follow-up line of work. `kBaseline` is the paper's
/// comparison point (thread-mapped outer loop, no load balancing);
/// `kBlockMapped` is the other naive mapping (included for ablations).
enum class LoopTemplate {
  kBaseline,    ///< Fig. 1(a) thread-mapped, no load balancing.
  kBlockMapped, ///< Outer iterations to blocks, inner iterations to threads.
  kWarpMapped,  ///< Virtual warp-centric mapping (Hong et al. [20]): one
                ///< warp per outer iteration, lanes split the inner loop.
  kDualQueue,   ///< Fig. 1(b): small-work queue + big-work queue.
  kDbufShared,  ///< Fig. 1(c): delayed buffer in shared memory, one kernel.
  kDbufGlobal,  ///< Fig. 1(c): delayed buffer in global memory, two kernels.
  kDparNaive,   ///< Fig. 1(d): one nested launch per large iteration.
  kDparOpt,     ///< Fig. 1(e): one nested launch per block, second phase.
  kConsWarp,    ///< Workload consolidation: one aggregated child grid per
                ///< warp, lanes evenly split over the concatenated ranges.
  kConsBlock,   ///< Workload consolidation: one aggregated child grid per
                ///< block (dpar-opt's scope, but a balanced child).
  kConsGrid,    ///< Workload consolidation: a single aggregated child grid
                ///< for the whole kernel.
};

/// Template families, used to group registry rows: the naive mappings, the
/// paper's load-balancing templates (Figs. 5/6), and the launch-aggregating
/// consolidation templates.
enum class TemplateFamily {
  kBasic,
  kLoadBalancing,
  kConsolidation,
};

/// Canonical family name ("basic", "load-balancing", "consolidation").
std::string_view name(TemplateFamily f);

/// Tuning knobs shared by all templates (paper §III.B):
///  - lb_threshold: iterations with inner_size > lb_threshold are "large" and
///    are processed block-mapped (or via nested kernels).
///  - thread_block_size: block size of thread-mapped phases; 192 matches the
///    cores-per-SM figure the paper derives from the occupancy calculator.
///  - block_block_size: block size of block-mapped phases; the paper settles
///    on 64 after the Figure 4 sweep.
struct LoopParams {
  int lb_threshold = 32;
  int thread_block_size = 192;
  int block_block_size = 64;
  int max_grid_blocks = 65535;
  /// Capacity of the per-block shared-memory delayed buffer (entries) used
  /// by dbuf-shared and dpar-opt.
  int shared_buffer_entries = 256;
  /// Workload-consolidation knobs (cons-warp / cons-block / cons-grid):
  /// capacity of each aggregation scope's descriptor buffer (entries per
  /// warp for cons-warp, per block for cons-block)...
  int cons_buffer_entries = 256;
  /// ...and the minimum number of buffered descriptors worth one aggregated
  /// child launch. Scopes holding fewer drain them inline instead of
  /// launching (the thresholding heuristic of the consolidation papers).
  int cons_min_descriptors = 2;

  /// Throws std::invalid_argument naming the offending field if any knob is
  /// out of range. Called by run_nested_loop before launching anything.
  void validate() const;
};

/// One registry row fully describing a template: its canonical name, family,
/// whether the autotuner should consider it by default, and the function
/// that executes it. Adding a template is a one-row change in templates.cpp;
/// names, parsers, autotune defaults, and bench listings all derive from
/// this table.
struct LoopTemplateDesc {
  LoopTemplate tmpl;
  std::string_view name;
  TemplateFamily family;
  /// Candidate in AutotuneOptions' default sweep.
  bool autotune_default;
  void (*run)(simt::Device&, const NestedLoopWorkload&, const LoopParams&);
};

/// The full template registry, in presentation order.
std::span<const LoopTemplateDesc> loop_templates();

/// Registry row for one template (never fails: every enum value has a row).
const LoopTemplateDesc& describe(LoopTemplate t);

/// All templates of one family, in presentation order.
std::vector<LoopTemplate> templates_in_family(TemplateFamily f);

/// The templates flagged as default autotune candidates.
std::vector<LoopTemplate> default_autotune_templates();

/// Canonical template name ("baseline", "dual-queue", ...). The returned
/// view points at a string literal and never dangles.
std::string_view name(LoopTemplate t);

/// Inverse of `name`: parse a template from its canonical spelling. Throws
/// std::invalid_argument listing the valid names — CLI code can surface the
/// message verbatim.
LoopTemplate parse_loop_template(std::string_view s);

/// Everything one execution needs: the template, its tuning knobs, and —
/// optionally — an ExecPolicy. With a policy set, run_nested_loop opens a
/// fresh session under it and the returned RunResult carries the report for
/// exactly that execution; without one, the run records into the Session
/// the caller opened on the device (and times it with that Session's
/// report()) and the returned report is empty.
struct LoopRun {
  LoopTemplate tmpl = LoopTemplate::kBaseline;
  LoopParams params{};
  std::optional<simt::ExecPolicy> policy{};
};

/// Result of a run: the timing report when `LoopRun::policy` was set (empty
/// otherwise). Functional results are in the workload's arrays, as always.
struct RunResult {
  simt::RunReport report;
};

/// The single entry point: execute the workload once on `dev` as described
/// by `run`. Functional results land in the workload's arrays immediately.
RunResult run_nested_loop(simt::Device& dev, const NestedLoopWorkload& w,
                          const LoopRun& run);

}  // namespace nestpar::nested
