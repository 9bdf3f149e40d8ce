// Tree substrate tests (the paper's synthetic tree generator) and sparse
// matrix substrate tests, plus the CPU cost-model cache simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/matrix/csr_matrix.h"
#include "src/simt/cpu_model.h"
#include "src/tree/tree.h"
#include "tests/fnv1a.h"

namespace t = nestpar::tree;
namespace m = nestpar::matrix;
namespace simt = nestpar::simt;

namespace {

TEST(TreeGen, RegularTreeShape) {
  // depth 2, outdegree 3, sparsity 0: 1 + 3 + 9 = 13 nodes.
  const t::Tree tr = t::generate_tree({.depth = 2, .outdegree = 3}, 1);
  EXPECT_EQ(tr.num_nodes(), 13u);
  EXPECT_EQ(tr.max_level(), 2u);
  EXPECT_NO_THROW(tr.validate());
  EXPECT_EQ(tr.num_children(0), 3u);
  EXPECT_EQ(tr.num_children(12), 0u);
}

TEST(TreeGen, DepthZeroIsSingleNode) {
  const t::Tree tr = t::generate_tree({.depth = 0, .outdegree = 5}, 1);
  EXPECT_EQ(tr.num_nodes(), 1u);
  EXPECT_EQ(tr.num_children(0), 0u);
}

TEST(TreeGen, RootAlwaysExpands) {
  // Even with extreme sparsity the root has children.
  const t::Tree tr =
      t::generate_tree({.depth = 3, .outdegree = 4, .sparsity = 10}, 2);
  EXPECT_EQ(tr.num_children(0), 4u);
}

TEST(TreeGen, SparsityShrinksTree) {
  const t::Tree dense =
      t::generate_tree({.depth = 4, .outdegree = 8, .sparsity = 0}, 3);
  const t::Tree sparse =
      t::generate_tree({.depth = 4, .outdegree = 8, .sparsity = 2}, 3);
  EXPECT_GT(dense.num_nodes(), sparse.num_nodes());
  EXPECT_NO_THROW(sparse.validate());
}

TEST(TreeGen, SparsityOneHalvesExpansion) {
  // With rho = 1/2, interior nodes expand about half the time.
  const t::Tree tr =
      t::generate_tree({.depth = 2, .outdegree = 10, .sparsity = 1}, 4);
  // Level-1 nodes: 10; expanders ~5; nodes ~ 1 + 10 + ~50.
  EXPECT_GT(tr.num_nodes(), 20u);
  EXPECT_LT(tr.num_nodes(), 111u);
}

TEST(TreeGen, DeterministicInSeed) {
  const t::Tree a =
      t::generate_tree({.depth = 3, .outdegree = 5, .sparsity = 1}, 7);
  const t::Tree b =
      t::generate_tree({.depth = 3, .outdegree = 5, .sparsity = 1}, 7);
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.children, b.children);
}

TEST(TreeGen, BfsOrderMeansLevelsMonotone) {
  const t::Tree tr =
      t::generate_tree({.depth = 4, .outdegree = 4, .sparsity = 1}, 9);
  ASSERT_EQ(tr.level_offsets.size(), tr.max_level() + 2u);
  EXPECT_EQ(tr.level_offsets.front(), 0u);
  EXPECT_EQ(tr.level_offsets[1], 1u);  // The root alone.
  EXPECT_EQ(tr.level_offsets.back(), tr.num_nodes());
  for (std::size_t l = 1; l < tr.level_offsets.size(); ++l) {
    EXPECT_GT(tr.level_offsets[l], tr.level_offsets[l - 1]);
  }
}

// Each node's level, recomputed from `parent` alone (a parent precedes its
// children in BFS order).
std::vector<std::uint32_t> levels_from_parents(const t::Tree& tr) {
  std::vector<std::uint32_t> level(tr.num_nodes(), 0);
  for (std::uint32_t v = 1; v < tr.num_nodes(); ++v) {
    level[v] = level[tr.parent[v]] + 1;
  }
  return level;
}

// Each node's level, read back from `level_range`.
std::vector<std::uint32_t> levels_from_ranges(const t::Tree& tr) {
  std::vector<std::uint32_t> level(tr.num_nodes(), 0);
  for (std::uint32_t l = 0; l <= tr.max_level(); ++l) {
    const auto [first, last] = tr.level_range(l);
    for (std::uint32_t v = first; v < last; ++v) level[v] = l;
  }
  return level;
}

TEST(TreeGen, LevelRangesMatchParentLevels) {
  for (const int sparsity : {0, 1, 2, 5}) {
    SCOPED_TRACE(sparsity);
    const t::Tree tr = t::generate_tree(
        {.depth = 4, .outdegree = 6, .sparsity = sparsity}, 11);
    const std::vector<std::uint32_t> expect = levels_from_parents(tr);
    EXPECT_EQ(tr.max_level(), *std::max_element(expect.begin(), expect.end()));
    for (std::uint32_t l = 0; l <= tr.max_level() + 1; ++l) {
      const auto first = static_cast<std::uint32_t>(
          std::lower_bound(expect.begin(), expect.end(), l) - expect.begin());
      const auto last = static_cast<std::uint32_t>(
          std::upper_bound(expect.begin(), expect.end(), l) - expect.begin());
      EXPECT_EQ(tr.level_range(l), std::make_pair(first, last)) << "level " << l;
    }
    EXPECT_EQ(levels_from_ranges(tr), expect);
  }
}

TEST(TreeGen, SparseTreeStopsBeforeDepth) {
  // sparsity >= 63 expands only the root, so levels 2..depth are absent:
  // they read as empty ranges past the last node.
  const t::Tree tr =
      t::generate_tree({.depth = 6, .outdegree = 3, .sparsity = 63}, 1);
  EXPECT_EQ(tr.num_nodes(), 4u);
  EXPECT_EQ(tr.max_level(), 1u);
  EXPECT_EQ(tr.level_range(1), std::make_pair(1u, 4u));
  EXPECT_EQ(tr.level_range(2), std::make_pair(4u, 4u));
  EXPECT_EQ(tr.level_range(6), std::make_pair(4u, 4u));
  EXPECT_NO_THROW(tr.validate());
}

TEST(TreeGen, RejectsBadParams) {
  EXPECT_THROW(t::generate_tree({.depth = -1}, 0), std::invalid_argument);
  EXPECT_THROW(t::generate_tree({.depth = 2, .outdegree = 0}, 0),
               std::invalid_argument);
  EXPECT_THROW(t::generate_tree({.depth = 2, .outdegree = 2, .sparsity = -3},
                                0),
               std::invalid_argument);
}

// Every tree input starts here, so the generator's output is pinned byte for
// byte: an FNV-1a hash over the raw bytes of the three CSR arrays and the
// per-node level array that `level_range` implies. A speed-up of the
// generator must leave both values unchanged.
std::uint64_t tree_hash(const t::Tree& tr) {
  return nestpar::test::fnv1a(tr.child_offsets, tr.children, tr.parent,
                              levels_from_ranges(tr));
}

TEST(TreeGen, PinnedBytes) {
  EXPECT_EQ(tree_hash(t::generate_tree(
                {.depth = 4, .outdegree = 8, .sparsity = 0}, 5)),
            0xc63ce64119b4a773ull);
  EXPECT_EQ(tree_hash(t::generate_tree(
                {.depth = 4, .outdegree = 8, .sparsity = 1}, 5)),
            0x3c83d3050dca45e8ull);
}

TEST(TreeValidate, CatchesCorruption) {
  t::Tree tr = t::generate_tree({.depth = 2, .outdegree = 2}, 0);
  tr.parent[3] = 0xdead;
  EXPECT_THROW(tr.validate(), std::invalid_argument);
}

TEST(TreeValidate, CatchesBadLevelOffsets) {
  const t::Tree good = t::generate_tree({.depth = 2, .outdegree = 2}, 0);
  ASSERT_NO_THROW(good.validate());
  t::Tree shifted = good;  // Level 1 = {1} and level 2 = {2..6}: wrong.
  shifted.level_offsets[2] = 2;
  EXPECT_THROW(shifted.validate(), std::invalid_argument);
  t::Tree short_end = good;  // Last node outside every level.
  short_end.level_offsets.back() -= 1;
  EXPECT_THROW(short_end.validate(), std::invalid_argument);
}

// --- Matrix ------------------------------------------------------------------

TEST(Matrix, FromGraphCopiesStructure) {
  const nestpar::graph::Edge edges[] = {{0, 1, 2.f}, {1, 0, 3.f}, {1, 2, 4.f}};
  const auto g = nestpar::graph::build_csr(3, edges, true);
  const m::CsrMatrix a = m::CsrMatrix::from_graph(g);
  EXPECT_EQ(a.rows, 3u);
  EXPECT_EQ(a.nnz(), 3u);
  EXPECT_FLOAT_EQ(a.values[1], 3.0f);
  EXPECT_NO_THROW(a.validate());
}

TEST(Matrix, FromUnweightedGraphGetsUnitValues) {
  const nestpar::graph::Edge edges[] = {{0, 1, 0.f}};
  const auto g = nestpar::graph::build_csr(2, edges, false);
  const m::CsrMatrix a = m::CsrMatrix::from_graph(g);
  EXPECT_FLOAT_EQ(a.values[0], 1.0f);
}

TEST(Matrix, SerialSpmvReference) {
  // [[0 2 0], [3 0 4], [0 0 0]] * [1, 10, 100]
  const nestpar::graph::Edge edges[] = {{0, 1, 2.f}, {1, 0, 3.f}, {1, 2, 4.f}};
  const m::CsrMatrix a =
      m::CsrMatrix::from_graph(nestpar::graph::build_csr(3, edges, true));
  const std::vector<float> x = {1.f, 10.f, 100.f};
  const auto y = m::spmv_serial(a, x);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_FLOAT_EQ(y[0], 20.f);
  EXPECT_FLOAT_EQ(y[1], 403.f);
  EXPECT_FLOAT_EQ(y[2], 0.f);
}

TEST(Matrix, SerialSpmvChargesTimer) {
  const nestpar::graph::Edge edges[] = {{0, 1, 2.f}, {1, 0, 3.f}};
  const m::CsrMatrix a =
      m::CsrMatrix::from_graph(nestpar::graph::build_csr(2, edges, true));
  const std::vector<float> x = {1.f, 1.f};
  simt::CpuTimer timer;
  m::spmv_serial(a, x, &timer);
  EXPECT_GT(timer.cycles(), 0.0);
  EXPECT_GT(timer.loads_and_stores(), 0u);
}

TEST(Matrix, SpmvRejectsSizeMismatch) {
  const m::CsrMatrix a = m::CsrMatrix::from_graph(
      nestpar::graph::build_csr(2, std::span<const nestpar::graph::Edge>{}));
  const std::vector<float> x = {1.f};
  EXPECT_THROW(m::spmv_serial(a, x), std::invalid_argument);
}

TEST(Matrix, MakeDenseVectorDeterministic) {
  const auto a = m::make_dense_vector(100, 5);
  const auto b = m::make_dense_vector(100, 5);
  EXPECT_EQ(a, b);
  for (float f : a) {
    EXPECT_GE(f, 0.5f);
    EXPECT_LT(f, 1.5f);
  }
}

// --- CPU cost model ------------------------------------------------------------

TEST(CpuModel, SequentialAccessCheaperThanScattered) {
  std::vector<int> data(1 << 20);
  simt::CpuTimer seq;
  for (int i = 0; i < 65536; ++i) seq.ld(&data[i]);
  simt::CpuTimer scattered;
  for (int i = 0; i < 65536; ++i) {
    scattered.ld(&data[(i * 7919) & ((1 << 20) - 1)]);
  }
  EXPECT_LT(seq.cycles(), scattered.cycles() * 0.5);
}

TEST(CpuModel, CacheHitsAfterWarmup) {
  std::vector<int> small(64);
  simt::CpuTimer t;
  for (int pass = 0; pass < 2; ++pass) {
    for (auto& v : small) t.ld(&v);
  }
  // Second pass should be all hits: misses bounded by one pass worth.
  EXPECT_LE(t.cache_misses(), 64u);
}

TEST(CpuModel, ComputeAndCallCharges) {
  simt::CpuTimer t;
  t.compute(100);
  const double c1 = t.cycles();
  t.call();
  EXPECT_GT(t.cycles(), c1);
  EXPECT_DOUBLE_EQ(c1, 100.0 * t.spec().compute_op_cycles);
}

TEST(CpuModel, ResetClearsState) {
  simt::CpuTimer t;
  int x = 0;
  t.ld(&x);
  t.reset();
  EXPECT_DOUBLE_EQ(t.cycles(), 0.0);
  EXPECT_EQ(t.loads_and_stores(), 0u);
}

TEST(CpuModel, CacheSimRejectsBadConfig) {
  EXPECT_THROW(simt::CacheSim(1024, 48, 4), std::invalid_argument);
  EXPECT_THROW(simt::CacheSim(1024, 64, 0), std::invalid_argument);
}

TEST(CpuModel, UsConversion) {
  simt::CpuTimer t;
  t.compute(2000);
  EXPECT_NEAR(t.us(), 2000.0 / (t.spec().clock_ghz * 1e3), 1e-9);
}

}  // namespace
