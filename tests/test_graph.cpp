// Graph substrate tests: CSR invariants, builders, transpose, generators
// (degree calibration against the paper's dataset statistics), and I/O
// round-trips for the three supported formats, and seeded mutants of each
// format's sample that must parse or fail with graph::IoError.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <exception>
#include <random>
#include <sstream>
#include <string>
#include <typeinfo>

#include "src/graph/csr.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "tests/fnv1a.h"
#include "tests/mutate.h"

namespace g = nestpar::graph;

namespace {

g::Csr diamond() {
  // 0 -> 1,2 ; 1 -> 3 ; 2 -> 3
  const g::Edge edges[] = {{0, 1, 1.f}, {0, 2, 2.f}, {1, 3, 3.f}, {2, 3, 4.f}};
  return g::build_csr(4, edges, /*keep_weights=*/true);
}

TEST(Csr, BuildFromEdgeList) {
  const g::Csr d = diamond();
  EXPECT_EQ(d.num_nodes(), 4u);
  EXPECT_EQ(d.num_edges(), 4u);
  EXPECT_EQ(d.degree(0), 2u);
  EXPECT_EQ(d.degree(3), 0u);
  ASSERT_EQ(d.neighbors(0).size(), 2u);
  EXPECT_EQ(d.neighbors(0)[0], 1u);
  EXPECT_EQ(d.neighbors(0)[1], 2u);
  EXPECT_FLOAT_EQ(d.weights[1], 2.0f);
  EXPECT_NO_THROW(d.validate());
}

TEST(Csr, BuildPreservesPerSourceOrder) {
  const g::Edge edges[] = {{1, 5, 0.f}, {0, 3, 0.f}, {1, 2, 0.f}, {1, 4, 0.f}};
  const g::Csr c = g::build_csr(6, edges);
  ASSERT_EQ(c.degree(1), 3u);
  EXPECT_EQ(c.neighbors(1)[0], 5u);
  EXPECT_EQ(c.neighbors(1)[1], 2u);
  EXPECT_EQ(c.neighbors(1)[2], 4u);
}

TEST(Csr, BuildRejectsOutOfRangeEndpoint) {
  const g::Edge edges[] = {{0, 7, 1.f}};
  EXPECT_THROW(g::build_csr(4, edges), std::invalid_argument);
}

TEST(Csr, ValidateCatchesCorruption) {
  g::Csr c = diamond();
  c.col_indices[0] = 99;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  g::Csr c2 = diamond();
  c2.row_offsets[1] = 3;
  c2.row_offsets[2] = 2;
  EXPECT_THROW(c2.validate(), std::invalid_argument);

  g::Csr c3 = diamond();
  c3.weights.pop_back();
  EXPECT_THROW(c3.validate(), std::invalid_argument);
}

TEST(Csr, TransposeReversesEdges) {
  const g::Csr t = g::transpose(diamond());
  EXPECT_NO_THROW(t.validate());
  EXPECT_EQ(t.num_edges(), 4u);
  EXPECT_EQ(t.degree(0), 0u);
  EXPECT_EQ(t.degree(3), 2u);
  ASSERT_EQ(t.degree(1), 1u);
  EXPECT_EQ(t.neighbors(1)[0], 0u);
}

TEST(Csr, TransposeIsInvolution) {
  const g::Csr orig = g::generate_uniform_random(200, 0, 10, 7);
  const g::Csr twice = g::transpose(g::transpose(orig));
  EXPECT_EQ(twice.row_offsets, orig.row_offsets);
  // Neighbor multisets per node must match (order may differ).
  for (std::uint32_t v = 0; v < orig.num_nodes(); ++v) {
    auto a = orig.neighbors(v);
    auto b = twice.neighbors(v);
    std::vector<std::uint32_t> av(a.begin(), a.end()), bv(b.begin(), b.end());
    std::sort(av.begin(), av.end());
    std::sort(bv.begin(), bv.end());
    EXPECT_EQ(av, bv) << "node " << v;
  }
}

TEST(Csr, DegreeStats) {
  const auto s = g::degree_stats(diamond());
  EXPECT_EQ(s.min_degree, 0u);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_DOUBLE_EQ(s.mean_degree, 1.0);
}

// --- Generators --------------------------------------------------------------

TEST(Generators, UniformRandomRespectsDegreeBounds) {
  const g::Csr c = g::generate_uniform_random(5000, 3, 17, 42);
  EXPECT_NO_THROW(c.validate());
  const auto s = g::degree_stats(c);
  EXPECT_GE(s.min_degree, 3u);
  EXPECT_LE(s.max_degree, 17u);
  EXPECT_NEAR(s.mean_degree, 10.0, 0.5);
}

TEST(Generators, UniformRandomDeterministicInSeed) {
  const g::Csr a = g::generate_uniform_random(500, 0, 8, 9);
  const g::Csr b = g::generate_uniform_random(500, 0, 8, 9);
  const g::Csr c = g::generate_uniform_random(500, 0, 8, 10);
  EXPECT_EQ(a.col_indices, b.col_indices);
  EXPECT_NE(a.col_indices, c.col_indices);
}

TEST(Generators, RegularGraphHasConstantDegree) {
  const g::Csr c = g::generate_regular(300, 7, 1);
  const auto s = g::degree_stats(c);
  EXPECT_EQ(s.min_degree, 7u);
  EXPECT_EQ(s.max_degree, 7u);
}

TEST(Generators, ParetoCalibrationHitsTargetMean) {
  const double gamma = g::calibrate_pareto_gamma(1, 1188, 73.9);
  EXPECT_GT(gamma, 0.0);
  // The calibrated distribution's mean must be close to the target.
  const g::Csr c = g::generate_power_law(60000, 1, 1188, 73.9, 3);
  const auto s = g::degree_stats(c);
  EXPECT_NEAR(s.mean_degree, 73.9, 73.9 * 0.08);
  EXPECT_GE(s.min_degree, 1u);
  EXPECT_LE(s.max_degree, 1188u);
}

TEST(Generators, PowerLawIsSkewed) {
  const g::Csr c = g::generate_power_law(20000, 1, 1000, 40.0, 5);
  const auto s = g::degree_stats(c);
  // A power law has stddev well above a uniform with the same mean.
  EXPECT_GT(s.stddev_degree, s.mean_degree);
  EXPECT_GT(s.max_degree, 500u);
}

TEST(Generators, CiteseerLikeMatchesPublishedShape) {
  const g::Csr c = g::generate_citeseer_like(0.05, 11);
  EXPECT_NEAR(c.num_nodes(), 434000 * 0.05, 1.0);
  const auto s = g::degree_stats(c);
  EXPECT_NEAR(s.mean_degree, 73.9, 73.9 * 0.12);
  EXPECT_LE(s.max_degree, 1188u);
}

TEST(Generators, WikivoteLikeMatchesPublishedShape) {
  const g::Csr c = g::generate_wikivote_like(1.0, 13);
  EXPECT_EQ(c.num_nodes(), 7115u);
  const auto s = g::degree_stats(c);
  EXPECT_NEAR(s.mean_degree, 14.7, 14.7 * 0.15);
  EXPECT_LE(s.max_degree, 893u);
}

TEST(Generators, RejectBadArguments) {
  EXPECT_THROW(g::generate_uniform_random(0, 0, 5, 1), std::invalid_argument);
  EXPECT_THROW(g::generate_uniform_random(10, 6, 5, 1), std::invalid_argument);
  EXPECT_THROW(g::calibrate_pareto_gamma(10, 20, 25.0), std::invalid_argument);
  EXPECT_THROW(g::generate_citeseer_like(0.0, 1), std::invalid_argument);
}

// --- Generator pins ----------------------------------------------------------
// Every bench input, baseline and modeled count starts from these generators,
// so their output is pinned byte for byte: an FNV-1a hash over the raw bytes
// of row_offsets, col_indices and weights, and the exact bit pattern of the
// calibrated exponent. A speed-up of a generator must leave every value here
// unchanged; a deliberate change to what a generator draws must show up here
// first (and moves every baseline with it).

std::uint64_t graph_hash(const g::Csr& c) {
  return nestpar::test::fnv1a(c.row_offsets, c.col_indices, c.weights);
}

std::uint64_t gamma_bits(std::uint32_t lo, std::uint32_t hi, double mean) {
  return std::bit_cast<std::uint64_t>(g::calibrate_pareto_gamma(lo, hi, mean));
}

TEST(GeneratorPins, PowerLaw) {
  EXPECT_EQ(graph_hash(g::generate_power_law(3000, 1, 512, 16.0, 7)),
            0x3075da1a1f2475aeull);
  EXPECT_EQ(graph_hash(g::generate_power_law(3000, 1, 512, 16.0, 7, true)),
            0xdcd7c3233cf7ffdaull);
  EXPECT_EQ(graph_hash(g::generate_power_law(3000, 0, 300, 9.5, 8)),
            0x912bbae7d33626afull);
  EXPECT_EQ(graph_hash(g::generate_power_law(3000, 0, 300, 9.5, 8, true)),
            0x5a543036c66eef3eull);
}

TEST(GeneratorPins, DatasetStandIns) {
  EXPECT_EQ(graph_hash(g::generate_citeseer_like(0.01, 11)),
            0xd142e2c2bf70b0ebull);
  EXPECT_EQ(graph_hash(g::generate_wikivote_like(1.0, 13)),
            0xbf95751a22960a7aull);
}

TEST(GeneratorPins, UniformRegularRmat) {
  EXPECT_EQ(graph_hash(g::generate_uniform_random(2000, 0, 64, 3, true)),
            0x03194d60671d7d99ull);
  EXPECT_EQ(graph_hash(g::generate_regular(1000, 9, 4, true)),
            0x00f6d0b27cf34db4ull);
  EXPECT_EQ(graph_hash(g::generate_rmat(11, 8, 5, 0.57, 0.19, 0.19, true)),
            0xe07a9785fecb0028ull);
}

TEST(GeneratorPins, CalibratedGammaBits) {
  EXPECT_EQ(gamma_bits(1, 512, 16.0), 0x3fe3f6486827535eull);
  EXPECT_EQ(gamma_bits(1, 8, 3.0), 0x3fd555551c8521a0ull);
  EXPECT_EQ(gamma_bits(2, 16, 5.0), 0x3feb3ff5fe5878feull);
  EXPECT_EQ(gamma_bits(1, 32, 7.0), 0x3fd19705bf6d0e02ull);
  EXPECT_EQ(gamma_bits(0, 893, 14.7), 0x3fe306f94eb0bcf2ull);
}

// --- I/O ---------------------------------------------------------------------

TEST(GraphIo, DimacsRoundTrip) {
  const g::Csr orig = diamond();
  std::stringstream ss;
  g::write_dimacs(ss, orig);
  const g::Csr back = g::load_dimacs(ss);
  EXPECT_EQ(back.row_offsets, orig.row_offsets);
  EXPECT_EQ(back.col_indices, orig.col_indices);
  EXPECT_EQ(back.weights, orig.weights);
}

TEST(GraphIo, DimacsParsesCommentsAndWeights) {
  std::stringstream ss(
      "c a comment\n"
      "p sp 3 2\n"
      "a 1 2 5.5\n"
      "c interior comment is illegal in strict DIMACS but common\n"
      "a 2 3 1\n");
  const g::Csr c = g::load_dimacs(ss);
  EXPECT_EQ(c.num_nodes(), 3u);
  EXPECT_EQ(c.num_edges(), 2u);
  EXPECT_FLOAT_EQ(c.weights[0], 5.5f);
}

TEST(GraphIo, DimacsRejectsMalformed) {
  std::stringstream no_problem("a 1 2 1\n");
  EXPECT_THROW(g::load_dimacs(no_problem), std::runtime_error);
  std::stringstream bad_node("p sp 2 1\na 1 9 1\n");
  EXPECT_THROW(g::load_dimacs(bad_node), std::runtime_error);
  std::stringstream bad_tag("p sp 2 1\nz 1 2\n");
  EXPECT_THROW(g::load_dimacs(bad_tag), std::runtime_error);
}

TEST(GraphIo, EdgeListRoundTrip) {
  const g::Csr orig = g::generate_uniform_random(50, 0, 5, 21);
  std::stringstream ss;
  g::write_edge_list(ss, orig);
  const g::Csr back = g::load_edge_list(ss);
  // Node count may shrink if trailing nodes have no edges; compare edges.
  EXPECT_EQ(back.num_edges(), orig.num_edges());
}

TEST(GraphIo, EdgeListParsesSnapStyle) {
  std::stringstream ss(
      "# Directed graph\n"
      "# FromNodeId\tToNodeId\n"
      "0\t1\n"
      "3\t0\n");
  const g::Csr c = g::load_edge_list(ss);
  EXPECT_EQ(c.num_nodes(), 4u);
  EXPECT_EQ(c.num_edges(), 2u);
  EXPECT_EQ(c.neighbors(3)[0], 0u);
}

TEST(GraphIo, MatrixMarketGeneral) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "% comment\n"
      "3 3 2\n"
      "1 2 4.0\n"
      "3 1 -1.5\n");
  const g::Csr c = g::load_matrix_market(ss);
  EXPECT_EQ(c.num_nodes(), 3u);
  EXPECT_EQ(c.num_edges(), 2u);
  EXPECT_FLOAT_EQ(c.weights[c.row_offsets[2]], -1.5f);
}

TEST(GraphIo, MatrixMarketSymmetricAndPattern) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "3 3 2\n"
      "2 1\n"
      "3 3\n");
  const g::Csr c = g::load_matrix_market(ss);
  // Off-diagonal entry mirrored; diagonal not duplicated.
  EXPECT_EQ(c.num_edges(), 3u);
  EXPECT_FLOAT_EQ(c.weights[0], 1.0f);
}

TEST(GraphIo, MatrixMarketRejectsMalformed) {
  std::stringstream bad_header("%%NotMM\n3 3 1\n1 1 1\n");
  EXPECT_THROW(g::load_matrix_market(bad_header), std::runtime_error);
  std::stringstream truncated(
      "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n");
  EXPECT_THROW(g::load_matrix_market(truncated), std::runtime_error);
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(g::load_dimacs_file("/nonexistent/path.gr"),
               std::runtime_error);
}

TEST(GraphIo, MutantsParseOrThrowIoError) {
  using Loader = g::Csr (*)(std::istream&);
  const std::pair<Loader, const char*> samples[] = {
      {&g::load_dimacs,
       "c sample\n"
       "p sp 4 5\n"
       "a 1 2 5.5\n"
       "a 1 3 2\n"
       "a 2 4 1\n"
       "a 3 4 0.25\n"
       "a 4 1 7\n"},
      {&g::load_edge_list,
       "# Directed graph\n"
       "# FromNodeId\tToNodeId\n"
       "0\t1\n"
       "0\t2\n"
       "1\t3\n"
       "3\t0\n"},
      {&g::load_matrix_market,
       "%%MatrixMarket matrix coordinate real general\n"
       "% comment\n"
       "3 4 4\n"
       "1 2 4.0\n"
       "2 4 1e-3\n"
       "3 1 -1.5\n"
       "3 3 2\n"},
  };
  std::mt19937_64 rng(20150707);
  for (const auto& [load, text] : samples) {
    SCOPED_TRACE(text);
    {
      std::istringstream in(text);
      ASSERT_NO_THROW((void)load(in));
    }
    int rejected = 0;
    for (int i = 0; i < 3000; ++i) {
      std::istringstream in(nestpar::test::mutate(text, rng));
      try {
        (void)load(in);
      } catch (const g::IoError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant " << i << " escaped as " << typeid(e).name()
                      << ": " << e.what();
      }
    }
    EXPECT_GT(rejected, 0);
  }
}

}  // namespace
