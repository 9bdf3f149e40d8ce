#pragma once

#include <cstdint>

#include "src/graph/csr.h"

namespace nestpar::graph {

/// Generators standing in for the paper's datasets (DESIGN.md §2). All are
/// deterministic for a given seed.

/// Random graph with per-node outdegree drawn uniformly from
/// [min_degree, max_degree] and uniformly random neighbors — the Figure 9
/// dataset ("node outdegree is uniformly distributed within a variable
/// range" over 50,000 nodes).
Csr generate_uniform_random(std::uint32_t num_nodes, std::uint32_t min_degree,
                            std::uint32_t max_degree, std::uint64_t seed,
                            bool weighted = false);

/// Random graph with truncated-Pareto (power-law) outdegrees calibrated so
/// the mean outdegree approximates `mean_degree`. Degree skew is the property
/// that makes the paper's nested loops irregular.
Csr generate_power_law(std::uint32_t num_nodes, std::uint32_t min_degree,
                       std::uint32_t max_degree, double mean_degree,
                       std::uint64_t seed, bool weighted = false);

/// Random graph with clamped-lognormal outdegrees calibrated so the mean
/// approximates `mean_degree`. Lognormal matches citation networks' milder
/// tail (occasional hubs, most mass near the median) better than a Pareto.
Csr generate_lognormal(std::uint32_t num_nodes, std::uint32_t min_degree,
                       std::uint32_t max_degree, double mean_degree,
                       double sigma, std::uint64_t seed,
                       bool weighted = false);

/// Regular graph: every node has exactly `degree` random neighbors.
Csr generate_regular(std::uint32_t num_nodes, std::uint32_t degree,
                     std::uint64_t seed, bool weighted = false);

/// CiteSeer-like citation network (DIMACS): 434k nodes, ~16M edges,
/// outdegree in [1, 1188] with mean 73.9 — scaled by `scale` in node count
/// (degree distribution is preserved, so edges scale proportionally).
Csr generate_citeseer_like(double scale, std::uint64_t seed,
                           bool weighted = false);

/// Wiki-Vote-like small-world network (SNAP): 7,115 nodes, ~104k edges,
/// outdegree in [0, 893] with mean 14.7.
Csr generate_wikivote_like(double scale, std::uint64_t seed,
                           bool weighted = false);

/// Kronecker/R-MAT generator (Chakrabarti et al.): 2^scale nodes,
/// edges_per_node * 2^scale edges, recursive quadrant probabilities
/// (a, b, c; d = 1-a-b-c). Produces the skewed, community-like structure
/// of real-world graphs.
/// Test oracle: a pinned skewed input for the k-core template tests.
Csr generate_rmat(int scale, int edges_per_node, std::uint64_t seed,
                  double a = 0.57, double b = 0.19, double c = 0.19,
                  bool weighted = false);

/// Exponent gamma of the truncated Pareto distribution whose mean over
/// [min_degree, max_degree] equals `mean_degree` (bisection; exposed for
/// tests).
double calibrate_pareto_gamma(std::uint32_t min_degree,
                              std::uint32_t max_degree, double mean_degree);

}  // namespace nestpar::graph
