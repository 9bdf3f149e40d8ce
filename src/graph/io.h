#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "src/graph/csr.h"

namespace nestpar::graph {

/// Loaders/writers for the dataset formats the paper draws from: DIMACS
/// shortest-path files (CiteSeer, [9]), SNAP whitespace edge lists
/// (Wiki-Vote, [10]) and MatrixMarket coordinate files (SpMV matrices).
/// Parsers accept streams so tests don't need temp files.
///
/// All loaders validate as they parse — negative or overflowing counts and
/// indices, out-of-range endpoints, and truncated files are rejected with an
/// IoError whose message names the format, the 1-based line number, and the
/// offending record.

/// Typed ingestion failure. Subclasses std::runtime_error so existing catch
/// sites keep working; carries the 1-based line number of the offending
/// record (0 when the error is not tied to one line, e.g. unopenable file).
class IoError : public std::runtime_error {
 public:
  IoError(const std::string& format, std::uint64_t line,
          const std::string& detail);
  std::uint64_t line() const { return line_; }

 private:
  std::uint64_t line_;
};

/// DIMACS .gr: `c` comments, one `p sp <nodes> <arcs>` line, `a <u> <v> <w>`
/// arcs (1-based). Weighted CSR.
Csr load_dimacs(std::istream& in);
Csr load_dimacs_file(const std::string& path);
/// Test oracle: writes the format back for the readers' round-trip tests.
void write_dimacs(std::ostream& out, const Csr& g);

/// SNAP-style edge list: `#` comments, `<u> <v>` per line (0-based).
/// `num_nodes` is inferred as max endpoint + 1.
Csr load_edge_list(std::istream& in);
Csr load_edge_list_file(const std::string& path);
/// Test oracle: writes the format back for the readers' round-trip tests.
void write_edge_list(std::ostream& out, const Csr& g);

/// MatrixMarket coordinate format (general real/pattern). Returns the
/// row-major CSR of the (possibly rectangular, stored as square
/// max(rows,cols)) sparse matrix; pattern entries get weight 1.
Csr load_matrix_market(std::istream& in);
Csr load_matrix_market_file(const std::string& path);

}  // namespace nestpar::graph
