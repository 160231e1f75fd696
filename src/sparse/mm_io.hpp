// Matrix Market (.mtx) reader/writer for symmetric coordinate matrices.
// The paper's PaStiX runs consumed Matrix Market inputs (AD/AE §A.2.4);
// supporting the format lets this reproduction load the actual SuiteSparse
// matrices when they are available.
#pragma once

#include <iosfwd>
#include <string>

#include "sparse/csc.hpp"

namespace sympack::sparse {

/// Read a Matrix Market coordinate matrix.
/// Supported qualifiers: real/integer/pattern x symmetric/general.
/// A `general` input must be symmetric: every off-diagonal (i,j) needs a
/// (j,i) of equal value, and only the lower triangle is kept. `pattern`
/// entries get value 1. Throws std::runtime_error on malformed input, a
/// nonsymmetric `general` matrix or a non-finite value, naming the
/// offending entry.
CscMatrix read_matrix_market(std::istream& in);
CscMatrix read_matrix_market_file(const std::string& path);

/// Write the lower-triangle entries as `coordinate real symmetric`.
void write_matrix_market(std::ostream& out, const CscMatrix& a);
void write_matrix_market_file(const std::string& path, const CscMatrix& a);

}  // namespace sympack::sparse
