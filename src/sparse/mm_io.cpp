#include "sparse/mm_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "sparse/coo.hpp"

namespace sympack::sparse {
namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

/// Entry (i, j) as written on disk (1-based).
std::string entry_name(idx_t i, idx_t j) {
  return "(" + std::to_string(i + 1) + ", " + std::to_string(j + 1) + ")";
}

/// Parse a value token; strtod rather than operator>> so "inf" and "nan"
/// are read and can be reported as what they are.
double parse_value(const std::string& token, idx_t i, idx_t j) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    throw std::runtime_error("MatrixMarket: malformed value '" + token +
                             "' at entry " + entry_name(i, j));
  }
  if (!std::isfinite(v)) {
    throw std::runtime_error("MatrixMarket: non-finite value '" + token +
                             "' at entry " + entry_name(i, j));
  }
  return v;
}

}  // namespace

CscMatrix read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("MatrixMarket: empty stream");
  }
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket") {
    throw std::runtime_error("MatrixMarket: missing banner");
  }
  object = lower(object);
  format = lower(format);
  field = lower(field);
  symmetry = lower(symmetry);
  if (object != "matrix" || format != "coordinate") {
    throw std::runtime_error(
        "MatrixMarket: only coordinate matrices are supported");
  }
  const bool pattern = field == "pattern";
  if (!pattern && field != "real" && field != "integer") {
    throw std::runtime_error("MatrixMarket: unsupported field " + field);
  }
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general") {
    throw std::runtime_error("MatrixMarket: unsupported symmetry " +
                             symmetry);
  }

  // Skip comments and blank lines; then the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  idx_t rows = 0, cols = 0, entries = 0;
  if (!(size_line >> rows >> cols >> entries)) {
    throw std::runtime_error("MatrixMarket: malformed size line");
  }
  if (rows != cols) {
    throw std::runtime_error("MatrixMarket: matrix is not square");
  }

  CooBuilder builder(rows);
  // General input: the off-diagonal entries of each triangle, keyed by
  // their lower-triangle position, to check the two mirror each other.
  std::map<std::pair<idx_t, idx_t>, double> lower_part, upper_part;
  for (idx_t k = 0; k < entries; ++k) {
    idx_t i = 0, j = 0;
    if (!(in >> i >> j)) {
      throw std::runtime_error("MatrixMarket: truncated entry list");
    }
    if (i < 1 || i > rows || j < 1 || j > rows) {
      throw std::runtime_error("MatrixMarket: entry (" + std::to_string(i) +
                               ", " + std::to_string(j) +
                               ") is outside the matrix");
    }
    --i;  // 1-based on disk
    --j;
    double v = 1.0;
    if (!pattern) {
      std::string token;
      if (!(in >> token)) {
        throw std::runtime_error("MatrixMarket: truncated entry list");
      }
      v = parse_value(token, i, j);
    }
    if (!symmetric && i != j) {
      auto& part = i > j ? lower_part : upper_part;
      part[{std::max(i, j), std::min(i, j)}] += v;
      if (i < j) continue;  // keep the lower triangle only
    }
    builder.add(i, j, v);
  }
  const auto asymmetric = [](idx_t i, idx_t j) {
    return std::runtime_error(
        "MatrixMarket: general matrix is not symmetric: entry " +
        entry_name(i, j) + " has no equal entry " + entry_name(j, i));
  };
  for (const auto& [pos, v] : lower_part) {
    const auto mirror = upper_part.find(pos);
    if (mirror == upper_part.end() || mirror->second != v) {
      throw asymmetric(pos.first, pos.second);
    }
    upper_part.erase(mirror);
  }
  if (!upper_part.empty()) {
    const auto [i, j] = upper_part.begin()->first;
    throw asymmetric(j, i);
  }
  return builder.build();
}

CscMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const CscMatrix& a) {
  out << "%%MatrixMarket matrix coordinate real symmetric\n";
  out << "% written by sympack-repro\n";
  out << a.n() << ' ' << a.n() << ' ' << a.nnz_stored() << '\n';
  out.precision(17);
  for (idx_t j = 0; j < a.n(); ++j) {
    for (idx_t p = a.colptr()[j]; p < a.colptr()[j + 1]; ++p) {
      out << a.rowind()[p] + 1 << ' ' << j + 1 << ' ' << a.values()[p]
          << '\n';
    }
  }
}

void write_matrix_market_file(const std::string& path, const CscMatrix& a) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open " + path);
  write_matrix_market(out, a);
}

}  // namespace sympack::sparse
