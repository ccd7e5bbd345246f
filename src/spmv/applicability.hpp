#pragma once
// Selection-time applicability predicate for the DIA extension format.
//
// The model bank predicts how *fast* a configuration would be; this
// predicate says whether it is *convertible at all*. DIA rejects scattered
// matrices (too many diagonals, or diagonals mostly fill) — exactly the
// matrices whose DiaMatrix::from_csr() would throw. choose() masks
// inapplicable configurations out of the arg-max, so a mispredicting tree
// can never route an RMAT matrix into DiaMatrix::from_csr and down the
// demotion path; every other method is applicable to everything.
//
// The DIA analysis is O(nnz) and runs at most once per matrix regardless
// of how many configs share the kind.

#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "spmv/method.hpp"

namespace wise {

/// True when `cfg` can be prepared for `m` (conversion will not reject).
bool config_applicable(const MethodConfig& cfg, const CsrMatrix& m);

/// Per-config applicability for a whole registry. mask[i] != 0 iff
/// configs[i] is applicable to m; the DIA analysis is computed lazily and
/// shared across configs.
std::vector<char> applicability_mask(std::span<const MethodConfig> configs,
                                     const CsrMatrix& m);

}  // namespace wise
