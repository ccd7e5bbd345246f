#include "spmv/applicability.hpp"

#include <optional>

#include "sparse/dia.hpp"

namespace wise {

bool config_applicable(const MethodConfig& cfg, const CsrMatrix& m) {
  return cfg.kind != MethodKind::kDia || DiaMatrix::accepts(m);
}

std::vector<char> applicability_mask(std::span<const MethodConfig> configs,
                                     const CsrMatrix& m) {
  std::vector<char> mask(configs.size(), 1);
  std::optional<bool> dia_ok;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (configs[i].kind != MethodKind::kDia) continue;
    if (!dia_ok) dia_ok = DiaMatrix::accepts(m);
    mask[i] = *dia_ok ? 1 : 0;
  }
  return mask;
}

}  // namespace wise
