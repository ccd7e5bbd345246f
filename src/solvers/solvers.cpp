#include "solvers/solvers.hpp"

#include <cmath>
#include <stdexcept>

#include "util/prng.hpp"

namespace wise {

namespace {

void check_sizes(std::size_t a, std::size_t b, const char* what) {
  if (a != b) throw std::invalid_argument(std::string(what) + ": size mismatch");
}

}  // namespace

SolverResult solve_jacobi(const SpmvOperator& spmv,
                          std::span<const value_t> diagonal,
                          std::span<const value_t> b,
                          const SolverOptions& opts) {
  check_sizes(diagonal.size(), b.size(), "solve_jacobi");
  const std::size_t n = b.size();
  for (value_t d : diagonal) {
    if (d == value_t{0}) {
      throw std::invalid_argument("solve_jacobi: zero diagonal entry");
    }
  }

  SolverResult res;
  res.x.assign(n, 0);
  std::vector<value_t> ax(n);

  for (res.iterations = 1; res.iterations <= opts.max_iterations;
       ++res.iterations) {
    spmv(res.x, ax);
    // One sweep: accumulate ||b - Ax||^2 and take the Jacobi step.
    const double norm =
        blas::ordered_sum(n, [&](std::size_t begin, std::size_t end) {
          double sum = 0;
          for (std::size_t i = begin; i < end; ++i) {
            const value_t r = b[i] - ax[i];
            sum += static_cast<double>(r) * r;
            res.x[i] += r / diagonal[i];
          }
          return sum;
        });
    res.residual_norm = std::sqrt(norm);
    if (res.residual_norm < opts.tolerance) {
      res.converged = true;
      break;
    }
  }
  return res;
}

SolverResult solve_cg(const SpmvOperator& spmv, std::span<const value_t> b,
                      const SolverOptions& opts) {
  const std::size_t n = b.size();
  SolverResult res;
  res.x.assign(n, 0);

  // r = b - A*0 = b; p = r.
  std::vector<value_t> r(b.begin(), b.end());
  std::vector<value_t> p(r);
  std::vector<value_t> ap(n);

  double rr = blas::dot(r, r);
  res.residual_norm = std::sqrt(rr);
  if (res.residual_norm < opts.tolerance) {
    res.converged = true;
    return res;
  }

  for (res.iterations = 1; res.iterations <= opts.max_iterations;
       ++res.iterations) {
    spmv(p, ap);
    const double p_ap = blas::dot(p, ap);
    if (p_ap <= 0) break;  // not SPD (or numerical breakdown)
    const auto alpha = static_cast<value_t>(rr / p_ap);
    blas::axpy(alpha, p, res.x);
    blas::axpy(-alpha, ap, r);
    const double rr_next = blas::dot(r, r);
    res.residual_norm = std::sqrt(rr_next);
    if (res.residual_norm < opts.tolerance) {
      res.converged = true;
      break;
    }
    blas::xpby(r, static_cast<value_t>(rr_next / rr), p);
    rr = rr_next;
  }
  return res;
}

SolverResult solve_bicgstab(const SpmvOperator& spmv,
                            std::span<const value_t> b,
                            const SolverOptions& opts) {
  const std::size_t n = b.size();
  SolverResult res;
  res.x.assign(n, 0);

  std::vector<value_t> r(b.begin(), b.end());
  const std::vector<value_t> r0(r);  // shadow residual
  std::vector<value_t> p(n, 0), v(n, 0), s(n), t(n);

  double rho = 1, alpha = 1, omega = 1;
  res.residual_norm = blas::norm2(r);
  if (res.residual_norm < opts.tolerance) {
    res.converged = true;
    return res;
  }

  for (res.iterations = 1; res.iterations <= opts.max_iterations;
       ++res.iterations) {
    const double rho_next = blas::dot(r0, r);
    if (rho_next == 0) break;  // breakdown
    const double beta = (rho_next / rho) * (alpha / omega);
    rho = rho_next;
    // p = r + beta * (p - omega * v)
    blas::axpy(static_cast<value_t>(-omega), v, p);
    blas::xpby(r, static_cast<value_t>(beta), p);

    spmv(p, v);
    const double r0v = blas::dot(r0, v);
    if (r0v == 0) break;
    alpha = rho / r0v;

    blas::copy(r, s);
    blas::axpy(static_cast<value_t>(-alpha), v, s);
    if (blas::norm2(s) < opts.tolerance) {
      blas::axpy(static_cast<value_t>(alpha), p, res.x);
      res.residual_norm = blas::norm2(s);
      res.converged = true;
      break;
    }

    spmv(s, t);
    const double tt = blas::dot(t, t);
    if (tt == 0) break;
    omega = blas::dot(t, s) / tt;

    blas::axpy(static_cast<value_t>(alpha), p, res.x);
    blas::axpy(static_cast<value_t>(omega), s, res.x);
    blas::copy(s, r);
    blas::axpy(static_cast<value_t>(-omega), t, r);

    res.residual_norm = blas::norm2(r);
    if (res.residual_norm < opts.tolerance) {
      res.converged = true;
      break;
    }
    if (omega == 0) break;
  }
  return res;
}

SolverResult power_iteration(const SpmvOperator& spmv, index_t n,
                             const SolverOptions& opts, std::uint64_t seed) {
  if (n <= 0) throw std::invalid_argument("power_iteration: n must be > 0");
  SolverResult res;
  res.x.assign(static_cast<std::size_t>(n), 0);
  Xoshiro256 rng(seed);
  for (auto& v : res.x) v = static_cast<value_t>(rng.next_double() + 0.1);
  blas::scale(res.x, static_cast<value_t>(1.0 / blas::norm2(res.x)));

  std::vector<value_t> av(static_cast<std::size_t>(n));
  for (res.iterations = 1; res.iterations <= opts.max_iterations;
       ++res.iterations) {
    spmv(res.x, av);
    res.eigenvalue = blas::dot(res.x, av);  // Rayleigh quotient
    // residual = ||A v - lambda v||
    double norm = 0;
    for (std::size_t i = 0; i < av.size(); ++i) {
      const double r = static_cast<double>(av[i]) -
                       res.eigenvalue * static_cast<double>(res.x[i]);
      norm += r * r;
    }
    res.residual_norm = std::sqrt(norm);
    if (res.residual_norm < opts.tolerance) {
      res.converged = true;
      break;
    }
    const double av_norm = blas::norm2(av);
    if (av_norm == 0) break;  // A annihilated the iterate
    blas::copy(av, res.x);
    blas::scale(res.x, static_cast<value_t>(1.0 / av_norm));
  }
  return res;
}

}  // namespace wise
