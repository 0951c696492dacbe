#include "vbatt/solver/incremental.h"

#include <cstring>
#include <sstream>

namespace vbatt::solver {

namespace {

std::uint64_t bits_of(double x) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(x));
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

bool same_bits(double x, double y) { return bits_of(x) == bits_of(y); }

}  // namespace

bool models_bitwise_equal(const Model& a, const Model& b) {
  return diff_models_bitwise(a, b).empty();
}

std::string diff_models_bitwise(const Model& a, const Model& b) {
  std::ostringstream out;
  if (a.n_vars() != b.n_vars()) {
    out << "n_vars " << a.n_vars() << " != " << b.n_vars();
    return out.str();
  }
  if (a.n_constraints() != b.n_constraints()) {
    out << "n_constraints " << a.n_constraints() << " != "
        << b.n_constraints();
    return out.str();
  }
  for (std::size_t i = 0; i < a.n_vars(); ++i) {
    const Variable& va = a.vars()[i];
    const Variable& vb = b.vars()[i];
    if (va.name != vb.name) {
      out << "var " << i << " name '" << va.name << "' != '" << vb.name
          << "'";
      return out.str();
    }
    if (!same_bits(va.cost, vb.cost)) {
      out << "var " << i << " cost bits " << va.cost << " != " << vb.cost;
      return out.str();
    }
    if (!same_bits(va.lb, vb.lb) || !same_bits(va.ub, vb.ub)) {
      out << "var " << i << " bounds [" << va.lb << "," << va.ub << "] != ["
          << vb.lb << "," << vb.ub << "]";
      return out.str();
    }
    if (va.integer != vb.integer) {
      out << "var " << i << " integrality " << va.integer << " != "
          << vb.integer;
      return out.str();
    }
  }
  for (std::size_t r = 0; r < a.n_constraints(); ++r) {
    const Constraint& ca = a.constraints()[r];
    const Constraint& cb = b.constraints()[r];
    if (ca.rel != cb.rel) {
      out << "row " << r << " relation differs";
      return out.str();
    }
    if (!same_bits(ca.rhs, cb.rhs)) {
      out << "row " << r << " rhs bits " << ca.rhs << " != " << cb.rhs;
      return out.str();
    }
    if (ca.terms.size() != cb.terms.size()) {
      out << "row " << r << " term count " << ca.terms.size() << " != "
          << cb.terms.size();
      return out.str();
    }
    for (std::size_t t = 0; t < ca.terms.size(); ++t) {
      if (ca.terms[t].first != cb.terms[t].first ||
          !same_bits(ca.terms[t].second, cb.terms[t].second)) {
        out << "row " << r << " term " << t << " (" << ca.terms[t].first
            << "," << ca.terms[t].second << ") != (" << cb.terms[t].first
            << "," << cb.terms[t].second << ")";
        return out.str();
      }
    }
  }
  return {};
}

}  // namespace vbatt::solver
