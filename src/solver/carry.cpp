#include "solver/carry.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "util/check.h"

namespace bate {

namespace {

std::size_t sz(int i) { return static_cast<std::size_t>(i); }

struct ModelKeyHash {
  std::size_t operator()(const ModelKey& k) const {
    std::uint64_t h = static_cast<std::uint32_t>(k.kind);
    for (const int v : {k.a, k.b, k.c}) {
      h = (h ^ static_cast<std::uint32_t>(v)) * 0x9E3779B97F4A7C15ull;
      h ^= h >> 29;
    }
    return static_cast<std::size_t>(h);
  }
};

/// For each old key, the index of the equal new key, or -1.
std::vector<int> match(const std::vector<ModelKey>& old_keys,
                       const std::vector<ModelKey>& new_keys) {
  std::unordered_map<ModelKey, int, ModelKeyHash> index;
  index.reserve(new_keys.size());
  for (std::size_t i = 0; i < new_keys.size(); ++i) {
    index.emplace(new_keys[i], static_cast<int>(i));  // first duplicate wins
  }
  std::vector<int> out(old_keys.size(), -1);
  for (std::size_t i = 0; i < old_keys.size(); ++i) {
    const auto it = index.find(old_keys[i]);
    if (it != index.end()) out[i] = it->second;
  }
  return out;
}

}  // namespace

Basis carry_basis(const Basis& old_basis, const ModelKeys& old_keys,
                  const ModelKeys& new_keys) {
  const int n_old = static_cast<int>(old_keys.cols.size());
  const int m_old = static_cast<int>(old_keys.rows.size());
  if (old_basis.empty() || old_basis.structural_count != n_old ||
      old_basis.constraint_count != m_old ||
      static_cast<int>(old_basis.basic.size()) != m_old ||
      static_cast<int>(old_basis.status.size()) != n_old + m_old) {
    return Basis{};
  }
  const int n = static_cast<int>(new_keys.cols.size());
  const int m = static_cast<int>(new_keys.rows.size());
  const std::vector<int> col_map = match(old_keys.cols, new_keys.cols);
  const std::vector<int> row_map = match(old_keys.rows, new_keys.rows);
  // Old column (structural, then slack) -> new column, or -1.
  const auto carry_col = [&](int j) {
    if (j < n_old) return col_map[sz(j)];
    const int r = row_map[sz(j - n_old)];
    return r < 0 ? -1 : n + r;
  };

  Basis out;
  out.structural_count = n;
  out.constraint_count = m;
  out.basic.assign(sz(m), -1);
  out.status.assign(sz(n + m), VarStatus::kAtLower);
  // Surviving nonbasic columns keep their bound. A column that was basic
  // starts at its lower bound unless a surviving row claims it below.
  for (int j = 0; j < n_old + m_old; ++j) {
    const int to = carry_col(j);
    if (to >= 0 && old_basis.status[sz(j)] == VarStatus::kAtUpper) {
      out.status[sz(to)] = VarStatus::kAtUpper;
    }
  }
  std::vector<char> taken(sz(n + m), 0);
  for (int i = 0; i < m_old; ++i) {
    const int r = row_map[sz(i)];
    if (r < 0 || out.basic[sz(r)] >= 0) continue;
    const int col = carry_col(old_basis.basic[sz(i)]);
    if (col < 0 || taken[sz(col)]) continue;
    out.basic[sz(r)] = col;
    taken[sz(col)] = 1;
  }
  // Rows still open restart on their own slack, or on any free one when a
  // carried row already holds it. Fewer than m columns are taken whenever a
  // row is open, so a free slack always exists.
  int next_free = 0;
  for (int r = 0; r < m; ++r) {
    if (out.basic[sz(r)] >= 0) continue;
    int col = n + r;
    if (taken[sz(col)]) {
      while (taken[sz(n + next_free)]) ++next_free;
      col = n + next_free;
    }
    out.basic[sz(r)] = col;
    taken[sz(col)] = 1;
  }
  for (int r = 0; r < m; ++r) {
    out.status[sz(out.basic[sz(r)])] = VarStatus::kBasic;
  }
  BATE_DCHECK_MSG(std::count(out.status.begin(), out.status.end(),
                             VarStatus::kBasic) == m,
                  "carry_basis: basis must hold m distinct basic columns");
  return out;
}

}  // namespace bate
