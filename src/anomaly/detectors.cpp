#include "anomaly/detectors.hpp"

#include <algorithm>
#include <cmath>

#include "numerics/linalg.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace everest::anomaly {

using support::Error;
using support::Expected;
using support::Status;

namespace {

Status require_table(const Table &rows, std::size_t min_rows = 2) {
  if (rows.size() < min_rows)
    return Status::failure("detector: need at least " +
                           std::to_string(min_rows) + " rows");
  for (const auto &r : rows) {
    if (r.size() != rows.front().size())
      return Status::failure("detector: ragged rows");
  }
  if (rows.front().empty()) return Status::failure("detector: zero features");
  return Status::ok();
}

std::vector<double> column(const Table &rows, std::size_t d) {
  std::vector<double> out;
  out.reserve(rows.size());
  for (const auto &r : rows) out.push_back(r[d]);
  return out;
}

}  // namespace

// ------------------------------------------------------------------- zscore

Status ZScoreDetector::fit(const Table &rows) {
  if (auto s = require_table(rows); !s.is_ok()) return s;
  std::size_t d = rows.front().size();
  mean_.assign(d, 0.0);
  stddev_.assign(d, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    auto col = column(rows, j);
    mean_[j] = support::mean(col);
    stddev_[j] = std::max(support::stddev(col), 1e-12);
  }
  return Status::ok();
}

double ZScoreDetector::score(const Row &row) const {
  double m = 0.0;
  for (std::size_t j = 0; j < mean_.size() && j < row.size(); ++j)
    m = std::max(m, std::fabs((row[j] - mean_[j]) / stddev_[j]));
  return m;
}

// ---------------------------------------------------------------------- iqr

Status IqrDetector::fit(const Table &rows) {
  if (auto s = require_table(rows); !s.is_ok()) return s;
  std::size_t d = rows.front().size();
  lo_.assign(d, 0.0);
  hi_.assign(d, 0.0);
  iqr_.assign(d, 1.0);
  for (std::size_t j = 0; j < d; ++j) {
    auto col = column(rows, j);
    double q1 = support::quantile(col, 0.25);
    double q3 = support::quantile(col, 0.75);
    double iqr = std::max(q3 - q1, 1e-12);
    lo_[j] = q1 - k_ * iqr;
    hi_[j] = q3 + k_ * iqr;
    iqr_[j] = iqr;
  }
  return Status::ok();
}

double IqrDetector::score(const Row &row) const {
  double m = 0.0;
  for (std::size_t j = 0; j < lo_.size() && j < row.size(); ++j) {
    double v = 0.0;
    if (row[j] < lo_[j]) v = (lo_[j] - row[j]) / iqr_[j];
    if (row[j] > hi_[j]) v = (row[j] - hi_[j]) / iqr_[j];
    m = std::max(m, v);
  }
  return m;
}

// -------------------------------------------------------------- mahalanobis

Status MahalanobisDetector::fit(const Table &rows) {
  if (auto s = require_table(rows, 3); !s.is_ok()) return s;
  std::size_t n = rows.size(), d = rows.front().size();
  mean_.assign(d, 0.0);
  for (const auto &r : rows) {
    for (std::size_t j = 0; j < d; ++j) mean_[j] += r[j];
  }
  for (auto &m : mean_) m /= static_cast<double>(n);

  numerics::Tensor cov(numerics::Shape{static_cast<std::int64_t>(d),
                                       static_cast<std::int64_t>(d)});
  for (const auto &r : rows) {
    for (std::size_t a = 0; a < d; ++a) {
      for (std::size_t b = 0; b < d; ++b) {
        cov(static_cast<std::int64_t>(a), static_cast<std::int64_t>(b)) +=
            (r[a] - mean_[a]) * (r[b] - mean_[b]);
      }
    }
  }
  cov *= 1.0 / static_cast<double>(n - 1);
  for (std::size_t a = 0; a < d; ++a)
    cov(static_cast<std::int64_t>(a), static_cast<std::int64_t>(a)) += ridge_;

  auto l = numerics::cholesky(cov);
  if (!l) return Status::failure("mahalanobis: covariance not SPD");
  chol_.resize(d);
  for (std::size_t a = 0; a < d; ++a) {
    chol_[a].assign(d, 0.0);
    for (std::size_t b = 0; b <= a; ++b) {
      chol_[a][b] = (*l)(static_cast<std::int64_t>(a),
                         static_cast<std::int64_t>(b));
    }
  }
  return Status::ok();
}

double MahalanobisDetector::score(const Row &row) const {
  std::size_t d = mean_.size();
  // Solve L y = (x - mu); distance^2 = ||y||^2.
  std::vector<double> y(d, 0.0);
  for (std::size_t i = 0; i < d; ++i) {
    double s = (i < row.size() ? row[i] : 0.0) - mean_[i];
    for (std::size_t k = 0; k < i; ++k) s -= chol_[i][k] * y[k];
    y[i] = s / chol_[i][i];
  }
  double sq = 0.0;
  for (double v : y) sq += v * v;
  return std::sqrt(sq);
}

// --------------------------------------------------------- isolation forest

namespace {

double harmonic(double n) { return std::log(n) + 0.5772156649015329; }

/// Expected path length of an unsuccessful BST search (Liu et al.).
double c_factor(double n) {
  if (n <= 1.0) return 0.0;
  return 2.0 * harmonic(n - 1.0) - 2.0 * (n - 1.0) / n;
}

}  // namespace

Status IsolationForest::fit(const Table &rows) {
  if (auto s = require_table(rows, 4); !s.is_ok()) return s;
  if (trees_ < 1 || subsample_ < 2)
    return Status::failure("isolation_forest: bad hyperparameters");
  std::size_t n = rows.size(), d = rows.front().size();
  auto sample_size = static_cast<std::size_t>(
      std::min<std::int64_t>(subsample_, static_cast<std::int64_t>(n)));
  int max_depth =
      static_cast<int>(std::ceil(std::log2(static_cast<double>(sample_size))));
  c_norm_ = c_factor(static_cast<double>(sample_size));

  support::Pcg32 rng(seed_);
  forest_.clear();
  forest_.reserve(static_cast<std::size_t>(trees_));

  for (int t = 0; t < trees_; ++t) {
    // Draw the subsample.
    std::vector<std::size_t> idx(sample_size);
    for (auto &i : idx) i = rng.bounded(static_cast<std::uint32_t>(n));

    Tree tree;
    // Recursive build via explicit stack.
    struct Frame {
      std::vector<std::size_t> points;
      int depth;
      int node;
    };
    tree.nodes.push_back({});
    std::vector<Frame> stack{{idx, 0, 0}};
    while (!stack.empty()) {
      Frame f = std::move(stack.back());
      stack.pop_back();
      Node &node = tree.nodes[static_cast<std::size_t>(f.node)];
      if (f.depth >= max_depth || f.points.size() <= 1) {
        node.size = static_cast<int>(f.points.size());
        continue;
      }
      // Pick a random feature with spread.
      int feature = -1;
      double lo = 0, hi = 0;
      for (int attempt = 0; attempt < 8; ++attempt) {
        int fcand = static_cast<int>(rng.bounded(static_cast<std::uint32_t>(d)));
        lo = hi = rows[f.points[0]][static_cast<std::size_t>(fcand)];
        for (std::size_t p : f.points) {
          lo = std::min(lo, rows[p][static_cast<std::size_t>(fcand)]);
          hi = std::max(hi, rows[p][static_cast<std::size_t>(fcand)]);
        }
        if (hi > lo) {
          feature = fcand;
          break;
        }
      }
      if (feature < 0) {
        node.size = static_cast<int>(f.points.size());
        continue;
      }
      double threshold = rng.uniform(lo, hi);
      std::vector<std::size_t> left, right;
      for (std::size_t p : f.points) {
        (rows[p][static_cast<std::size_t>(feature)] < threshold ? left : right)
            .push_back(p);
      }
      node.feature = feature;
      node.threshold = threshold;
      node.left = static_cast<int>(tree.nodes.size());
      node.right = node.left + 1;
      int left_id = node.left, right_id = node.right;
      tree.nodes.push_back({});
      tree.nodes.push_back({});
      stack.push_back({std::move(left), f.depth + 1, left_id});
      stack.push_back({std::move(right), f.depth + 1, right_id});
    }
    forest_.push_back(std::move(tree));
  }
  return Status::ok();
}

double IsolationForest::path_length(const Tree &tree, const Row &row) const {
  int node = 0;
  double depth = 0.0;
  while (true) {
    const Node &n = tree.nodes[static_cast<std::size_t>(node)];
    if (n.feature < 0) {
      return depth + c_factor(static_cast<double>(std::max(n.size, 1)));
    }
    double v = static_cast<std::size_t>(n.feature) < row.size()
                   ? row[static_cast<std::size_t>(n.feature)]
                   : 0.0;
    node = v < n.threshold ? n.left : n.right;
    depth += 1.0;
  }
}

double IsolationForest::score(const Row &row) const {
  if (forest_.empty()) return 0.0;
  double avg = 0.0;
  for (const auto &tree : forest_) avg += path_length(tree, row);
  avg /= static_cast<double>(forest_.size());
  return std::pow(2.0, -avg / std::max(c_norm_, 1e-9));
}

// ---------------------------------------------------------------------- knn

Status KnnDetector::fit(const Table &rows) {
  if (auto s = require_table(rows); !s.is_ok()) return s;
  if (k_ < 1) return Status::failure("knn: k must be >= 1");
  train_ = rows;
  return Status::ok();
}

double KnnDetector::score(const Row &row) const {
  std::vector<double> dists;
  dists.reserve(train_.size());
  for (const auto &t : train_) {
    double d2 = 0.0;
    for (std::size_t j = 0; j < t.size() && j < row.size(); ++j) {
      double diff = t[j] - row[j];
      d2 += diff * diff;
    }
    dists.push_back(std::sqrt(d2));
  }
  auto k = static_cast<std::size_t>(
      std::min<std::int64_t>(k_, static_cast<std::int64_t>(dists.size())));
  std::partial_sort(dists.begin(),
                    dists.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(k + 1, dists.size())),
                    dists.end());
  // Self-exclusion: when scoring a training row, its zero distance to itself
  // would mask the neighborhood.
  std::size_t begin = (!dists.empty() && dists[0] == 0.0) ? 1 : 0;
  double avg = 0.0;
  std::size_t used = 0;
  for (std::size_t i = begin; i < dists.size() && used < k; ++i, ++used)
    avg += dists[i];
  return used > 0 ? avg / static_cast<double>(used) : 0.0;
}

// ------------------------------------------------------------------ factory

std::vector<std::string> detector_names() {
  return {"zscore", "iqr", "mahalanobis", "isolation_forest", "knn"};
}

Expected<std::unique_ptr<Detector>> make_detector(
    const std::string &name, const std::map<std::string, double> &hyper,
    std::uint64_t seed) {
  auto get = [&](const char *key, double fallback) {
    auto it = hyper.find(key);
    return it == hyper.end() ? fallback : it->second;
  };
  if (name == "zscore") return std::unique_ptr<Detector>(new ZScoreDetector());
  if (name == "iqr")
    return std::unique_ptr<Detector>(new IqrDetector(get("k", 1.5)));
  if (name == "mahalanobis")
    return std::unique_ptr<Detector>(
        new MahalanobisDetector(get("ridge", 1e-3)));
  if (name == "isolation_forest")
    return std::unique_ptr<Detector>(new IsolationForest(
        static_cast<int>(get("trees", 64)),
        static_cast<int>(get("subsample", 128)), seed));
  if (name == "knn")
    return std::unique_ptr<Detector>(
        new KnnDetector(static_cast<int>(get("k", 8))));
  return Error::make("detector: unknown family '" + name + "'");
}

std::vector<std::size_t> detect_anomalies(const Detector &detector,
                                          const Table &rows,
                                          double contamination) {
  std::vector<std::pair<double, std::size_t>> scored;
  scored.reserve(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    scored.emplace_back(detector.score(rows[i]), i);
  std::sort(scored.begin(), scored.end(),
            [](const auto &a, const auto &b) { return a.first > b.first; });
  auto count = static_cast<std::size_t>(
      std::round(contamination * static_cast<double>(rows.size())));
  count = std::min(count, rows.size());
  std::vector<std::size_t> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(scored[i].second);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace everest::anomaly
