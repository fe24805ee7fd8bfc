#include "common/rng.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace exadigit {

namespace {

/// FNV-1a hash for deterministic stream derivation.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ULL;
  }
  return h;
}

/// splitmix64 finalizer to decorrelate seed + label hash.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

Rng Rng::fork(std::string_view label) const {
  return Rng(mix(seed_ ^ fnv1a(label)));
}

double Rng::uniform(double lo, double hi) {
  require(hi >= lo, "uniform requires hi >= lo");
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  require(hi >= lo, "uniform_int requires hi >= lo");
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::exponential(double mean) {
  require(mean > 0, "exponential requires mean > 0");
  // Written in the paper's Eq. (5) form rather than std::exponential_distribution
  // so the sampling matches the reference implementation exactly.
  const double u = uniform(0.0, 1.0);
  const double lambda = 1.0 / mean;
  return -std::log(1.0 - u) / lambda;
}

double Rng::normal(double mean, double stddev) {
  require(stddev >= 0.0, "normal requires stddev >= 0");  // NaN fails too
  // A zero sigma returns `mean` but still draws (with a valid stddev), so
  // the stream advances exactly as it does for any sigma > 0.
  std::normal_distribution<double> dist(mean, stddev > 0.0 ? stddev : 1.0);
  const double x = dist(engine_);
  return stddev > 0.0 ? x : mean;
}

double Rng::truncated_normal(double mean, double stddev, double lo, double hi) {
  require(hi >= lo, "truncated_normal requires hi >= lo");
  if (stddev <= 0.0) return std::clamp(mean, lo, hi);
  for (int attempt = 0; attempt < 64; ++attempt) {
    const double x = normal(mean, stddev);
    if (x >= lo && x <= hi) return x;
  }
  return std::clamp(mean, lo, hi);
}

double Rng::lognormal_mean_std(double mean, double stddev) {
  require(mean > 0, "lognormal requires mean > 0");
  if (stddev <= 0.0) return mean;
  const double cv2 = (stddev / mean) * (stddev / mean);
  const double sigma2 = std::log(1.0 + cv2);
  const double mu = std::log(mean) - 0.5 * sigma2;
  std::lognormal_distribution<double> dist(mu, std::sqrt(sigma2));
  return dist(engine_);
}

bool Rng::bernoulli(double p_true) {
  std::bernoulli_distribution dist(std::clamp(p_true, 0.0, 1.0));
  return dist(engine_);
}

}  // namespace exadigit
