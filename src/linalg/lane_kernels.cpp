#include "linalg/lane_kernels.hpp"

#include <algorithm>
#include <cmath>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace efficsense::linalg {

bool cpu_has_avx2() {
#if defined(__x86_64__)
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

namespace {

#if defined(__x86_64__)
// Four lanes per step: broadcast a[i], multiply against the lane row,
// accumulate. mul and add stay separate instructions (never fmadd): the
// scalar oracle is compiled without FMA, so contraction here would change
// the low bits and break the lane-equivalence goldens.
__attribute__((target("avx2"))) void dot_lanes4_avx2(const double* a,
                                                     const double* xt,
                                                     std::size_t n,
                                                     std::size_t stride,
                                                     double* out) {
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n; ++i) {
    const __m256d ai = _mm256_set1_pd(a[i]);
    const __m256d x = _mm256_loadu_pd(xt + i * stride);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(ai, x));
  }
  _mm256_storeu_pd(out, acc);
}
#endif

#if defined(__x86_64__)
__attribute__((target("avx2"))) void sub_scaled_avx2(double* a,
                                                     const double* r, double c,
                                                     std::size_t n) {
  const __m256d vc = _mm256_set1_pd(c);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d va = _mm256_loadu_pd(a + k);
    const __m256d vr = _mm256_loadu_pd(r + k);
    _mm256_storeu_pd(a + k, _mm256_sub_pd(va, _mm256_mul_pd(vc, vr)));
  }
  for (; k < n; ++k) a[k] -= c * r[k];
}

__attribute__((target("avx2"))) void sub_scaled4_avx2(
    double* a, const double* r0, const double* r1, const double* r2,
    const double* r3, double c0, double c1, double c2, double c3,
    std::size_t n) {
  const __m256d v0 = _mm256_set1_pd(c0), v1 = _mm256_set1_pd(c1),
                v2 = _mm256_set1_pd(c2), v3 = _mm256_set1_pd(c3);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m256d d = _mm256_loadu_pd(a + k);
    d = _mm256_sub_pd(d, _mm256_mul_pd(_mm256_loadu_pd(r0 + k), v0));
    d = _mm256_sub_pd(d, _mm256_mul_pd(_mm256_loadu_pd(r1 + k), v1));
    d = _mm256_sub_pd(d, _mm256_mul_pd(_mm256_loadu_pd(r2 + k), v2));
    d = _mm256_sub_pd(d, _mm256_mul_pd(_mm256_loadu_pd(r3 + k), v3));
    _mm256_storeu_pd(a + k, d);
  }
  for (; k < n; ++k) {
    a[k] = (((a[k] - r0[k] * c0) - r1[k] * c1) - r2[k] * c2) - r3[k] * c3;
  }
}

// One 4x8 tile of G: 8 accumulators of four entries each, one broadcast
// per tile row and two loads per W row.
__attribute__((target("avx2"))) void gram_tile_avx2(const double* w,
                                                    std::size_t rows,
                                                    std::size_t stride,
                                                    std::size_t i0,
                                                    std::size_t j0,
                                                    double* tile) {
  __m256d acc[4][2];
  for (auto& row : acc) row[0] = row[1] = _mm256_setzero_pd();
  for (std::size_t r = 0; r < rows; ++r) {
    const double* wr = w + r * stride;
    const __m256d b0 = _mm256_loadu_pd(wr + j0);
    const __m256d b1 = _mm256_loadu_pd(wr + j0 + 4);
    for (std::size_t a = 0; a < 4; ++a) {
      const __m256d x = _mm256_set1_pd(wr[i0 + a]);
      acc[a][0] = _mm256_add_pd(acc[a][0], _mm256_mul_pd(x, b0));
      acc[a][1] = _mm256_add_pd(acc[a][1], _mm256_mul_pd(x, b1));
    }
  }
  for (std::size_t a = 0; a < 4; ++a) {
    _mm256_storeu_pd(tile + 8 * a, acc[a][0]);
    _mm256_storeu_pd(tile + 8 * a + 4, acc[a][1]);
  }
}

// Blockwise prefilter: the four scores are computed with the same IEEE
// fabs/div the scalar loop uses; a block is rescanned in scalar order only
// when its maximum can beat the running best, so the first-strict-winner
// tie-breaking is preserved.
__attribute__((target("avx2"))) std::size_t select_atom_avx2(
    const double* alpha, const double* col_norm, const double* live,
    std::size_t n, double* best_score) {
  std::size_t best = n;
  double score_best = 0.0;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d abs_mask = _mm256_castsi256_pd(
      _mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d va =
        _mm256_and_pd(_mm256_loadu_pd(alpha + k), abs_mask);
    const __m256d vn = _mm256_loadu_pd(col_norm + k);
    const __m256d score = _mm256_div_pd(va, vn);
    const __m256d ok =
        _mm256_cmp_pd(_mm256_loadu_pd(live + k), zero, _CMP_NEQ_OQ);
    // Rescan the block only when some live score beats the current best.
    // The ordered compare is false for NaN, exactly as the scalar '>' is,
    // so a NaN score can neither win nor hide a winner in its block.
    const __m256d beats = _mm256_and_pd(
        ok, _mm256_cmp_pd(score, _mm256_set1_pd(score_best), _CMP_GT_OQ));
    if (_mm256_movemask_pd(beats) != 0) {
      for (std::size_t j = k; j < k + 4; ++j) {
        if (live[j] == 0.0) continue;
        const double s = std::fabs(alpha[j]) / col_norm[j];
        if (s > score_best) {
          score_best = s;
          best = j;
        }
      }
    }
  }
  for (; k < n; ++k) {
    if (live[k] == 0.0) continue;
    const double s = std::fabs(alpha[k]) / col_norm[k];
    if (s > score_best) {
      score_best = s;
      best = k;
    }
  }
  *best_score = score_best;
  return best;
}
#endif

void dot_lanes_scalar(const double* a, const double* xt, std::size_t n,
                      std::size_t lanes, std::size_t first, double* out) {
  for (std::size_t l = first; l < lanes; ++l) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) sum += a[i] * xt[i * lanes + l];
    out[l] = sum;
  }
}

}  // namespace

void dot_lanes(const double* a, const double* xt, std::size_t n,
               std::size_t lanes, double* out) {
  std::size_t l = 0;
#if defined(__x86_64__)
  if (cpu_has_avx2()) {
    for (; l + 4 <= lanes; l += 4) {
      dot_lanes4_avx2(a, xt + l, n, lanes, out + l);
    }
  }
#endif
  dot_lanes_scalar(a, xt, n, lanes, l, out);
}

void sub_scaled(double* a, const double* r, double c, std::size_t n) {
#if defined(__x86_64__)
  if (cpu_has_avx2()) {
    sub_scaled_avx2(a, r, c, n);
    return;
  }
#endif
  for (std::size_t k = 0; k < n; ++k) a[k] -= c * r[k];
}

void sub_scaled4(double* a, const double* r0, const double* r1,
                 const double* r2, const double* r3, double c0, double c1,
                 double c2, double c3, std::size_t n) {
#if defined(__x86_64__)
  if (cpu_has_avx2()) {
    sub_scaled4_avx2(a, r0, r1, r2, r3, c0, c1, c2, c3, n);
    return;
  }
#endif
  for (std::size_t k = 0; k < n; ++k) {
    a[k] = (((a[k] - r0[k] * c0) - r1[k] * c1) - r2[k] * c2) - r3[k] * c3;
  }
}

void gram_rows(const double* w, std::size_t rows, std::size_t stride,
               std::size_t n, double* g) {
  double tile[32];
  for (std::size_t i0 = 0; i0 < n; i0 += 4) {
    for (std::size_t j0 = i0 / 8 * 8; j0 < n; j0 += 8) {
#if defined(__x86_64__)
      if (cpu_has_avx2()) {
        gram_tile_avx2(w, rows, stride, i0, j0, tile);
      } else
#endif
      {
        std::fill(tile, tile + 32, 0.0);
        for (std::size_t r = 0; r < rows; ++r) {
          const double* wr = w + r * stride;
          for (std::size_t a = 0; a < 4; ++a) {
            for (std::size_t b = 0; b < 8; ++b) {
              tile[8 * a + b] += wr[i0 + a] * wr[j0 + b];
            }
          }
        }
      }
      const std::size_t ni = std::min<std::size_t>(4, n - i0);
      const std::size_t nj = std::min<std::size_t>(8, n - j0);
      for (std::size_t a = 0; a < ni; ++a) {
        std::copy(tile + 8 * a, tile + 8 * a + nj, g + (i0 + a) * n + j0);
      }
    }
  }
}

std::size_t select_atom(const double* alpha, const double* col_norm,
                        const double* live, std::size_t n,
                        double* best_score) {
#if defined(__x86_64__)
  if (cpu_has_avx2()) {
    return select_atom_avx2(alpha, col_norm, live, n, best_score);
  }
#endif
  std::size_t best = n;
  double score_best = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    if (live[k] == 0.0) continue;
    const double s = std::fabs(alpha[k]) / col_norm[k];
    if (s > score_best) {
      score_best = s;
      best = k;
    }
  }
  *best_score = score_best;
  return best;
}

}  // namespace efficsense::linalg
