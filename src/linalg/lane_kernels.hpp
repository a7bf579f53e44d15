#pragma once
// SIMD kernels for the K-lane batched engine and the dense triangular
// solves. Every kernel keeps each output's floating-point accumulation
// order identical to the scalar path — SIMD runs ACROSS independent values
// (lanes, right-hand sides, matrix entries), never along a reduction
// index — so results match the scalar oracle bit for bit. The AVX2
// variants are picked by a runtime CPU probe and use separate multiply and
// add instructions: the build carries no -march flag, so the scalar path
// never contracts to FMA and the vector path must not either.

#include <cstddef>

namespace efficsense::linalg {

/// True when the CPU supports AVX2 (cached runtime probe).
bool cpu_has_avx2();

/// out[l] = sum_i a[i] * xt[i*lanes + l] for each lane l, with the
/// i-accumulation in scalar order per lane. `xt` is sample-major SoA
/// (lane index minor). This shares one FP add-latency chain across all
/// lanes, which is where the batched-vs-scalar win comes from.
void dot_lanes(const double* a, const double* xt, std::size_t n,
               std::size_t lanes, double* out);

/// a[k] -= c * r[k], elementwise. No reduction is reordered, and IEEE
/// mul/sub are correctly rounded at any width, so the AVX2 path is
/// bit-identical to the scalar loop.
void sub_scaled(double* a, const double* r, double c, std::size_t n);

/// a[k] = (((a[k] - r0[k]*c0) - r1[k]*c1) - r2[k]*c2) - r3[k]*c3: four
/// ascending terms of a triangular update per pass, the running value held
/// in a register between them. Every a[k] keeps the exact scalar sequence,
/// so the AVX2 path is bit-identical to four sub_scaled calls in order.
void sub_scaled4(double* a, const double* r0, const double* r1,
                 const double* r2, const double* r3, double c0, double c1,
                 double c2, double c3, std::size_t n);

/// Upper triangle of G = W^T W (n x n, row-major, lower entries near the
/// diagonal may be written too) for the `rows` x n row-major W with row
/// pitch `stride` of at least n rounded up to a multiple of 8, the padding
/// columns zero. Each G(i,j) sums its rows in ascending order
/// from 0.0, in 4x8 register tiles.
void gram_rows(const double* w, std::size_t rows, std::size_t stride,
               std::size_t n, double* g);

/// First k (ascending) maximizing fabs(alpha[k]) / col_norm[k] under
/// strict '>' updates, skipping entries with live[k] == 0.0. Returns n
/// when nothing scores above zero; writes the winning score to
/// *best_score (left at 0.0 otherwise). Matches the scalar OMP atom
/// selection loop exactly, NaN scores included (they never win): the
/// vector path only skips 4-blocks in which no live score beats the
/// current best, and rescans the others in scalar order.
std::size_t select_atom(const double* alpha, const double* col_norm,
                        const double* live, std::size_t n,
                        double* best_score);

}  // namespace efficsense::linalg
