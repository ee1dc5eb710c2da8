//! Host-speed calibration: a fixed dense LU factorisation, independent of
//! the repository's code, whose time tracks how fast the shared host runs
//! solver-like work right now. Prints the factorisation time in seconds.
//!
//! The matrix (1200 × 1200, 11.5 MB) does not fit in a core's private
//! caches, so the kernel feels the same cache and memory contention from
//! other tenants that slows the campaign.

use std::time::Instant;

const N: usize = 1200;

fn main() {
    let mut a = vec![0.0f64; N * N];
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    for v in a.iter_mut() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
    }
    for i in 0..N {
        a[i * N + i] += N as f64;
    }

    let t0 = Instant::now();
    for k in 0..N {
        let pivot = (k..N)
            .max_by(|&i, &j| a[i * N + k].abs().total_cmp(&a[j * N + k].abs()))
            .expect("non-empty pivot range");
        if pivot != k {
            for j in 0..N {
                a.swap(k * N + j, pivot * N + j);
            }
        }
        let (top, bottom) = a.split_at_mut((k + 1) * N);
        let row_k = &top[k * N..];
        for row_i in bottom.chunks_exact_mut(N) {
            let f = row_i[k] / row_k[k];
            for (x, &y) in row_i[k..].iter_mut().zip(&row_k[k..]) {
                *x -= f * y;
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    // The last pivot keeps the factorisation from being optimised away.
    println!("{secs} {}", std::hint::black_box(a[N * N - 1]));
}
