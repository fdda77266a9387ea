//! The host's speed, read from a fixed reference computation.
//!
//! The machine the benchmark runs on is shared, and its speed drifts:
//! for tens of seconds at a time every computation slows by up to 1.6×.
//! No statistic over one run's jobs removes a slowdown that covers the
//! whole run. The benchmark therefore times a reference computation of
//! its own right before and right after every job and scales the job's
//! time by how much slower the reference ran than [`REFERENCE_S`].
//!
//! The reference is a fixed mix of six small kernels — a floating-point
//! dependency chain, a pointer chase through 16 MiB, number formatting,
//! hash-map updates, a sort and a dense matrix-vector product — because
//! the workloads' own mixes slow down by different amounts in a slow
//! spell, and no single kernel tracks all of them. Its code belongs to
//! the benchmark, so a change to the program cannot move it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Seconds the reference is taken to last: on a host where it does, a
/// scaled time equals the measured one. Near its time on the machine
/// named in the README in a calm spell.
pub(crate) const REFERENCE_S: f64 = 0.05;

/// Words in the pointer-chase buffer (16 MiB).
const CHASE_WORDS: usize = 1 << 21;
/// Order of the dense matrix.
const MATRIX_ORDER: usize = 256;

fn xorshift(z: &mut u64) -> u64 {
    *z ^= *z << 13;
    *z ^= *z >> 7;
    *z ^= *z << 17;
    *z
}

fn fp_chain(n: usize) -> f64 {
    let mut x = 1.0f64;
    let mut acc = 0.0;
    for i in 0..n {
        x = x * 1.000_001 + 1e-9;
        acc += x.sqrt() * i as f64;
    }
    acc
}

fn chase(words: &[u64], steps: usize) -> u64 {
    let mut i = 0;
    let mut sum = 0u64;
    for _ in 0..steps {
        let v = words[i];
        sum = sum.wrapping_add(v);
        i = (v % words.len() as u64) as usize;
    }
    sum
}

fn format(n: usize) -> usize {
    let mut s = String::new();
    let mut total = 0;
    for i in 0..n {
        s.clear();
        let _ = write!(s, "{{\"x\":{},\"y\":{}}}", i as f64 * 0.37, i);
        total += s.len();
    }
    total
}

fn hash_updates(n: usize) -> u64 {
    let mut map = HashMap::new();
    let mut z = 1u64;
    let mut sum = 0u64;
    for i in 0..n as u64 {
        z = z
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = (z >> 40) & 0xffff;
        *map.entry(key).or_insert(0u64) += i;
        sum = sum.wrapping_add(*map.get(&(key ^ 1)).unwrap_or(&0));
    }
    sum
}

fn sort(n: usize) -> f64 {
    let mut z = 7u64;
    let mut v: Vec<f64> = (0..n).map(|_| (xorshift(&mut z) >> 11) as f64).collect();
    v.sort_by(f64::total_cmp);
    v[n / 2]
}

fn power_steps(matrix: &[f64], reps: usize) -> f64 {
    let n = MATRIX_ORDER;
    let mut x = vec![1.0; n];
    let mut y = vec![0.0; n];
    for _ in 0..reps {
        for (row, yi) in matrix.chunks_exact(n).zip(y.iter_mut()) {
            *yi = row.iter().zip(&x).map(|(a, b)| a * b).sum();
        }
        let total: f64 = y.iter().sum();
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / total;
        }
    }
    x[0]
}

/// The reference computation and its inputs, built once per run.
pub(crate) struct Reference {
    words: Vec<u64>,
    matrix: Vec<f64>,
}

impl Reference {
    pub(crate) fn new() -> Reference {
        let mut z = 0x9e37_79b9_7f4a_7c15;
        Reference {
            words: (0..CHASE_WORDS).map(|_| xorshift(&mut z)).collect(),
            matrix: (0..MATRIX_ORDER * MATRIX_ORDER)
                .map(|i| ((i * 7919) % 1000) as f64 + 1.0)
                .collect(),
        }
    }

    /// Seconds one pass of the reference takes now.
    pub(crate) fn time(&self) -> f64 {
        let t = Instant::now();
        black_box(fp_chain(black_box(5_000_000)));
        black_box(chase(black_box(&self.words), 500_000));
        black_box(format(black_box(80_000)));
        black_box(hash_updates(black_box(200_000)));
        black_box(sort(black_box(100_000)));
        black_box(power_steps(black_box(&self.matrix), 60));
        t.elapsed().as_secs_f64()
    }
}
