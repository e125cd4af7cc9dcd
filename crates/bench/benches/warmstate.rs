//! CSR vs MTR ablation (DESIGN.md §5 decision 2): recording cost,
//! reconstruction cost, and the storage shapes behind the paper's §4.3
//! choice of bounded Cache Set Records inside live-points. No e2e
//! metric or experiment binary measures MTR; this bench reports to the
//! console only and is run by hand.

use criterion::Criterion;
use spectral_cache::{Cache, CacheConfig, Csr, Mtr};

fn stream(n: u64) -> Vec<(u64, bool)> {
    (0..n)
        .map(|i| {
            let a = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (1 << 24);
            (a, i % 5 == 0)
        })
        .collect()
}

fn bench_warmstate(c: &mut Criterion) {
    let max = CacheConfig::new(1 << 20, 4, 128).expect("valid"); // 1MB L2
    let target = CacheConfig::new(1 << 18, 2, 128).expect("valid"); // 256KB
    let accesses = stream(50_000);

    let mut group = c.benchmark_group("csr_vs_mtr");
    group.sample_size(15);

    group.bench_function("csr_record_50k", |b| {
        b.iter(|| {
            let mut csr = Csr::new(max);
            for &(a, w) in &accesses {
                csr.record(a, w);
            }
            csr
        });
    });
    group.bench_function("mtr_record_50k", |b| {
        b.iter(|| {
            let mut mtr = Mtr::new(128).expect("valid");
            for &(a, w) in &accesses {
                mtr.record(a, w);
            }
            mtr
        });
    });
    group.bench_function("plain_cache_50k", |b| {
        b.iter(|| {
            let mut cache = Cache::new(max);
            for &(a, w) in &accesses {
                cache.access(a, w);
            }
            cache
        });
    });

    let mut csr = Csr::new(max);
    let mut mtr = Mtr::new(128).expect("valid");
    for &(a, w) in &accesses {
        csr.record(a, w);
        mtr.record(a, w);
    }
    group.bench_function("csr_reconstruct_smaller", |b| {
        b.iter(|| csr.reconstruct(&target).expect("covered"));
    });
    group.bench_function("mtr_reconstruct_smaller", |b| {
        b.iter(|| mtr.reconstruct(&target).expect("covered"));
    });
    group.finish();
}

fn main() {
    bench_warmstate(&mut Criterion::default());
}
