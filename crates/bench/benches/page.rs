//! Micro-benchmark: page construction, in-page binary search, and the
//! byte-level drop by delete key (the unit of work of KiWi partial page
//! drops).

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lethe_storage::{Entry, Page};

fn make_page(entries: usize) -> Page {
    Page::new(
        (0..entries as u64)
            .map(|k| Entry::put(k * 3, (k * 37) % 1000, k + 1, Bytes::from(vec![0u8; 64])))
            .collect(),
    )
}

fn bench_page(c: &mut Criterion) {
    let mut group = c.benchmark_group("page");
    group.bench_function("build_64_entries", |b| b.iter(|| make_page(black_box(64))));

    let page = make_page(64);
    group.bench_function("point_get", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 3) % (64 * 3);
            black_box(page.get(black_box(k)))
        })
    });
    group.bench_function("range_scan", |b| {
        b.iter(|| black_box(page.range(black_box(30), black_box(120))).count())
    });
    group.bench_function("drop_secondary_range", |b| {
        b.iter(|| black_box(page.drop_secondary_range(black_box(100), black_box(600))))
    });
    group.bench_function("encode_decode", |b| {
        b.iter(|| Page::decode(black_box(page.encode())).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_page);
criterion_main!(benches);
