//! Micro-benchmarks of the disk substrate: WAL append path, block
//! building/seeking, Bloom filters, CRC32C checksums, the merge path
//! (table writer and one-pass reader), and the RCU component-pointer
//! load ablation (RCU vs mutex-guarded pointer read).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use parking_lot::Mutex;

use clsm_util::bloom::BloomFilterPolicy;
use clsm_util::crc;
use clsm_util::env::RealEnv;
use clsm_util::rcu::RcuCell;
use lsm_storage::compaction::write_merged_tables;
use lsm_storage::filenames::table_path;
use lsm_storage::format::{InternalKey, ValueKind, WriteRecord};
use lsm_storage::iter::VecIterator;
use lsm_storage::sstable::{Block, BlockBuilder, Table};
use lsm_storage::wal::{LogQueue, LogWriter, SyncMode};
use lsm_storage::{InternalIterator, StoreOptions};

fn bench_wal_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/wal_append");
    group.throughput(Throughput::Elements(1));
    let dir = std::env::temp_dir().join(format!("bench-wal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let path = dir.join("bench.log");
    let queue = LogQueue::new(LogWriter::new(Box::new(
        std::fs::File::create(&path).unwrap(),
    )));
    queue.start_logger().unwrap();
    let mut record = Vec::new();
    WriteRecord::put(1, b"key-of-16-bytes!".to_vec(), vec![0u8; 256]).encode_to(&mut record);
    group.bench_function("async_enqueue_256B", |b| {
        b.iter(|| queue.append(record.clone(), SyncMode::Async).unwrap())
    });
    queue.sync().unwrap();
    drop(queue);
    let _ = std::fs::remove_dir_all(&dir);
    group.finish();
}

fn bench_block(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/block");
    let n = 200u32;
    group.throughput(Throughput::Elements(n as u64));
    group.bench_function("build_200_entries", |b| {
        b.iter(|| {
            let mut builder = BlockBuilder::default();
            for i in 0..n {
                let key = InternalKey::new(
                    format!("key{i:08}").as_bytes(),
                    i as u64 + 1,
                    ValueKind::Put,
                );
                builder.add(key.encoded(), &[7u8; 64]);
            }
            builder.finish()
        })
    });

    let mut builder = BlockBuilder::default();
    for i in 0..n {
        let key = InternalKey::new(
            format!("key{i:08}").as_bytes(),
            i as u64 + 1,
            ValueKind::Put,
        );
        builder.add(key.encoded(), &[7u8; 64]);
    }
    let block = Arc::new(Block::parse(builder.finish()).unwrap());
    group.throughput(Throughput::Elements(1));
    let mut i = 0u32;
    group.bench_function("seek", |b| {
        b.iter(|| {
            i = (i + 37) % n;
            let mut it = block.iter();
            it.seek_internal(format!("key{i:08}").as_bytes(), u64::MAX >> 1);
            assert!(it.is_valid());
        })
    });
    group.finish();
}

fn bench_bloom(c: &mut Criterion) {
    let mut group = c.benchmark_group("storage/bloom");
    let policy = BloomFilterPolicy::new(10);
    let keys: Vec<Vec<u8>> = (0..10_000u32)
        .map(|i| format!("key{i:08}").into_bytes())
        .collect();
    let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
    group.throughput(Throughput::Elements(keys.len() as u64));
    group.bench_function("create_10k_keys", |b| {
        b.iter(|| policy.create_filter(&refs))
    });
    let filter = policy.create_filter(&refs);
    group.throughput(Throughput::Elements(1));
    group.bench_function("probe", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % keys.len();
            std::hint::black_box(policy.key_may_match(&keys[i], &filter))
        })
    });
    group.finish();
}

fn bench_crc32c(c: &mut Criterion) {
    // Every WAL record and table block is checksummed on write and
    // verified on read: the accelerated path against the table loop.
    let mut group = c.benchmark_group("storage/crc32c");
    let block: Vec<u8> = (0..4096u32).map(|i| (i * 131 + 7) as u8).collect();
    group.throughput(Throughput::Bytes(block.len() as u64));
    group.bench_function(format!("extend_4KiB_{}", crc::implementation()), |b| {
        b.iter(|| crc::extend(0, std::hint::black_box(&block)))
    });
    group.bench_function("extend_portable_4KiB", |b| {
        b.iter(|| crc::extend_portable(0, std::hint::black_box(&block)))
    });
    group.finish();
}

fn bench_compaction(c: &mut Criterion) {
    // The merge path at the shape `ingest` loads: 1 KiB values written
    // through the flush/compaction table writer, and a table read back
    // the way compaction reads its inputs (one pass, chunked, checksummed,
    // uncached).
    let mut group = c.benchmark_group("storage/compaction");
    group.sample_size(10);
    let dir = std::env::temp_dir().join(format!("bench-compaction-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Large enough that the 2 MiB stream is one table.
    let opts = StoreOptions {
        table_file_size: 4 << 20,
        ..StoreOptions::default()
    };
    let n = 2000u64;
    let entries: Vec<(Vec<u8>, u64, ValueKind, Vec<u8>)> = (0..n)
        .map(|i| {
            let key = format!("key.{i:012}").into_bytes();
            (key, i + 1, ValueKind::Put, vec![(i % 251) as u8; 1024])
        })
        .collect();
    let write = |entries: Vec<(Vec<u8>, u64, ValueKind, Vec<u8>)>| {
        let mut it = VecIterator::new(entries);
        it.seek_to_first();
        let mut number = 0u64;
        write_merged_tables(&mut it, &dir, &opts, 1, 0, false, &mut || {
            number += 1;
            number
        })
        .unwrap()
    };
    group.throughput(Throughput::Elements(n));
    group.bench_function("write_merged_tables_2k_x_1KiB", |b| {
        b.iter_batched(|| entries.clone(), write, BatchSize::LargeInput)
    });

    let files = write(entries.clone());
    assert_eq!(files.len(), 1);
    let table = Arc::new(
        Table::open(
            &RealEnv,
            &table_path(&dir, files[0].number),
            files[0].number,
            opts.bloom_bits_per_key,
            None,
        )
        .unwrap(),
    );
    group.bench_function("one_pass_read", |b| {
        b.iter(|| {
            let mut it = table.one_pass_iter();
            it.seek_to_first();
            let mut walked = 0u64;
            while it.valid() {
                std::hint::black_box(it.value());
                walked += 1;
                it.next();
            }
            it.status().unwrap();
            walked
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_component_pointer(c: &mut Criterion) {
    // Ablation: reading the global component pointers. cLSM's RCU load
    // (lock-free) vs a mutex-guarded Arc clone (what LevelDB does under
    // its global mutex).
    let mut group = c.benchmark_group("storage/component_ptr");
    group.throughput(Throughput::Elements(1));
    let rcu = RcuCell::new(Arc::new(42u64));
    group.bench_function("rcu_load", |b| b.iter(|| std::hint::black_box(rcu.load())));
    let locked = Mutex::new(Arc::new(42u64));
    group.bench_function("mutex_clone", |b| {
        b.iter(|| std::hint::black_box(Arc::clone(&locked.lock())))
    });
    for threads in [2usize, 4] {
        let per = 100_000u64;
        group.throughput(Throughput::Elements(per * threads as u64));
        group.bench_with_input(
            BenchmarkId::new("rcu_load_concurrent", threads),
            &threads,
            |b, &threads| {
                let rcu = RcuCell::new(Arc::new(7u64));
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for _ in 0..threads {
                            let rcu = &rcu;
                            scope.spawn(move || {
                                for _ in 0..per {
                                    std::hint::black_box(rcu.load());
                                }
                            });
                        }
                    })
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("mutex_clone_concurrent", threads),
            &threads,
            |b, &threads| {
                let locked = Mutex::new(Arc::new(7u64));
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for _ in 0..threads {
                            let locked = &locked;
                            scope.spawn(move || {
                                for _ in 0..per {
                                    std::hint::black_box(Arc::clone(&locked.lock()));
                                }
                            });
                        }
                    })
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_wal_append,
    bench_block,
    bench_bloom,
    bench_crc32c,
    bench_compaction,
    bench_component_pointer
);
criterion_main!(benches);
