//! Every table block is checksummed on read: flipping any single bit of
//! a data block — its contents, its compression-type byte or its stored
//! CRC — makes a point lookup, and the one-pass reader compaction uses,
//! fail with a corruption error, never a wrong answer and never a panic.
//! The footer has no checksum of its own; a flip there either leaves
//! the table readable and correct or is a corruption error too, and so
//! is a truncated table. A block whose checksum holds but whose key is
//! too short to be an internal key is a corruption error as well, and so
//! is opening a table whose index names a block past the block region.
//! A damaged block is never cached, so with a block cache a second get
//! fails the same way. Table bytes match a recorded golden image.

use std::path::Path;
use std::sync::Arc;

use clsm_repro::storage::cache::BlockCache;
use clsm_repro::storage::compaction::write_merged_tables;
use clsm_repro::storage::format::InternalKey;
use clsm_repro::storage::iter::VecIterator;
use clsm_repro::storage::sstable::{
    Block, BlockBuilder, BlockHandle, Footer, Table, TableBuilder, BLOCK_TRAILER_SIZE, FOOTER_SIZE,
};
use clsm_repro::storage::{InternalIterator, Store, StoreOptions, ValueKind};
use clsm_repro::util::crc;
use clsm_repro::util::env::{Env, FaultEnv};
use clsm_repro::util::error::ErrorKind;

const BLOCK_SIZE: usize = 4096;

/// `(file number, length, CRC32C)` of each table the golden stream
/// writes, recorded from the table writer before its allocation rework.
const GOLDEN_TABLES: &[(u64, u64, u32)] = &[
    (1, 266_547, 2_593_713_164),
    (2, 266_422, 1_142_481_831),
    (3, 266_518, 2_115_142_955),
    (4, 85_979, 3_940_968_188),
];

fn value(i: usize) -> Vec<u8> {
    (0..24).map(|j| (i * 31 + j * 7) as u8).collect()
}

type Entry = (Vec<u8>, u64, ValueKind, Vec<u8>);

/// Writes a table of `n` entries with `value_len`-byte values and
/// returns its bytes and entries.
fn small_table(
    env: &FaultEnv,
    path: &Path,
    n: usize,
    value_len: usize,
    block_size: usize,
) -> (Vec<u8>, Vec<Entry>) {
    let entries: Vec<Entry> = (0..n)
        .map(|i| {
            let v = (0..value_len).map(|j| (i * 31 + j * 7) as u8).collect();
            (
                format!("key.{i:04}").into_bytes(),
                i as u64 + 1,
                ValueKind::Put,
                v,
            )
        })
        .collect();
    let mut builder = TableBuilder::new(env.open_write(path).unwrap(), block_size, 10);
    for (key, ts, kind, v) in &entries {
        builder
            .add(InternalKey::new(key, *ts, *kind).encoded(), v)
            .unwrap();
    }
    builder.finish().unwrap();
    (env.read(path).unwrap(), entries)
}

/// Number of data blocks the table's index names.
fn data_blocks(bytes: &[u8]) -> usize {
    let footer = Footer::decode(&bytes[bytes.len() - FOOTER_SIZE..]).unwrap();
    let BlockHandle { offset, size } = footer.index_handle;
    let index =
        Arc::new(Block::parse(bytes[offset as usize..(offset + size) as usize].to_vec()).unwrap());
    let mut it = index.iter();
    it.to_first();
    let mut n = 0;
    while it.is_valid() {
        n += 1;
        it.step();
    }
    n
}

/// Every entry of `table`, read by the one-pass reader.
fn read_one_pass(table: Table) -> (Vec<Entry>, clsm_repro::util::error::Result<()>) {
    let mut it = Arc::new(table).one_pass_iter();
    it.seek_to_first();
    let mut out = Vec::new();
    while it.valid() {
        out.push((
            it.user_key().to_vec(),
            it.ts(),
            it.kind(),
            it.value().to_vec(),
        ));
        it.next();
    }
    (out, it.status())
}

#[test]
fn every_single_bit_flip_in_a_data_block_is_a_corruption_error() {
    let env = FaultEnv::new(0xc4c);
    let path = Path::new("/checksums/000001.sst");
    let keys: Vec<Vec<u8>> = (0..16u32)
        .map(|i| format!("key.{i:04}").into_bytes())
        .collect();
    let mut builder = TableBuilder::new(env.open_write(path).unwrap(), BLOCK_SIZE, 10);
    for (i, key) in keys.iter().enumerate() {
        let ikey = InternalKey::new(key, i as u64 + 1, ValueKind::Put);
        builder.add(ikey.encoded(), &value(i)).unwrap();
    }
    builder.finish().unwrap();
    let pristine = env.read(path).unwrap();

    // The data block starts the file and its trailer ends where the
    // filter block starts; a data region shorter than one block size
    // means the builder never cut a second block.
    let footer = Footer::decode(&pristine[pristine.len() - FOOTER_SIZE..]).unwrap();
    let block_end = footer.filter_handle.offset as usize;
    assert!(
        block_end - BLOCK_TRAILER_SIZE < BLOCK_SIZE,
        "one data block"
    );

    // Once without a block cache and once with one. A block that fails
    // its CRC is never cached, so asking for it again fails again, and
    // the cache never charges for it. Each flipped table gets its own
    // number, as a rewritten file would.
    for cache in [None, Some(Arc::new(BlockCache::new(1 << 20)))] {
        let open = |bytes: &[u8], number: u64| {
            env.write(path, bytes).unwrap();
            Table::open(&env, path, number, 10, cache.clone()).unwrap()
        };

        let table = open(&pristine, 0);
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(
                table.get(key, u64::MAX >> 1).unwrap(),
                Some((i as u64 + 1, ValueKind::Put, value(i))),
                "unflipped table, key {i}"
            );
        }
        if let Some(cache) = &cache {
            cache.evict_table(0);
        }

        for bit in 0..block_end * 8 {
            let mut bytes = pristine.clone();
            bytes[bit / 8] ^= 1 << (bit % 8);
            let table = open(&bytes, bit as u64 + 1);
            // Every key is in the filter and the index, so the lookup
            // reaches the damaged block whichever key asks.
            let key = &keys[bit % keys.len()];
            for ask in ["first", "second"] {
                match table.get(key, u64::MAX >> 1) {
                    Err(e) => assert_eq!(e.kind(), ErrorKind::Corruption, "bit {bit}: {e}"),
                    Ok(found) => {
                        panic!("bit {bit} flipped, {ask} lookup returned Ok({found:?})")
                    }
                }
            }
            if let Some(cache) = &cache {
                assert_eq!(
                    cache.used_bytes(),
                    0,
                    "bit {bit}: a damaged block was cached"
                );
            }
        }
    }
}

/// The footer carries no checksum and the index block's CRC covers only
/// what was written: an index that names a block past the block region
/// fails the open, not just a get of that block.
#[test]
fn an_index_handle_past_the_block_region_fails_the_open() {
    let env = FaultEnv::new(0x1d8);
    let path = Path::new("/checksums/000005.sst");
    let (pristine, entries) = small_table(&env, path, 24, 80, 1024);
    let footer = Footer::decode(&pristine[pristine.len() - FOOTER_SIZE..]).unwrap();
    let index_at = footer.index_handle.offset;
    let reopened = |bytes: &[u8]| {
        env.write(path, bytes).unwrap();
        Table::open(&env, path, 5, 10, None)
    };

    // Rebuild the index with one entry naming `handle`, re-sealed so
    // its CRC holds, behind a footer that points at it.
    let with_handle = |handle: BlockHandle| {
        let mut bytes = pristine[..index_at as usize].to_vec();
        let mut index = BlockBuilder::new(1);
        let last = &entries[entries.len() - 1];
        let mut encoded = Vec::new();
        handle.encode_to(&mut encoded);
        index.add(
            InternalKey::new(&last.0, last.1, last.2).encoded(),
            &encoded,
        );
        let contents = index.finish();
        let sealed = crc::extend(crc::extend(0, &contents), &[0]);
        let index_handle = BlockHandle {
            offset: index_at,
            size: contents.len() as u64,
        };
        bytes.extend_from_slice(&contents);
        bytes.push(0);
        bytes.extend_from_slice(&crc::mask(sealed).to_le_bytes());
        bytes.extend_from_slice(
            &Footer {
                filter_handle: footer.filter_handle,
                index_handle,
            }
            .encode(),
        );
        reopened(&bytes)
    };

    with_handle(BlockHandle {
        offset: 0,
        size: 100,
    })
    .expect("a handle inside the block region opens");
    for past in [
        // Starts inside the region and runs past its end.
        BlockHandle {
            offset: index_at,
            size: 1 << 20,
        },
        // Starts past the end of the file.
        BlockHandle {
            offset: 1 << 40,
            size: 10,
        },
        // Wraps around when its end is computed.
        BlockHandle {
            offset: u64::MAX - 2,
            size: 10,
        },
    ] {
        match with_handle(past) {
            Err(e) => assert_eq!(e.kind(), ErrorKind::Corruption, "{past:?}: {e}"),
            Ok(_) => panic!("index handle {past:?} past the block region opened"),
        }
    }
}

/// The flush and compaction writer, fed a fixed stream, produces tables
/// whose length and CRC32C were recorded before the builder stopped
/// allocating per entry: the on-disk format is unchanged, so stores
/// written earlier open as they are.
#[test]
fn tables_are_byte_identical_to_the_recorded_format() {
    let env = FaultEnv::new(0x901d);
    let dir = Path::new("/golden");
    env.create_dir_all(dir).unwrap();
    let opts = StoreOptions {
        env: Arc::new(env.clone()),
        table_file_size: 256 * 1024,
        ..StoreOptions::default()
    };
    let mut entries = Vec::new();
    for i in 0..3000u64 {
        let key = format!("golden.{:05}", i * 7 % 3001).into_bytes();
        let versions = 1 + i % 3;
        for v in 0..versions {
            let ts = 10_000 - v * 1000 + i;
            let kind = if (i + v) % 11 == 0 {
                ValueKind::Delete
            } else {
                ValueKind::Put
            };
            let value = match kind {
                ValueKind::Delete => Vec::new(),
                ValueKind::Put => (0..(i * 13 + v) % 300).map(|j| (i + j) as u8).collect(),
            };
            entries.push((key.clone(), ts, kind, value));
        }
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    let mut it = VecIterator::new(entries);
    it.seek_to_first();
    let mut next_number = 0u64;
    let files = write_merged_tables(&mut it, dir, &opts, 1, 9_500, true, &mut || {
        next_number += 1;
        next_number
    })
    .unwrap();
    let got: Vec<(u64, u64, u32)> = files
        .iter()
        .map(|f| {
            let bytes = env.read(&dir.join(format!("{:06}.sst", f.number))).unwrap();
            assert_eq!(bytes.len() as u64, f.file_size);
            (f.number, f.file_size, crc::extend(0, &bytes))
        })
        .collect();
    assert_eq!(got, GOLDEN_TABLES);
}

#[test]
fn every_single_bit_flip_in_the_data_region_fails_the_one_pass_reader() {
    let env = FaultEnv::new(0x3b1);
    let path = Path::new("/checksums/000002.sst");
    let block_size = 1024;
    let (pristine, entries) = small_table(&env, path, 24, 80, block_size);
    assert_eq!(data_blocks(&pristine), 3, "three data blocks");
    let footer = Footer::decode(&pristine[pristine.len() - FOOTER_SIZE..]).unwrap();
    let data_end = footer.filter_handle.offset as usize;

    let open = |bytes: &[u8]| {
        env.write(path, bytes).unwrap();
        Table::open(&env, path, 2, 10, None).unwrap()
    };
    let (read, status) = read_one_pass(open(&pristine));
    status.unwrap();
    assert_eq!(read, entries, "unflipped table");

    for bit in 0..data_end * 8 {
        let mut bytes = pristine.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        match read_one_pass(open(&bytes)).1 {
            Err(e) => assert_eq!(e.kind(), ErrorKind::Corruption, "bit {bit}: {e}"),
            Ok(()) => panic!("bit {bit} flipped, the one-pass reader ended Ok"),
        }
    }
}

#[test]
fn every_single_bit_flip_in_the_footer_reads_correctly_or_is_corruption() {
    let env = FaultEnv::new(0xf007);
    let path = Path::new("/checksums/000003.sst");
    let (pristine, entries) = small_table(&env, path, 24, 80, 1024);
    let footer_start = pristine.len() - FOOTER_SIZE;
    let mut intact = 0;
    for bit in 0..FOOTER_SIZE * 8 {
        let mut bytes = pristine.clone();
        bytes[footer_start + bit / 8] ^= 1 << (bit % 8);
        env.write(path, &bytes).unwrap();
        let table = match Table::open(&env, path, 3, 10, None) {
            Err(e) => {
                assert_eq!(e.kind(), ErrorKind::Corruption, "bit {bit}: {e}");
                continue;
            }
            Ok(table) => table,
        };
        for (key, ts, kind, v) in &entries {
            assert_eq!(
                table.get(key, u64::MAX >> 1).unwrap(),
                Some((*ts, *kind, v.clone())),
                "bit {bit}"
            );
        }
        let (read, status) = read_one_pass(table);
        status.unwrap();
        assert_eq!(read, entries, "bit {bit}");
        intact += 1;
    }
    // Flips in the padding between the handles and the magic are
    // harmless; flips in a handle or the magic are caught.
    assert!(
        intact > 0 && intact < FOOTER_SIZE * 8,
        "{intact} flips read intact"
    );
}

#[test]
fn a_truncated_table_is_corruption() {
    let env = FaultEnv::new(0x7c);
    let path = Path::new("/checksums/000004.sst");
    let (pristine, _) = small_table(&env, path, 24, 80, 1024);
    let len = pristine.len();
    for keep in [
        0,
        1,
        FOOTER_SIZE - 1,
        FOOTER_SIZE,
        len / 3,
        len / 2,
        len - FOOTER_SIZE,
        len - 8,
        len - 1,
    ] {
        env.write(path, &pristine[..keep]).unwrap();
        match Table::open(&env, path, 4, 10, None) {
            Err(e) => assert_eq!(e.kind(), ErrorKind::Corruption, "kept {keep} of {len}: {e}"),
            Ok(_) => panic!("kept {keep} of {len} bytes, the table opened"),
        }
    }
}

#[test]
fn a_short_key_in_a_checksummed_block_is_corruption() {
    let env = FaultEnv::new(0x5e7);
    let dir = Path::new("/short-key");
    let opts = StoreOptions {
        env: Arc::new(env.clone()),
        ..StoreOptions::default()
    };
    let (store, _) = Store::open(dir, opts).unwrap();
    let wal = store.rotate_wal().unwrap();
    let mut it = VecIterator::new(vec![(b"k".to_vec(), 1, ValueKind::Put, vec![7; 20])]);
    store.flush_memtable(&mut it, 0, 1, wal).unwrap();
    let number = store.current_version().levels[0][0].number;
    let path = dir.join(format!("{number:06}.sst"));

    // The one data block starts the file: shared 0, key length 9
    // ("k" + an 8-byte tag), value length 20. Re-split the same bytes
    // into a 3-byte key and a 26-byte value, and re-seal the block.
    let mut bytes = env.read(&path).unwrap();
    assert_eq!(bytes[..3], [0, 9, 20]);
    bytes[1] = 3;
    bytes[2] = 26;
    let footer = Footer::decode(&bytes[bytes.len() - FOOTER_SIZE..]).unwrap();
    let data_len = footer.filter_handle.offset as usize - BLOCK_TRAILER_SIZE;
    let sealed = crc::extend(crc::extend(0, &bytes[..data_len]), &[0]);
    bytes[data_len + 1..data_len + BLOCK_TRAILER_SIZE]
        .copy_from_slice(&crc::mask(sealed).to_le_bytes());
    env.write(&path, &bytes).unwrap();

    let table = Arc::new(Table::open(&env, &path, number, 10, None).unwrap());
    let err = table.get(b"k", u64::MAX >> 1).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Corruption, "get: {err}");

    let mut walk = table.iter();
    walk.seek_to_first();
    while walk.valid() {
        let _ = (walk.user_key(), walk.ts(), walk.kind());
        walk.next();
    }
    let err = walk.status().unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Corruption, "iter: {err}");

    let err = store.verify_integrity().unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Corruption, "verify_integrity: {err}");

    // Moved to L1, the table is read through a level iterator.
    store.compact_level_range(0, b"", b"\xff", 1).unwrap();
    assert_eq!(store.level_file_counts()[..2], [0, 1]);
    let mut iters = store.iterators().unwrap();
    assert_eq!(iters.len(), 1);
    let level = &mut iters[0];
    level.seek_to_first();
    while level.valid() {
        let _ = (level.user_key(), level.ts(), level.kind());
        level.next();
    }
    let err = level.status().unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Corruption, "level scan: {err}");
}
