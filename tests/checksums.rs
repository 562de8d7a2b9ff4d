//! Every table block is checksummed on read: flipping any single bit of
//! a data block — its contents, its compression-type byte or its stored
//! CRC — makes a point lookup fail with a corruption error, never a
//! wrong answer and never a panic.

use std::path::Path;

use clsm_repro::storage::format::InternalKey;
use clsm_repro::storage::sstable::{Footer, Table, TableBuilder, BLOCK_TRAILER_SIZE, FOOTER_SIZE};
use clsm_repro::storage::ValueKind;
use clsm_repro::util::env::{Env, FaultEnv};
use clsm_repro::util::error::ErrorKind;

const BLOCK_SIZE: usize = 4096;

fn value(i: usize) -> Vec<u8> {
    (0..24).map(|j| (i * 31 + j * 7) as u8).collect()
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

    let open = |bytes: &[u8]| {
        env.write(path, bytes).unwrap();
        Table::open(&env, path, 1, 10, None).unwrap()
    };

    let table = open(&pristine);
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(
            table.get(key, u64::MAX >> 1).unwrap(),
            Some((i as u64 + 1, ValueKind::Put, value(i))),
            "unflipped table, key {i}"
        );
    }

    for bit in 0..block_end * 8 {
        let mut bytes = pristine.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        let table = open(&bytes);
        // Every key is in the filter and the index, so the lookup
        // reaches the damaged block whichever key asks.
        let key = &keys[bit % keys.len()];
        match table.get(key, u64::MAX >> 1) {
            Err(e) => assert_eq!(e.kind(), ErrorKind::Corruption, "bit {bit}: {e}"),
            Ok(found) => panic!("bit {bit} flipped, lookup returned Ok({found:?})"),
        }
    }
}
