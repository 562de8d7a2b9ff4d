//! The block cache.
//!
//! The disk component "utilizes a large RAM cache" (§2.3): most reads
//! that reach the disk component in a workload with locality are served
//! from this cache of parsed blocks keyed by `(table number, block
//! offset)`. It is sixteen CLOCK shards, and a block's shard comes from
//! a mix of both halves of its key, so the blocks of one table spread
//! over every shard.
//!
//! A hit costs a shared `try_read` of its shard, one map probe, a
//! relaxed store of the slot's reference bit and an `Arc` clone: no
//! list relink, and the hit and miss counters sit on the shard's own
//! cache line. An insert sweeps the shard's hand past referenced slots
//! (clearing their bits) to the first unreferenced one, and drops the
//! victims after it unlocks. A get never waits on the cache: a shard
//! that is busy is a miss, and the block read from the file then skips
//! its insert if the shard is still busy.
//!
//! The block cache serves gets and scans only ([`Table::get`],
//! [`Table::iter`]). One-pass readers — compaction inputs and
//! `Store::verify_integrity` — bypass it: they read each table front to
//! back in large checksummed chunks ([`Table::one_pass_iter`]) and
//! neither look blocks up nor insert them. A compaction's inputs are
//! deleted when it commits, so caching their blocks would only evict
//! the blocks gets still need (LevelDB's `fill_cache = false`).
//!
//! [`Table::get`]: crate::sstable::Table::get
//! [`Table::iter`]: crate::sstable::Table::iter
//! [`Table::one_pass_iter`]: crate::sstable::Table::one_pass_iter

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::sstable::Block;

/// Number of independent CLOCK shards.
const SHARDS: usize = 16;

/// Bytes charged for a cached block beyond its contents: its slot, its
/// map entry and the `Arc` header.
const ENTRY_OVERHEAD: usize = 64;

/// `(table number, block offset)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheKey {
    table: u64,
    offset: u64,
}

impl CacheKey {
    /// A 64-bit mix of both halves. Block offsets are multiples of the
    /// block size, so neither half alone spreads keys.
    fn mix(self) -> u64 {
        let mut h = self.table.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.offset;
        h ^= h >> 32;
        h = h.wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^ (h >> 32)
    }

    fn shard(self) -> usize {
        // Bits the map's bucket index (low) and tag (top) do not use.
        (self.mix() >> 32) as usize % SHARDS
    }
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.mix());
    }
}

/// Passes [`CacheKey::mix`] through: the key is already mixed, so the
/// map needs no SipHash. Keys are the store's own table numbers and
/// offsets, never input from outside, so nothing can pick colliding
/// keys.
#[derive(Default)]
struct MixHasher(u64);

impl Hasher for MixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a CacheKey hashes as one u64");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// A sharded CLOCK cache of parsed blocks, bounded in bytes.
pub struct BlockCache {
    shards: Box<[Shard]>,
}

/// One shard and its counters, on cache lines of their own.
#[repr(align(64))]
struct Shard {
    clock: RwLock<Clock>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BlockCache {
    /// Creates a cache with a total `capacity_bytes` budget.
    pub fn new(capacity_bytes: usize) -> Self {
        let per_shard = (capacity_bytes / SHARDS).max(1);
        BlockCache {
            shards: (0..SHARDS)
                .map(|_| Shard {
                    clock: RwLock::new(Clock::new(per_shard)),
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    fn shard(&self, key: CacheKey) -> &Shard {
        &self.shards[key.shard()]
    }

    /// Looks up a block and marks it referenced. A shard that is being
    /// written to is not waited for: the lookup is a miss.
    pub fn get(&self, table: u64, offset: u64) -> Option<Arc<Block>> {
        let key = CacheKey { table, offset };
        let shard = self.shard(key);
        let found = shard.clock.try_read().and_then(|clock| clock.get(key));
        match &found {
            Some(_) => shard.hits.fetch_add(1, Ordering::Relaxed),
            None => shard.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts a block, evicting unreferenced blocks past the byte
    /// budget. Waits for the shard if it is busy.
    pub fn insert(&self, table: u64, offset: u64, block: Arc<Block>) {
        let key = CacheKey { table, offset };
        let victims = self.shard(key).clock.write().insert(key, block);
        drop(victims);
    }

    /// [`BlockCache::insert`] for a get that has just read the block:
    /// a busy shard skips the insert instead of waiting for it.
    pub(crate) fn try_insert(&self, table: u64, offset: u64, block: Arc<Block>) {
        let key = CacheKey { table, offset };
        let victims = self
            .shard(key)
            .clock
            .try_write()
            .map(|mut clock| clock.insert(key, block));
        drop(victims);
    }

    /// Drops every cached block belonging to `table` (called when the
    /// file is deleted after a compaction).
    pub fn evict_table(&self, table: u64) {
        for shard in self.shards.iter() {
            let victims = shard.clock.write().remove_table(table);
            drop(victims);
        }
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), shard| {
            (
                h + shard.hits.load(Ordering::Relaxed),
                m + shard.misses.load(Ordering::Relaxed),
            )
        })
    }

    /// Total bytes currently charged.
    pub fn used_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.clock.read().used).sum()
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (h, m) = self.stats();
        f.debug_struct("BlockCache")
            .field("hits", &h)
            .field("misses", &m)
            .finish()
    }
}

/// One CLOCK shard: a map from key to slot, and a hand that sweeps the
/// slots in a circle.
struct Clock {
    capacity: usize,
    used: usize,
    map: HashMap<CacheKey, usize, BuildHasherDefault<MixHasher>>,
    slots: Vec<Slot>,
    /// Empty slots. The last one freed is the one the hand passed last,
    /// so a block put there waits a whole turn of the hand.
    free: Vec<usize>,
    hand: usize,
}

struct Slot {
    key: CacheKey,
    /// `None` while the slot is free.
    block: Option<Arc<Block>>,
    charge: usize,
    /// Set by every hit; the hand clears it, and takes the slot only
    /// if it is still clear the next time round. `Relaxed`: the bit
    /// publishes nothing, and a hit the hand misses only costs the
    /// block its second chance.
    referenced: AtomicBool,
}

impl Clock {
    fn new(capacity: usize) -> Self {
        Clock {
            capacity,
            used: 0,
            map: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            hand: 0,
        }
    }

    fn get(&self, key: CacheKey) -> Option<Arc<Block>> {
        let slot = &self.slots[*self.map.get(&key)?];
        slot.referenced.store(true, Ordering::Relaxed);
        slot.block.clone()
    }

    /// Inserts or replaces `key`'s block and returns the blocks it
    /// evicted, for the caller to drop once the shard is unlocked. A
    /// block larger than the whole shard is not kept.
    fn insert(&mut self, key: CacheKey, block: Arc<Block>) -> Vec<Arc<Block>> {
        let charge = block.size() + ENTRY_OVERHEAD;
        let mut victims = Vec::new();
        if let Some(&i) = self.map.get(&key) {
            let slot = &mut self.slots[i];
            self.used = self.used - slot.charge + charge;
            slot.charge = charge;
            *slot.referenced.get_mut() = true;
            victims.extend(slot.block.replace(block));
            self.evict_past(self.capacity, &mut victims);
            return victims;
        }
        if charge > self.capacity {
            victims.push(block);
            return victims;
        }
        self.evict_past(self.capacity - charge, &mut victims);
        let slot = Slot {
            key,
            block: Some(block),
            charge,
            referenced: AtomicBool::new(false),
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slots[i] = slot;
                i
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, i);
        self.used += charge;
        victims
    }

    /// Sweeps the hand until at most `budget` bytes are charged. Each
    /// occupied slot is passed over at most once with its bit set, so
    /// the sweep ends within two turns.
    fn evict_past(&mut self, budget: usize, victims: &mut Vec<Arc<Block>>) {
        while self.used > budget {
            let i = self.hand;
            self.hand = (i + 1) % self.slots.len();
            let slot = &mut self.slots[i];
            if slot.block.is_some() && !std::mem::take(slot.referenced.get_mut()) {
                victims.extend(self.free_slot(i));
            }
        }
    }

    fn free_slot(&mut self, i: usize) -> Option<Arc<Block>> {
        let slot = &mut self.slots[i];
        self.map.remove(&slot.key);
        self.used -= slot.charge;
        self.free.push(i);
        slot.block.take()
    }

    fn remove_table(&mut self, table: u64) -> Vec<Arc<Block>> {
        let doomed: Vec<usize> = self
            .map
            .iter()
            .filter(|(key, _)| key.table == table)
            .map(|(_, &i)| i)
            .collect();
        doomed
            .into_iter()
            .filter_map(|i| self.free_slot(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::time::{Duration, Instant};

    use clsm_util::env::{Env, FaultEnv};

    use crate::format::{InternalKey, ValueKind};
    use crate::sstable::{Table, TableBuilder};

    fn block_of_size(n: usize) -> Arc<Block> {
        // Payload followed by a minimal trailer (0 restarts).
        let mut data = vec![0u8; n.saturating_sub(4)];
        data.extend_from_slice(&0u32.to_le_bytes());
        Arc::new(Block::parse(data).unwrap())
    }

    /// `n` offsets of table `table`, 4 KiB apart, whose blocks land in
    /// shard `shard`.
    fn offsets_in_shard(table: u64, shard: usize, n: usize) -> Vec<u64> {
        (0..)
            .map(|i| i * 4096)
            .filter(|&offset| CacheKey { table, offset }.shard() == shard)
            .take(n)
            .collect()
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = BlockCache::new(1 << 20);
        assert!(cache.get(1, 0).is_none());
        cache.insert(1, 0, block_of_size(100));
        assert!(cache.get(1, 0).is_some());
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn usage_stays_within_budget() {
        let cache = BlockCache::new(SHARDS * 1000);
        for i in 0..100u64 {
            cache.insert(7, i * 4096, block_of_size(500));
        }
        assert!(cache.used_bytes() <= SHARDS * 1000);
        // Freshly inserted block is present.
        cache.insert(7, 1000 * 4096, block_of_size(500));
        assert!(cache.get(7, 1000 * 4096).is_some());
    }

    #[test]
    fn reinsert_updates_charge() {
        let cache = BlockCache::new(1 << 20);
        cache.insert(1, 0, block_of_size(100));
        let used_small = cache.used_bytes();
        cache.insert(1, 0, block_of_size(10_000));
        let used_big = cache.used_bytes();
        assert!(used_big > used_small);
        cache.insert(1, 0, block_of_size(100));
        assert_eq!(cache.used_bytes(), used_small);
    }

    #[test]
    fn a_block_larger_than_its_shard_is_not_kept() {
        let cache = BlockCache::new(SHARDS * 1000);
        cache.insert(1, 0, block_of_size(2000));
        assert!(cache.get(1, 0).is_none());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn evict_table_removes_all_blocks() {
        let cache = BlockCache::new(1 << 20);
        for i in 0..10u64 {
            cache.insert(3, i * 4096, block_of_size(100));
            cache.insert(4, i * 4096, block_of_size(100));
        }
        cache.evict_table(3);
        for i in 0..10u64 {
            assert!(cache.get(3, i * 4096).is_none());
            assert!(cache.get(4, i * 4096).is_some());
        }
        assert_eq!(cache.used_bytes(), 10 * (100 + ENTRY_OVERHEAD));
    }

    #[test]
    fn recency_protects_hot_entries() {
        // Budget fits ~4 entries per shard; hammer one key and verify
        // it survives a stream of cold inserts mapping to all shards.
        let cache = BlockCache::new(SHARDS * 2048);
        cache.insert(9, 42, block_of_size(400));
        for i in 0..200u64 {
            cache.insert(1, i * 4096, block_of_size(400));
            assert!(cache.get(9, 42).is_some(), "hot entry evicted at i={i}");
        }
    }

    #[test]
    fn the_blocks_of_one_table_spread_over_every_shard() {
        // A 2 MiB table of 4 KiB blocks.
        let blocks = 512u64;
        let mut per_shard = [0usize; SHARDS];
        for i in 0..blocks {
            per_shard[CacheKey {
                table: 5,
                offset: i * 4096,
            }
            .shard()] += 1;
        }
        let mean = blocks as usize / SHARDS;
        assert!(
            per_shard.iter().all(|&n| n > 0 && n <= 2 * mean),
            "blocks per shard {per_shard:?}"
        );
    }

    #[test]
    fn a_block_hit_since_the_hand_passed_survives_the_sweep() {
        // Three blocks fill a shard; a fourth evicts one of them.
        let charge = 1000 + ENTRY_OVERHEAD;
        let cache = BlockCache::new(SHARDS * 3 * charge);
        let offsets = offsets_in_shard(2, 0, 4);
        for &offset in &offsets[..3] {
            cache.insert(2, offset, block_of_size(1000));
        }
        assert!(cache.get(2, offsets[0]).is_some());
        cache.insert(2, offsets[3], block_of_size(1000));
        assert!(cache.get(2, offsets[0]).is_some(), "the hit block survives");
        assert!(cache.get(2, offsets[1]).is_none(), "the next one goes");
        assert!(cache.get(2, offsets[2]).is_some());
        assert!(cache.get(2, offsets[3]).is_some());
        assert_eq!(cache.used_bytes(), 3 * charge);
    }

    #[test]
    fn a_get_on_a_busy_shard_misses_and_reads_the_file() {
        let env = FaultEnv::new(0xcace);
        let path = Path::new("/cache/000009.sst");
        let mut builder = TableBuilder::new(env.open_write(path).unwrap(), 4096, 10);
        builder
            .add(InternalKey::new(b"k", 3, ValueKind::Put).encoded(), b"v")
            .unwrap();
        builder.finish().unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let table = Table::open(&env, path, 9, 10, Some(Arc::clone(&cache))).unwrap();

        // The table's one data block starts the file.
        let held = cache
            .shard(CacheKey {
                table: 9,
                offset: 0,
            })
            .clock
            .write();
        let (sent, got) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let began = Instant::now();
                let cached = cache.get(9, 0);
                let read = table.get(b"k", 10);
                sent.send((cached.is_none(), read, began.elapsed()))
                    .unwrap();
            });
            let (missed, read, took) = got
                .recv_timeout(Duration::from_secs(10))
                .expect("a get waited for the busy shard");
            assert!(missed, "a busy shard is a miss");
            assert_eq!(read.unwrap(), Some((3, ValueKind::Put, b"v".to_vec())));
            assert!(took < Duration::from_millis(10), "took {took:?}");
            drop(held);
        });
        assert_eq!(cache.stats(), (0, 2));
        assert_eq!(cache.used_bytes(), 0, "the get skipped its insert");
        assert!(table.get(b"k", 10).unwrap().is_some());
        assert!(cache.used_bytes() > 0, "a free shard takes the insert");
    }
}
