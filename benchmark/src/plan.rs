//! The four workloads and the block list a run executes.
//!
//! A plan is a fixed list of blocks — set-up chunks, then rounds of
//! `[put, get, scan, srd]`, then one reopen — made once per run from the seed
//! and executed unchanged by every pass. While it is generated, an in-harness
//! model of the store is advanced op by op, so each block carries the digest
//! its results must produce ([`Expect`]); nothing about checking happens
//! inside a timed block except summing what the engine returned.

use lethe_workload::{Operation, WorkloadGenerator, WorkloadSpec, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Entries per 4 KiB page and bytes per entry (25 B header + 4 B length +
/// 99 B value): the common page geometry of every workload.
pub const ENTRIES_PER_PAGE: usize = 32;
pub const ENTRY_BYTES: usize = 128;
pub const VALUE_BYTES: usize = ENTRY_BYTES - 29;
/// Write-buffer size in pages.
pub const BUFFER_PAGES: usize = 64;
/// Entries per second of logical time; the engine advances its logical clock
/// by `1/I` per ingested entry, so `D_th` is a number of writes, not wall time.
pub const INGESTION_RATE: u64 = 4096;
/// Puts per set-up chunk.
const SETUP_CHUNK: usize = 10_000;
/// Keys swept against the model after the reopen.
pub const SWEEP_KEYS: usize = 10_000;

/// Block-cache size of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cache {
    None,
    /// A fraction of the preloaded page bytes (smaller than the data).
    FractionOfData(f64),
    /// A fixed budget in bytes (larger than the data).
    Bytes(usize),
}

/// How a get block picks the keys it expects to find.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GetKeys {
    /// Uniform over the live key range.
    Uniform,
    /// Zipfian ranks hashed over the preloaded keys.
    Zipf(f64),
}

/// What a put block writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Writes {
    /// `lethe_workload`'s mix: 85 % puts, 10 % point deletes, 5 % short
    /// range deletes over the preloaded key range.
    Mixed,
    /// Fresh keys in time order (sort key and delete key both grow).
    Append,
}

/// One workload: engine knobs plus per-round block sizes at full scale.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
    /// Delete-tile granularity `h`.
    pub tile_pages: usize,
    /// Delete persistence threshold in seconds of logical time.
    pub dth_secs: f64,
    pub cache: Cache,
    pub preload: usize,
    pub writes: Writes,
    pub put_ops: usize,
    pub get_ops: usize,
    pub get_absent: f64,
    pub get_keys: GetKeys,
    pub scans: usize,
    pub scan_keys: u64,
    /// Secondary range deletes per round and delete-key ticks each purges.
    pub srds: usize,
    pub srd_ticks: u64,
}

/// Counted rounds per run; round 0 runs first and is not counted.
pub const ROUNDS: usize = 12;

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "ingest_fade",
        why: "write-heavy with point and range deletes under a 10 s D_th: memtable, WAL, flush, merge, table build, manifest and FADE's TTL trigger do the work; read layers do little",
        tile_pages: 4,
        dth_secs: 10.0,
        cache: Cache::None,
        preload: 100_000,
        writes: Writes::Mixed,
        put_ops: 6_000,
        get_ops: 8_000,
        get_absent: 0.25,
        get_keys: GetKeys::Uniform,
        scans: 28,
        scan_keys: 8_000,
        srds: 160,
        srd_ticks: 40,
    },
    WorkloadDef {
        name: "read_spill",
        why: "uniform gets (half absent) and scans over data 8x the block cache: Bloom, fence, pread, page decode and CLOCK eviction do the work; the write path does little",
        tile_pages: 1,
        dth_secs: 3600.0,
        cache: Cache::FractionOfData(0.125),
        preload: 120_000,
        writes: Writes::Mixed,
        put_ops: 5_000,
        get_ops: 30_000,
        get_absent: 0.5,
        get_keys: GetKeys::Uniform,
        scans: 24,
        scan_keys: 8_000,
        srds: 10,
        srd_ticks: 100,
    },
    WorkloadDef {
        name: "read_hot",
        why: "the read_spill store with Zipf 0.99 gets and a cache twice the data: device read and decode are bypassed, so only cache lookup and instrumentation overhead show",
        tile_pages: 1,
        dth_secs: 3600.0,
        cache: Cache::Bytes(64 << 20),
        preload: 120_000,
        writes: Writes::Mixed,
        put_ops: 5_000,
        get_ops: 40_000,
        get_absent: 0.1,
        get_keys: GetKeys::Zipf(0.99),
        scans: 24,
        scan_keys: 8_000,
        srds: 10,
        srd_ticks: 100,
    },
    WorkloadDef {
        name: "purge_window",
        why: "streaming window with h = 8: each round appends time-ordered entries and purges the oldest by delete key, so KiWi page drops do the work and the scans beside them pay for the larger tile",
        tile_pages: 8,
        dth_secs: 3600.0,
        cache: Cache::None,
        preload: 120_000,
        writes: Writes::Append,
        put_ops: 16_320,
        get_ops: 6_000,
        get_absent: 0.25,
        get_keys: GetKeys::Uniform,
        scans: 24,
        scan_keys: 8_000,
        srds: 340,
        srd_ticks: 48,
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl WorkloadDef {
    /// The same workload with every size multiplied by `scale` (the smoke
    /// tests run at 1/20). Page geometry and engine knobs do not scale.
    pub fn scaled(&self, scale: f64) -> WorkloadDef {
        let s = |n: usize| ((n as f64 * scale).round() as usize).max(1);
        WorkloadDef {
            preload: s(self.preload).max(ENTRIES_PER_PAGE * BUFFER_PAGES * 2),
            put_ops: s(self.put_ops),
            get_ops: s(self.get_ops),
            scan_keys: s(self.scan_keys as usize) as u64,
            srd_ticks: s(self.srd_ticks as usize) as u64,
            ..self.clone()
        }
    }

    pub fn cache_bytes(&self) -> usize {
        match self.cache {
            Cache::None => 0,
            Cache::FractionOfData(f) => (self.preload as f64 * ENTRY_BYTES as f64 * f) as usize,
            Cache::Bytes(b) => b,
        }
    }
}

/// One engine call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `put(key, delete_key = tick, value stamped with tick)`.
    Put {
        key: u64,
        tick: u64,
    },
    Delete {
        key: u64,
    },
    DeleteRange {
        lo: u64,
        hi: u64,
    },
    Get {
        key: u64,
    },
    Scan {
        lo: u64,
        hi: u64,
    },
    /// `delete_where_delete_key_in(lo, hi)`.
    Srd {
        lo: u64,
        hi: u64,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BlockKind {
    /// A chunk of preload puts; the first also opens the store, the last
    /// also calls `persist()`.
    Setup,
    Put,
    Get,
    Scan,
    Srd,
    /// Drop the engine and open the directory again.
    Reopen,
}

impl BlockKind {
    /// Ops per timed slice of a block of this kind. The minimum over passes
    /// is taken per slice, and the shorter the slice, the likelier that one
    /// of the passes ran it undisturbed; 16 puts or gets are some twenty
    /// microseconds, against which the two clock reads of a slice are
    /// nothing. A scan or a secondary delete is a slice by itself.
    pub fn slice_ops(&self) -> usize {
        match self {
            BlockKind::Setup | BlockKind::Put | BlockKind::Get => 16,
            BlockKind::Scan | BlockKind::Srd | BlockKind::Reopen => 1,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            BlockKind::Setup => "setup",
            BlockKind::Put => "put",
            BlockKind::Get => "get",
            BlockKind::Scan => "scan",
            BlockKind::Srd => "srd",
            BlockKind::Reopen => "reopen",
        }
    }
}

/// The digest a block's results must produce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expect {
    /// Gets that return a value.
    pub hits: u64,
    /// Entries yielded by scans.
    pub entries: u64,
    /// Wrapping sum of the 8-byte stamp in every value returned.
    pub stamp_sum: u64,
    /// Bounds on the summed `entries_deleted` of the block's secondary
    /// deletes. The engine counts on-disk removals only, stale versions
    /// included, so the model gives a range: at most every version ever
    /// written into the purged ticks, and — when the purged ticks are known
    /// to be flushed and never overwritten (`purge_window`) — exactly the
    /// live ones.
    pub srd_deleted_min: u64,
    pub srd_deleted_max: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    pub kind: BlockKind,
    /// Round index (set-up chunk index for set-up blocks).
    pub round: usize,
    /// False for round 0, which fills caches and finishes lazy set-up.
    pub counted: bool,
    pub ops: Vec<Op>,
    pub expect: Expect,
}

/// The harness's model of the store: the live version of every key.
#[derive(Debug, Clone, Default)]
pub struct Model {
    /// key → tick of the live version.
    live: BTreeMap<u64, u64>,
    /// tick → key, live versions only (what a secondary delete removes).
    by_tick: BTreeMap<u64, u64>,
}

impl Model {
    pub fn put(&mut self, key: u64, tick: u64) {
        if let Some(old) = self.live.insert(key, tick) {
            self.by_tick.remove(&old);
        }
        self.by_tick.insert(tick, key);
    }

    pub fn delete(&mut self, key: u64) {
        if let Some(old) = self.live.remove(&key) {
            self.by_tick.remove(&old);
        }
    }

    pub fn delete_range(&mut self, lo: u64, hi: u64) {
        let doomed: Vec<(u64, u64)> = self.live.range(lo..hi).map(|(k, t)| (*k, *t)).collect();
        for (key, tick) in doomed {
            self.live.remove(&key);
            self.by_tick.remove(&tick);
        }
    }

    /// Removes every live version whose tick is in `[lo, hi)`; returns how many.
    pub fn secondary_delete(&mut self, lo: u64, hi: u64) -> u64 {
        let doomed: Vec<(u64, u64)> = self.by_tick.range(lo..hi).map(|(t, k)| (*t, *k)).collect();
        for (tick, key) in &doomed {
            self.by_tick.remove(tick);
            self.live.remove(key);
        }
        doomed.len() as u64
    }

    pub fn get(&self, key: u64) -> Option<u64> {
        self.live.get(&key).copied()
    }

    /// `(entries, wrapping stamp sum)` of a scan over `[lo, hi)`.
    pub fn scan(&self, lo: u64, hi: u64) -> (u64, u64) {
        self.live
            .range(lo..hi)
            .fold((0, 0u64), |(n, sum), (_, tick)| {
                (n + 1, sum.wrapping_add(*tick))
            })
    }

    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn key_bounds(&self) -> Option<(u64, u64)> {
        Some((*self.live.keys().next()?, *self.live.keys().next_back()?))
    }
}

/// Everything one run executes and checks against.
#[derive(Debug, Clone)]
pub struct Plan {
    pub def: WorkloadDef,
    pub blocks: Vec<Block>,
    /// `(key, expected live tick)` swept after the reopen.
    pub sweep: Vec<(u64, Option<u64>)>,
    /// Live keys in the model after the last block.
    pub live_at_end: u64,
    /// Seconds spent generating the plan (the generator's own cost).
    pub generate_secs: f64,
}

/// Present keys are even, so an odd key is a guaranteed miss whatever the
/// write blocks did.
fn even(key: u64) -> u64 {
    key & !1
}

struct Builder<'a> {
    def: &'a WorkloadDef,
    model: Model,
    rng: StdRng,
    writes: WorkloadGenerator,
    zipf: Option<Zipf>,
    /// Next fresh key of an append workload.
    next_append_key: u64,
    /// Next delete-key tick (the generator's arrival counter for `Mixed`).
    next_tick: u64,
    /// Everything below this tick has been purged by a secondary delete.
    purged_below: u64,
    blocks: Vec<Block>,
}

impl Builder<'_> {
    fn push(&mut self, kind: BlockKind, round: usize, counted: bool, ops: Vec<Op>, expect: Expect) {
        self.blocks.push(Block {
            kind,
            round,
            counted,
            ops,
            expect,
        });
    }

    /// Applies one write to the model and returns the engine op for it.
    fn write_op(&mut self) -> Op {
        match self.def.writes {
            Writes::Append => {
                let key = self.next_append_key;
                self.next_append_key += 2;
                let tick = self.next_tick;
                self.next_tick += 1;
                self.model.put(key, tick);
                Op::Put { key, tick }
            }
            Writes::Mixed => loop {
                match self.writes.next_operation() {
                    Operation::Put { key, delete_key } => {
                        let key = even(key);
                        self.next_tick = delete_key + 1;
                        self.model.put(key, delete_key);
                        break Op::Put {
                            key,
                            tick: delete_key,
                        };
                    }
                    Operation::Delete { key } => {
                        let key = even(key);
                        self.model.delete(key);
                        break Op::Delete { key };
                    }
                    Operation::DeleteRange { start, end } => {
                        self.model.delete_range(start, end);
                        break Op::DeleteRange { lo: start, hi: end };
                    }
                    // the spec below asks for nothing else
                    _ => continue,
                }
            },
        }
    }

    fn get_block(&mut self) -> (Vec<Op>, Expect) {
        let (lo, hi) = self.model.key_bounds().unwrap_or((0, 2));
        let mut expect = Expect::default();
        let ops = (0..self.def.get_ops)
            .map(|_| {
                let key = if self.rng.gen::<f64>() < self.def.get_absent {
                    even(self.rng.gen_range(lo..=hi)) + 1
                } else {
                    match &self.zipf {
                        Some(z) => {
                            let rank = z.sample(&mut self.rng) as u64;
                            2 * (rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.def.preload as u64)
                        }
                        None => even(self.rng.gen_range(lo..=hi)),
                    }
                };
                if let Some(tick) = self.model.get(key) {
                    expect.hits += 1;
                    expect.stamp_sum = expect.stamp_sum.wrapping_add(tick);
                }
                Op::Get { key }
            })
            .collect();
        (ops, expect)
    }

    fn scan_block(&mut self) -> (Vec<Op>, Expect) {
        let (lo, hi) = self.model.key_bounds().unwrap_or((0, 2));
        let mut expect = Expect::default();
        let ops = (0..self.def.scans)
            .map(|_| {
                let last_start = hi.saturating_sub(self.def.scan_keys).max(lo);
                let start = self.rng.gen_range(lo..=last_start);
                let end = start + self.def.scan_keys;
                let (n, sum) = self.model.scan(start, end);
                expect.entries += n;
                expect.stamp_sum = expect.stamp_sum.wrapping_add(sum);
                Op::Scan { lo: start, hi: end }
            })
            .collect();
        (ops, expect)
    }

    /// Retention-style purges: each secondary delete removes the oldest
    /// `srd_ticks` ticks not purged yet, so its range always covers every
    /// older version of any key it removes.
    fn srd_block(&mut self) -> (Vec<Op>, Expect) {
        let mut expect = Expect::default();
        let exact = self.def.writes == Writes::Append;
        let ops = (0..self.def.srds)
            .map(|_| {
                let lo = self.purged_below;
                let hi = (lo + self.def.srd_ticks).min(self.next_tick);
                self.purged_below = hi;
                let live = self.model.secondary_delete(lo, hi);
                expect.srd_deleted_max += hi - lo;
                if exact {
                    expect.srd_deleted_min += live;
                }
                Op::Srd { lo, hi }
            })
            .collect();
        (ops, expect)
    }
}

/// Builds the block list of `def` from `seed`.
pub fn build(def: &WorkloadDef, seed: u64) -> Plan {
    let started = std::time::Instant::now();
    let key_space = 2 * def.preload as u64;
    let spec = WorkloadSpec {
        seed,
        preload_keys: def.preload as u64,
        key_space,
        value_size: VALUE_BYTES,
        update_fraction: 0.85,
        point_lookup_fraction: 0.0,
        point_delete_fraction: 0.10,
        range_delete_fraction: 0.05,
        // 16 keys of the range, half of them present
        range_delete_selectivity: 16.0 / key_space as f64,
        ..WorkloadSpec::default()
    };
    let mut b = Builder {
        def,
        model: Model::default(),
        rng: StdRng::seed_from_u64(seed ^ 0x6C65_7468_655F_6265),
        writes: WorkloadGenerator::new(spec),
        zipf: match def.get_keys {
            GetKeys::Zipf(theta) => Some(Zipf::new(def.preload, theta)),
            GetKeys::Uniform => None,
        },
        next_append_key: key_space,
        next_tick: 1,
        purged_below: 1,
        blocks: Vec::new(),
    };

    // set-up: the generator's preload (every even key once, ticks 1..=N)
    let preload: Vec<Op> = b
        .writes
        .preload()
        .into_iter()
        .filter_map(|op| match op {
            Operation::Put { key, delete_key } => Some(Op::Put {
                key,
                tick: delete_key,
            }),
            _ => None,
        })
        .collect();
    for op in &preload {
        if let Op::Put { key, tick } = op {
            b.model.put(*key, *tick);
            b.next_tick = tick + 1;
        }
    }
    for (i, chunk) in preload.chunks(SETUP_CHUNK).enumerate() {
        b.push(BlockKind::Setup, i, true, chunk.to_vec(), Expect::default());
    }

    for round in 0..=ROUNDS {
        let counted = round > 0;
        let puts: Vec<Op> = (0..def.put_ops).map(|_| b.write_op()).collect();
        b.push(BlockKind::Put, round, counted, puts, Expect::default());
        let (gets, expect) = b.get_block();
        b.push(BlockKind::Get, round, counted, gets, expect);
        let (scans, expect) = b.scan_block();
        b.push(BlockKind::Scan, round, counted, scans, expect);
        let (srds, expect) = b.srd_block();
        b.push(BlockKind::Srd, round, counted, srds, expect);
    }
    b.push(
        BlockKind::Reopen,
        ROUNDS + 1,
        true,
        Vec::new(),
        Expect::default(),
    );

    // after the restart: a sample of keys, present and absent, against the
    // model — every acknowledged write must be readable
    let (lo, hi) = b.model.key_bounds().unwrap_or((0, 2));
    let sweep: Vec<(u64, Option<u64>)> = (0..SWEEP_KEYS)
        .map(|_| {
            let key = b.rng.gen_range(lo..=hi + 1);
            (key, b.model.get(key))
        })
        .collect();

    Plan {
        def: def.clone(),
        live_at_end: b.model.len() as u64,
        blocks: b.blocks,
        sweep,
        generate_secs: started.elapsed().as_secs_f64(),
    }
}

impl Plan {
    /// Operations the generator produced (for `workload.generator.ops_per_s`).
    pub fn generated_ops(&self) -> u64 {
        self.blocks.iter().map(|b| b.ops.len() as u64).sum::<u64>() + self.sweep.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_and_other_seed_other_plan() {
        let def = WORKLOADS[0].scaled(0.02);
        let a = build(&def, 7);
        let b = build(&def, 7);
        let c = build(&def, 8);
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(a.sweep, b.sweep);
        assert_ne!(a.blocks, c.blocks);
    }

    #[test]
    fn plan_has_setup_rounds_and_reopen_in_order() {
        for def in &WORKLOADS {
            let def = def.scaled(0.05);
            let plan = build(&def, 1);
            let kinds: Vec<BlockKind> = plan.blocks.iter().map(|b| b.kind).collect();
            let setup = kinds.iter().take_while(|k| **k == BlockKind::Setup).count();
            assert!(setup >= 1);
            let rounds = &kinds[setup..kinds.len() - 1];
            assert_eq!(rounds.len(), 4 * (ROUNDS + 1));
            for r in rounds.chunks(4) {
                assert_eq!(
                    r,
                    [
                        BlockKind::Put,
                        BlockKind::Get,
                        BlockKind::Scan,
                        BlockKind::Srd
                    ]
                );
            }
            assert_eq!(*kinds.last().unwrap(), BlockKind::Reopen);
            // round 0 is executed but not counted
            assert!(plan
                .blocks
                .iter()
                .filter(|b| b.round == 0 && b.kind != BlockKind::Setup)
                .all(|b| !b.counted));
            // odd keys are never written
            for b in &plan.blocks {
                for op in &b.ops {
                    if let Op::Put { key, .. } | Op::Delete { key } = op {
                        assert_eq!(key % 2, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn model_tracks_overwrites_deletes_and_secondary_deletes() {
        let mut m = Model::default();
        m.put(2, 1);
        m.put(4, 2);
        m.put(6, 3);
        m.put(2, 4); // overwrite: tick 1 is no longer live
        assert_eq!(m.secondary_delete(1, 3), 1); // only key 4 (tick 2) is live in [1, 3)
        assert_eq!(m.get(2), Some(4));
        assert_eq!(m.get(4), None);
        m.delete_range(5, 7);
        assert_eq!(m.get(6), None);
        assert_eq!(m.scan(0, 100), (1, 4));
        m.delete(2);
        assert_eq!(m.len(), 0);
        assert_eq!(m.key_bounds(), None);
    }

    #[test]
    fn purge_window_expects_exact_secondary_delete_counts() {
        let def = workload("purge_window").unwrap().scaled(0.05);
        let plan = build(&def, 3);
        for b in plan.blocks.iter().filter(|b| b.kind == BlockKind::Srd) {
            assert_eq!(b.expect.srd_deleted_min, b.expect.srd_deleted_max);
            assert!(b.expect.srd_deleted_min > 0);
        }
    }
}
