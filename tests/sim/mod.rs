//! The seeded simulator, and the one op model every oracle test shares.
//!
//! A [`Sim`] is a seed and a [`Config`]. The seed draws a history of
//! [`Op`]s against one store on an in-memory file system (a [`FaultVfs`]
//! over a [`MemVfs`]): writes, persists, cross-shard batches on a sharded
//! store, clean restarts, injected kills (the n-th mutating file-system
//! call fails and the process dies there, inside recovery too) and power
//! losses ([`MemVfs::crash`] drops, keeps or tears what no barrier made
//! durable).
//! A `BTreeMap` [`Model`] checks every reopen:
//! - the store reopens;
//! - with no power lost, or under [`SyncPolicy::Always`], every
//!   acknowledged op survives; the op in flight at a kill shows its before
//!   or its after state, per key, and a batch all or nothing;
//! - after a power loss under [`SyncPolicy::OnFlush`] (single shard), the
//!   store equals the model after some prefix of the acknowledged history,
//!   no shorter than the last `persist()`;
//! - a single shard's history unlinks at least one dead data segment.
//!
//! A failure is shrunk greedily and reported as one `config · seed · ops`
//! line. [`replay`] runs such a line's ops again; on a single shard it
//! replays bit-identically (no thread but the caller's touches the store),
//! on a sharded store the ops and faults repeat but the workers'
//! interleaving may not.
//!
//! Prior art: FoundationDB's deterministic simulation (Zhou et al., SIGMOD
//! 2021) and ALICE's crash states (Pillai et al., OSDI 2014).

use bytes::Bytes;
use lethe::lsm::{LsmConfig, SecondaryDeleteMode};
use lethe::storage::{FaultVfs, KillPoint, MemVfs, Result, SyncPolicy, Vfs};
use lethe::{Lethe, LetheBuilder, ShardedLethe, ShardedLetheBuilder, WriteBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Keys are drawn from `0..KEY_SPACE`; so are delete keys.
pub const KEY_SPACE: u64 = 256;

/// Where the simulated store lives on its file system.
pub const DIR: &str = "/store";

/// The delete key of sort key `k`: a fixed function of it (an immutable
/// creation attribute, as in the paper's model), so a secondary range
/// delete covers every version of a key or none.
pub fn delete_key_of(k: u64) -> u64 {
    k.wrapping_mul(31) % KEY_SPACE
}

/// The value `Put(_, v)` writes.
pub fn value(v: u8) -> Vec<u8> {
    vec![v; 9]
}

/// One step of a history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Put(u64, u8),
    Delete(u64),
    /// Deletes the sort keys `[s, e)`.
    DeleteRange(u64, u64),
    /// Deletes the keys whose delete key is in `[s, e)`.
    SecondaryDelete(u64, u64),
    Persist,
    /// One atomic [`WriteBatch`] of puts, deletes and secondary deletes.
    Batch(Vec<Op>),
    /// Drops the store and reopens it.
    Restart,
    /// Arms the store's `FaultVfs`: its `n`-th mutating call from now
    /// fails, and the op that sees the failure dies there. With a seed, a
    /// power loss drawn from it follows the death.
    Kill(u64, Option<u64>),
    /// Drops the store, resolves a power loss drawn from the seed, and
    /// reopens.
    PowerLoss(u64),
}

impl Op {
    /// A random write or persist: puts 7 in 12, deletes 2, range, secondary
    /// delete and persist 1 each.
    pub fn random(rng: &mut StdRng) -> Op {
        let span = |rng: &mut StdRng| {
            let s = rng.gen_range(0..KEY_SPACE);
            (s, s + rng.gen_range(1..KEY_SPACE / 4))
        };
        match rng.gen_range(0..12u32) {
            0..=6 => Op::Put(rng.gen_range(0..KEY_SPACE), rng.gen::<u8>()),
            7..=8 => Op::Delete(rng.gen_range(0..KEY_SPACE)),
            9 => {
                let (s, e) = span(rng);
                Op::DeleteRange(s, e)
            }
            10 => {
                let (s, e) = span(rng);
                Op::SecondaryDelete(s, e)
            }
            _ => Op::Persist,
        }
    }

    /// A random batch of 2 to 9 puts and deletes, one in eight with a
    /// secondary delete riding along.
    pub fn random_batch(rng: &mut StdRng) -> Op {
        let n = rng.gen_range(2..10usize);
        let mut items: Vec<Op> = (0..n)
            .map(|_| match rng.gen_range(0..5u32) {
                0 => Op::Delete(rng.gen_range(0..KEY_SPACE)),
                _ => Op::Put(rng.gen_range(0..KEY_SPACE), rng.gen::<u8>()),
            })
            .collect();
        if rng.gen_range(0..8u32) == 0 {
            let s = rng.gen_range(0..KEY_SPACE);
            items.push(Op::SecondaryDelete(s, s + rng.gen_range(1..KEY_SPACE / 4)));
        }
        Op::Batch(items)
    }
}

/// What the store must read: each live key's value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model(pub BTreeMap<u64, Vec<u8>>);

impl Model {
    /// Applies a write; restarts, kills and power losses change nothing.
    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::Put(k, v) => {
                self.0.insert(*k, value(*v));
            }
            Op::Delete(k) => {
                self.0.remove(k);
            }
            Op::DeleteRange(s, e) => self.0.retain(|k, _| k < s || k >= e),
            Op::SecondaryDelete(s, e) => self.0.retain(|k, _| {
                let d = delete_key_of(*k);
                d < *s || d >= *e
            }),
            Op::Batch(items) => items.iter().for_each(|item| self.apply(item)),
            Op::Persist | Op::Restart | Op::Kill(..) | Op::PowerLoss(_) => {}
        }
    }
}

/// A store the ops drive: [`Lethe`] or [`ShardedLethe`].
pub trait Store {
    /// Applies a write or a persist; restarts, kills and power losses are
    /// the caller's to play.
    fn apply(&mut self, op: &Op) -> Result<()>;
    fn get(&self, k: u64) -> Result<Option<Bytes>>;
    fn range(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Bytes)>>;
}

/// One [`Store::apply`] for both stores: `$db` takes every write by the
/// same name.
macro_rules! apply {
    ($db:expr, $op:expr, $write:ident) => {
        match $op {
            Op::Put(k, v) => $db.put(*k, delete_key_of(*k), value(*v)),
            Op::Delete(k) => $db.delete(*k).map(drop),
            Op::DeleteRange(s, e) => $db.delete_range(*s, *e),
            Op::SecondaryDelete(s, e) => $db.delete_where_delete_key_in(*s, *e).map(drop),
            Op::Persist => $db.persist(),
            Op::Batch(items) => $db.$write(batch_of(items)),
            Op::Restart | Op::Kill(..) | Op::PowerLoss(_) => Ok(()),
        }
    };
}

impl Store for Lethe {
    fn apply(&mut self, op: &Op) -> Result<()> {
        apply!(self, op, write_batch)
    }
    fn get(&self, k: u64) -> Result<Option<Bytes>> {
        Lethe::get(self, k)
    }
    fn range(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Bytes)>> {
        Lethe::range(self, lo, hi)
    }
}

impl Store for ShardedLethe {
    fn apply(&mut self, op: &Op) -> Result<()> {
        apply!(self, op, write)
    }
    fn get(&self, k: u64) -> Result<Option<Bytes>> {
        ShardedLethe::get(self, k)
    }
    fn range(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Bytes)>> {
        ShardedLethe::range(self, lo, hi)
    }
}

/// The [`WriteBatch`] of a [`Op::Batch`]'s items.
fn batch_of(items: &[Op]) -> WriteBatch {
    let mut batch = WriteBatch::new();
    for item in items {
        match item {
            Op::Put(k, v) => batch.put(*k, delete_key_of(*k), value(*v)),
            Op::Delete(k) => batch.delete(*k),
            Op::DeleteRange(s, e) => batch.delete_range(*s, *e),
            Op::SecondaryDelete(s, e) => batch.secondary_range_delete(*s, *e),
            other => panic!("{other:?} cannot ride in a batch"),
        };
    }
    batch
}

/// What `store` reads: every key of the key space by `get`, which a full
/// range scan must agree with.
pub fn contents(store: &dyn Store) -> std::result::Result<Model, String> {
    let mut got = Model::default();
    for k in 0..KEY_SPACE {
        if let Some(v) = store.get(k).map_err(|e| format!("get({k}) failed: {e}"))? {
            got.0.insert(k, v.to_vec());
        }
    }
    let scan = store.range(0, KEY_SPACE).map_err(|e| format!("the scan failed: {e}"))?;
    let scanned: BTreeMap<u64, Vec<u8>> = scan.into_iter().map(|(k, v)| (k, v.to_vec())).collect();
    if scanned != got.0 {
        return Err(format!("the scan reads {scanned:?}, the gets {:?}", got.0));
    }
    Ok(got)
}

/// Checks a reopened store against `model`, the state every acknowledged
/// op left, with `in_flight` the op a kill interrupted: each key it touches
/// may read its before or its after state, a batch's keys all one or all
/// the other, and every other key exactly the model. The model then adopts
/// what the store durably chose.
pub fn verify(
    store: &dyn Store,
    model: &mut Model,
    in_flight: Option<&Op>,
) -> std::result::Result<(), String> {
    let got = contents(store)?;
    let mut after = model.clone();
    in_flight.into_iter().for_each(|op| after.apply(op));
    let keys = model.0.keys().chain(after.0.keys()).chain(got.0.keys());
    let keys: std::collections::BTreeSet<_> = keys.collect();
    let short = |m: &Model, k| m.0.get(k).map(|v: &Vec<u8>| v[0]);
    for k in keys {
        if got.0.get(k) != model.0.get(k) && got.0.get(k) != after.0.get(k) {
            return Err(format!(
                "key {k}: the store reads {:?}, the model {:?} before {in_flight:?} and {:?} after",
                short(&got, k),
                short(model, k),
                short(&after, k)
            ));
        }
    }
    // a batch lands whole or not at all, any other op key by key
    if matches!(in_flight, Some(Op::Batch(_))) && got != *model && got != after {
        return Err(format!("a torn batch: {in_flight:?} landed in part"));
    }
    *model = got;
    Ok(())
}

/// The tiny tree every oracle test runs: `small_for_test` with two-page
/// delete tiles, KiWi page drops and blind-delete suppression, its WAL
/// under `sync`. Its 1 KiB buffer sizes its data segments to 4 KiB
/// (`LsmConfig::segment_target_bytes`), so a short history fills, seals,
/// rolls and unlinks them.
pub fn config(sync: SyncPolicy) -> LsmConfig {
    let mut cfg = LsmConfig::small_for_test();
    cfg.pages_per_delete_tile = 2;
    cfg.secondary_delete_mode = SecondaryDeleteMode::KiwiPageDrops;
    cfg.suppress_blind_deletes = true;
    cfg.wal_sync = sync;
    cfg
}

/// [`config`] with a one-second `D_th`.
pub fn builder(sync: SyncPolicy) -> LetheBuilder {
    LetheBuilder::new().with_config(config(sync)).delete_persistence_threshold_secs(1.0)
}

/// What a simulated store is: its shard count (1 is a [`Lethe`], more a
/// [`ShardedLethe`]), its WAL's sync policy, and whether the history may
/// lose power.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    pub shards: usize,
    pub sync: SyncPolicy,
    pub power_loss: bool,
}

impl Config {
    fn open(&self, vfs: Arc<dyn Vfs>) -> Result<Box<dyn Store>> {
        let builder = builder(self.sync);
        Ok(match self.shards {
            1 => Box::new(builder.open_on(vfs, DIR)?),
            n => Box::new(ShardedLetheBuilder::from_builder(builder).shards(n).open_on(vfs, DIR)?),
        })
    }
}

/// One seeded history on one [`Config`].
#[derive(Debug, Clone, Copy)]
pub struct Sim {
    pub seed: u64,
    pub config: Config,
}

impl Sim {
    /// The `len` ops the seed draws: in a hundred, 2 restarts, 4 kills (half
    /// of them followed by a power loss where the config allows one), 3
    /// power losses where it allows them, 6 batches on a sharded store, and
    /// writes and persists for the rest.
    pub fn ops(&self, len: usize) -> Vec<Op> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let power = self.config.power_loss;
        (0..len)
            .map(|_| match rng.gen_range(0..100u32) {
                0..=1 => Op::Restart,
                2..=5 => {
                    let n = rng.gen_range(0..40u64);
                    Op::Kill(n, (power && rng.gen::<bool>()).then(|| rng.gen()))
                }
                6..=8 if power => Op::PowerLoss(rng.gen()),
                9..=14 if self.config.shards > 1 => Op::random_batch(&mut rng),
                _ => Op::random(&mut rng),
            })
            .collect()
    }

    /// Plays the seed's `len` ops; on a failure, shrinks them and panics
    /// with the replay line. A single shard's history must also unlink a
    /// data segment: only a sealed segment can die, so the unlink shows the
    /// history rolled, sealed and reclaimed segments.
    pub fn run(&self, len: usize) {
        let ops = self.ops(len);
        match play(self.config, &ops) {
            Err(failure) => {
                let (ops, failure) = shrink(self.config, ops, failure);
                let (config, seed) = (self.config, self.seed);
                panic!("sim replay: {config:?} · seed {seed} · ops {ops:?}\n{failure}");
            }
            Ok(sites) => {
                let unlinked = sites.iter().any(|site| site.to_string() == "segment.remove");
                assert!(
                    unlinked || self.config.shards > 1,
                    "sim: {:?} · seed {} unlinked no data segment",
                    self.config,
                    self.seed
                );
            }
        }
    }
}

/// Runs `seeds` seeds of `len` ops each on `config`: `base` seeds from 1,
/// times `LETHE_STRESS_ROUNDS` when it is set.
pub fn run_seeds(config: Config, base: u64, len: usize) {
    let rounds = std::env::var("LETHE_STRESS_ROUNDS").ok().and_then(|v| v.parse().ok());
    for seed in 1..=base * rounds.unwrap_or(1u64).max(1) {
        Sim { seed, config }.run(len);
    }
}

/// A failure: the index of the op it showed at, and what went wrong.
pub type Failure = (usize, String);

/// Plays `ops` on a fresh store of `config`, and returns the first failure.
pub fn replay(config: Config, ops: &[Op]) -> std::result::Result<(), Failure> {
    play(config, ops).map(drop)
}

/// [`replay`], returning every file-system call site the history reached.
fn play(config: Config, ops: &[Op]) -> std::result::Result<Vec<KillPoint>, Failure> {
    let mut run = Run::open(config)?;
    for (i, op) in ops.iter().enumerate() {
        let played = catch_unwind(AssertUnwindSafe(|| run.play(op)));
        played.unwrap_or_else(|panic| Err(panic_message(panic))).map_err(|e| (i, e))?;
    }
    run.reopen(None, None).map_err(|e| (ops.len(), e))?;
    Ok(run.fault.traced_sites())
}

/// Greedily shrinks a failing history: everything after the failing op is
/// cut, then chunks of halving size are removed while the history still
/// fails.
fn shrink(config: Config, mut ops: Vec<Op>, mut failure: Failure) -> (Vec<Op>, String) {
    ops.truncate(failure.0 + 1);
    let mut chunk = ops.len().div_ceil(2);
    while chunk > 0 {
        let mut at = 0;
        while at < ops.len() {
            let mut shorter = ops.clone();
            shorter.drain(at..(at + chunk).min(ops.len()));
            match replay(config, &shorter) {
                Err(e) => (ops, failure) = (shorter, e),
                Ok(()) => at += chunk,
            }
        }
        chunk /= 2;
    }
    (ops, format!("op {}: {}", failure.0, failure.1))
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    let text = panic.downcast_ref::<String>().cloned();
    let text = text.or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
    format!("panicked: {}", text.unwrap_or_default())
}

/// One history in play.
struct Run {
    config: Config,
    mem: Arc<MemVfs>,
    fault: Arc<FaultVfs>,
    store: Option<Box<dyn Store>>,
    /// What every acknowledged op left.
    model: Model,
    /// The state at the last point everything acknowledged was durable.
    durable: Model,
    /// The ops acknowledged since `durable`, in order.
    since: Vec<Op>,
    /// An armed kill, with the power loss that follows it.
    kill: Option<Option<u64>>,
}

impl Run {
    fn open(config: Config) -> std::result::Result<Run, Failure> {
        let mem = MemVfs::new();
        let fault = FaultVfs::new(mem.clone());
        fault.enable_trace();
        let store = config
            .open(fault.clone())
            .map_err(|e| (0, format!("a fresh store fails to open: {e}")))?;
        let (model, durable, since) = (Model::default(), Model::default(), Vec::new());
        Ok(Run { config, mem, fault, store: Some(store), model, durable, since, kill: None })
    }

    fn play(&mut self, op: &Op) -> std::result::Result<(), String> {
        match op {
            Op::Restart => self.reopen(None, None),
            Op::PowerLoss(seed) => self.reopen(None, Some(*seed)),
            Op::Kill(n, loss) => {
                self.fault.arm(*n);
                self.kill = Some(*loss);
                Ok(())
            }
            write => {
                let store = self.store.as_mut().ok_or("no store")?;
                match store.apply(write) {
                    Ok(()) => {
                        self.model.apply(write);
                        self.since.push(write.clone());
                        if self.config.sync == SyncPolicy::Always || *write == Op::Persist {
                            (self.durable, self.since) = (self.model.clone(), Vec::new());
                        }
                        Ok(())
                    }
                    Err(_) if self.kill.is_some() && !self.fault.is_armed() => {
                        self.reopen(Some(write), None)
                    }
                    Err(e) => Err(format!("{write:?} failed with no fault fired: {e}")),
                }
            }
        }
    }

    /// Drops the store and reopens it, with `in_flight` the op a kill
    /// interrupted, and checks it. A power loss drawn from `loss`, and the
    /// one a fired kill carries, is resolved first. An armed kill stays
    /// armed, so it may land inside the recovery; the reopen that died
    /// there is then played again.
    fn reopen(
        &mut self,
        in_flight: Option<&Op>,
        loss: Option<u64>,
    ) -> std::result::Result<(), String> {
        drop(self.store.take());
        let (mut loss, mut modes) = (loss, Vec::new());
        let store = loop {
            if self.kill.is_some() && !self.fault.is_armed() {
                loss = loss.or(self.kill.take().flatten());
            }
            if let Some(seed) = loss.take() {
                let mut rng = StdRng::seed_from_u64(seed);
                modes.push(self.mem.crash(&mut |n| rng.gen_range(0..n)));
            }
            match self.config.open(self.fault.clone()) {
                Ok(store) => break self.store.insert(store),
                Err(_) if self.kill.is_some() && !self.fault.is_armed() => continue,
                Err(e) => return Err(format!("{modes:?}: the store does not reopen: {e}")),
            }
        };
        let before = self.model.clone();
        if !modes.is_empty() && self.config.sync == SyncPolicy::OnFlush {
            // some prefix of the history since the last persist
            let got = contents(store.as_ref())?;
            let mut state = self.durable.clone();
            let mut history = self.since.iter().chain(in_flight);
            while state != got {
                let Some(op) = history.next() else {
                    return Err(format!(
                        "{modes:?}: the store reads {:?}, which no prefix of the {} ops since the \
                         last persist left",
                        got.0.keys().collect::<Vec<_>>(),
                        self.since.len()
                    ));
                };
                state.apply(op);
            }
            (self.model, self.durable, self.since) = (got.clone(), got, Vec::new());
            return Ok(());
        }
        verify(store.as_ref(), &mut self.model, in_flight)
            .map_err(|e| format!("{modes:?}: {e}"))?;
        if let Some(op) = in_flight {
            let mut after = before.clone();
            after.apply(op);
            if self.model == after {
                self.since.push(op.clone());
            } else if self.model != before && self.config.shards == 1 {
                return Err(format!("{op:?} landed in part"));
            }
        }
        if !modes.is_empty() || self.config.sync == SyncPolicy::Always {
            (self.durable, self.since) = (self.model.clone(), Vec::new());
        }
        Ok(())
    }
}
