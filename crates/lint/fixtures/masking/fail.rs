//! Inversions that naive comment/string blanking used to mask: each real
//! inversion sits right after a construct (raw string, nested block
//! comment) that a regex-based scrubber mis-tracks, and each construct
//! spells a lock call that must add no edge of its own.
//! Never compiled — parsed by the `lock-order` analysis in the lint's
//! tests. Expected: exactly two `lock-order` findings, one on each line
//! that binds `_worker`.

/// Mirror of the workspace's `LockRank` (subset, same relative order).
pub enum LockRank {
    WorkerState,
    Engine,
}

pub struct Shard {
    engine: Mutex<()>,
    worker_state: Mutex<()>,
}

impl Shard {
    pub fn new() -> Shard {
        Shard {
            engine: Mutex::new(LockRank::Engine, ()),
            worker_state: Mutex::new(LockRank::WorkerState, ()),
        }
    }

    /// The raw string holds a lone quote and a lock call: a scrubber that
    /// pairs quotes reads the call as code and the closing `"#` as the
    /// start of a string that swallows the real inversion on the next line.
    pub fn inversion_after_raw_string(&self) {
        let _engine = self.engine.lock();
        let _banner = r#"a lone " quote, then self.worker_state.lock()"#;
        let _worker = self.worker_state.lock();
    }

    /// Nested block comments: a scrubber that closes at the first `*/`
    /// reads a lock call out of the comment's tail.
    pub fn inversion_after_nested_comment(&self) {
        let _engine = self.engine.lock();
        /* nested /* inner */ let _w = self.worker_state.lock(); */
        let _worker = self.worker_state.lock();
    }
}
