//! Lock calls inside raw strings and nested block comments must add no
//! edge: the lexer tracks these structurally, not by regex.
//! Never compiled — parsed by the `lock-order` analysis in the lint's
//! tests. Expected: zero findings.

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

    /// A raw string whose embedded quotes put a lock call outside every
    /// quote pair, written while the engine is held.
    pub fn banner(&self) -> &'static str {
        let _engine = self.engine.lock();
        r#"say " self.worker_state.lock(); " twice"#
    }

    /// A hash fence with an embedded `"#`-lookalike.
    pub fn fenced(&self) -> &'static str {
        let _engine = self.engine.lock();
        r##"fenced "#raw"# " self.worker_state.lock(); ""##
    }

    /// A nested block comment whose inner level closes first.
    pub fn comment(&self) {
        let _engine = self.engine.lock();
        /* outer /* inner */ let _w = self.worker_state.lock(); */
    }

    /// A byte string and an escaped quote for good measure.
    pub fn bytes(&self) -> &'static [u8] {
        let _engine = self.engine.lock();
        b"\" self.worker_state.lock()"
    }

    /// The legal order: worker state first, then the engine.
    pub fn ascending(&self) {
        let _worker = self.worker_state.lock();
        let _engine = self.engine.lock();
    }
}
