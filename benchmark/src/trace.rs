//! In-memory spans for the traced pass.
//!
//! The harness records a span around each call it makes into the engine:
//! `pass > block:<kind>:<round> > op:<kind>`, and under a put that froze the
//! write buffer, `lsm.tree.flush` / `lsm.tree.compaction` with
//! `plan`/`execute`/`apply` children. Spans stay in a `Vec` while the pass
//! runs (one push per span, no I/O) and are aggregated, and optionally
//! dumped, after it ends. All spans come from one thread, so a parent
//! pointer is the whole causality record.

use std::collections::BTreeMap;
use std::time::Instant;

/// What a span covers. The display name is what the phase table prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    Pass,
    Block(crate::plan::BlockKind),
    OpOpen,
    OpPut,
    OpPersist,
    OpGet,
    OpScan,
    OpSrd,
    OpReopen,
    Flush,
    Compaction,
    Plan,
    Execute,
    Apply,
}

impl Phase {
    pub fn name(&self) -> String {
        match self {
            Phase::Pass => "pass".into(),
            Phase::Block(kind) => format!("block:{}", kind.name()),
            Phase::OpOpen => "op:open".into(),
            Phase::OpPut => "op:put".into(),
            Phase::OpPersist => "op:persist".into(),
            Phase::OpGet => "op:get".into(),
            Phase::OpScan => "op:scan".into(),
            Phase::OpSrd => "op:srd".into(),
            Phase::OpReopen => "op:reopen".into(),
            Phase::Flush => "lsm.tree.flush".into(),
            Phase::Compaction => "lsm.tree.compaction".into(),
            Phase::Plan => "job:plan".into(),
            Phase::Execute => "job:execute".into(),
            Phase::Apply => "job:apply".into(),
        }
    }
}

/// Marks "no parent" in [`Span::parent`].
pub const ROOT: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub phase: Phase,
    /// The round (or set-up chunk) the span belongs to.
    pub round: u16,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u16,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    /// Sets the round stamped on spans entered from now on.
    pub fn set_round(&mut self, round: usize) {
        self.round = round.min(u16::MAX as usize) as u16;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn enter(&mut self, phase: Phase) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let now = self.now_ns();
        self.spans.push(Span {
            phase,
            round: self.round,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and anything left open inside it) and returns its
    /// duration in nanoseconds.
    pub fn exit(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id {
                break;
            }
        }
        self.spans[id as usize].duration_ns()
    }

    /// Re-labels an open span whose kind was not known when it was entered.
    pub fn set_phase(&mut self, id: u32, phase: Phase) {
        self.spans[id as usize].phase = phase;
    }

    /// Forgets span `id` and everything entered after it (an attempt that
    /// turned out to be nothing, such as planning a job when none is due).
    pub fn cancel(&mut self, id: u32) {
        self.spans.truncate(id as usize);
        self.open.retain(|open| *open < id);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Wall, child-covered and self time of one phase, summed over its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotals {
    pub count: u64,
    pub wall_ns: u64,
    pub child_ns: u64,
    pub self_ns: u64,
}

/// Nanoseconds of `span` covered by at least one of its direct children:
/// the union of the child intervals clipped to the parent's, so overlapping
/// or overhanging children are not counted twice or beyond the parent.
fn child_coverage(span: &Span, children: &mut [(u64, u64)]) -> u64 {
    children.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = span.start_ns;
    for &(start, end) in children.iter() {
        let start = start.max(cursor);
        let end = end.min(span.end_ns);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// A span's self time is its duration minus the part of that interval its
/// child spans cover; this sums both per phase.
pub fn phase_totals(spans: &[Span]) -> BTreeMap<Phase, PhaseTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != ROOT {
            children[span.parent as usize].push((span.start_ns, span.end_ns));
        }
    }
    let mut totals: BTreeMap<Phase, PhaseTotals> = BTreeMap::new();
    for (span, kids) in spans.iter().zip(children.iter_mut()) {
        let wall = span.duration_ns();
        let child = child_coverage(span, kids);
        let t = totals.entry(span.phase).or_default();
        t.count += 1;
        t.wall_ns += wall;
        t.child_ns += child;
        t.self_ns += wall - child;
    }
    totals
}

/// Renders the `phase, count, wall ms, in child spans ms, self ms` table.
pub fn render_table(totals: &BTreeMap<Phase, PhaseTotals>) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut out = format!(
        "{:<22} {:>9} {:>12} {:>20} {:>12}\n",
        "phase", "count", "wall ms", "in child spans ms", "self ms"
    );
    for (phase, t) in totals {
        out.push_str(&format!(
            "{:<22} {:>9} {:>12.3} {:>20.3} {:>12.3}\n",
            phase.name(),
            t.count,
            ms(t.wall_ns),
            ms(t.child_ns),
            ms(t.self_ns)
        ));
    }
    out
}

/// One JSON object per line: `{"id","parent","name","round","start_ns","end_ns"}`.
pub fn render_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"round\": {}, \"start_ns\": {}, \"end_ns\": {}}}\n",
            s.phase.name(),
            s.round,
            s.start_ns,
            s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::BlockKind;

    fn span(phase: Phase, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            phase,
            round: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(Phase::Pass, ROOT, 0, 1_000),               // 0
            span(Phase::Block(BlockKind::Put), 0, 100, 900), // 1
            span(Phase::OpPut, 1, 100, 300),                 // 2
            span(Phase::OpPut, 1, 300, 800),                 // 3
            span(Phase::Flush, 3, 400, 700),                 // 4
            span(Phase::Execute, 4, 450, 650),               // 5
        ];
        let totals = phase_totals(&spans);
        let pass = totals[&Phase::Pass];
        assert_eq!(
            (pass.wall_ns, pass.child_ns, pass.self_ns),
            (1_000, 800, 200)
        );
        let block = totals[&Phase::Block(BlockKind::Put)];
        assert_eq!(
            (block.wall_ns, block.child_ns, block.self_ns),
            (800, 700, 100)
        );
        let put = totals[&Phase::OpPut];
        assert_eq!(
            (put.count, put.wall_ns, put.child_ns, put.self_ns),
            (2, 700, 300, 400)
        );
        let flush = totals[&Phase::Flush];
        assert_eq!((flush.child_ns, flush.self_ns), (200, 100));
        assert_eq!(totals[&Phase::Execute].self_ns, 200);
        // self times partition the root's wall time exactly
        assert_eq!(totals.values().map(|t| t.self_ns).sum::<u64>(), 1_000);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span(Phase::OpScan, ROOT, 100, 200),
            span(Phase::Execute, 0, 90, 150), // starts before the parent
            span(Phase::Execute, 0, 140, 180), // overlaps its sibling
            span(Phase::Execute, 0, 190, 260), // ends after the parent
        ];
        let scan = phase_totals(&spans)[&Phase::OpScan];
        assert_eq!((scan.child_ns, scan.self_ns), (90, 10));
    }

    #[test]
    fn tracer_nests_and_closes_forgotten_children() {
        let mut t = Tracer::new();
        let pass = t.enter(Phase::Pass);
        t.set_round(3);
        let block = t.enter(Phase::Block(BlockKind::Get));
        let op = t.enter(Phase::OpGet);
        t.exit(op);
        let _left_open = t.enter(Phase::OpGet);
        t.exit(block);
        t.exit(pass);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].parent, 1);
        assert_eq!(spans[1].round, 3);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[3].end_ns <= spans[1].end_ns);
        let text = render_jsonl(spans);
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            crate::json::Json::parse(line).expect("span line is valid JSON");
        }
        assert!(render_table(&phase_totals(spans)).contains("block:get"));
    }
}
