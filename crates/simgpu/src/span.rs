//! Hierarchical span tracing: a low-overhead, always-on-capable span tree
//! recorded alongside the command stream.
//!
//! Every queue command already leaves a [`crate::queue::CommandRecord`]
//! with its *simulated* interval; spans add the missing dimensions — the
//! **hierarchy** (frame → pipeline phase → command)
//! and the **wall clock** (what the host actually paid to run the
//! simulator). Each [`SpanRecord`] carries both timebases so the
//! attribution layer can compare them: a span whose wall share is far
//! above its simulated share is a host-side bottleneck, not a modeled one.
//!
//! Spans are recorded into a preallocated ring ([`SpanRing`]) owned by the
//! queue. Recording is **observation-only** by construction: the ring
//! never touches the virtual clock, the records, the counters, or any
//! buffer — it only copies interned names and reads `Instant::now()`. The
//! `tests/spans.rs` sweep enforces bit-identical pixels and simulated
//! seconds with spans on vs off across every optimization config, and
//! lint rule 8 statically bans mutation of observed state from this file.
//!
//! Wall-time attribution of leaf spans uses the *gap rule*: a leaf's wall
//! interval runs from the previous span event on the same ring to the
//! moment the leaf is recorded. Because queue commands execute
//! synchronously between their commits, the gap is exactly the host time
//! spent producing the command (kernel execution, memcpy, …) plus any
//! pipeline logic since the last event — a faithful "where did the wall
//! clock go" decomposition without per-call-site instrumentation.
//!
//! A committed kernel whose body runs later, in a fused pass
//! ([`crate::queue::CommandQueue::execute`]), records its leaf at the
//! commit with only the commit's host time. The pass measures each part's
//! host time per window slice and [`SpanRing::attribute_pass`] moves the
//! pass's wall time onto those leaves in proportion, re-timing the
//! retained spans with one monotone map: every kernel and phase span
//! reports its share of the pass, nesting holds, and the frame's total is
//! unchanged.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::MetricsRegistry;

/// Default ring capacity: enough for many frames of the deepest pipeline
/// (a frame records a few dozen spans).
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

/// What a span describes. Scope kinds (`Frame`, `Phase`) are opened
/// and closed explicitly by the pipeline layers; leaf kinds are emitted
/// automatically by the queue as commands commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One full pipeline frame (scope).
    Frame,
    /// A pipeline phase within a frame, e.g. `upload`, `sobel` (scope).
    Phase,
    /// A committed kernel dispatch (leaf; simulated interval = the record).
    Kernel,
    /// Host→device transfer: bulk, rect or map write (leaf).
    Transfer,
    /// Device→host readback (leaf).
    Readback,
    /// Host-side pipeline work charged to the CPU model (leaf).
    Host,
    /// Queue synchronisation (`finish`) (leaf).
    Sync,
}

impl SpanKind {
    /// Short lowercase tag for rendering and metric names.
    pub fn tag(self) -> &'static str {
        match self {
            SpanKind::Frame => "frame",
            SpanKind::Phase => "phase",
            SpanKind::Kernel => "kernel",
            SpanKind::Transfer => "transfer",
            SpanKind::Readback => "readback",
            SpanKind::Host => "host",
            SpanKind::Sync => "sync",
        }
    }

    /// Whether this kind is opened/closed as a scope (true) or emitted as
    /// a completed leaf (false).
    pub fn is_scope(self) -> bool {
        matches!(self, SpanKind::Frame | SpanKind::Phase)
    }
}

/// Identifier of an open span, returned by [`SpanRing::open`] (via
/// `CommandQueue::span_open`) and consumed by the matching close. The
/// sentinel [`SpanId::NONE`] is returned when spans are disabled so call
/// sites stay branch-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u64);

impl SpanId {
    /// Sentinel for "spans disabled / no parent".
    pub const NONE: SpanId = SpanId(u64::MAX);
}

/// One recorded span: a node of the frame's span tree.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Monotonically increasing id (never reused within a ring).
    pub id: u64,
    /// Parent span id, or `u64::MAX` for a root.
    pub parent: u64,
    /// Span class.
    pub kind: SpanKind,
    /// Span name (interned; kernels/transfers share the record's name).
    pub name: Arc<str>,
    /// Nesting depth at record time (roots are 0).
    pub depth: u16,
    /// Wall-clock start, nanoseconds since the ring's epoch.
    pub wall_start_ns: u64,
    /// Wall-clock end, nanoseconds since the ring's epoch (== start while
    /// a scope is still open).
    pub wall_end_ns: u64,
    /// Simulated start time, seconds on the owning queue's virtual clock.
    pub sim_start_s: f64,
    /// Simulated end time, seconds (== start for wall-only spans).
    pub sim_end_s: f64,
}

impl SpanRecord {
    /// Wall-clock duration in seconds.
    pub fn wall_s(&self) -> f64 {
        (self.wall_end_ns.saturating_sub(self.wall_start_ns)) as f64 * 1e-9
    }

    /// Simulated duration in seconds.
    pub fn sim_s(&self) -> f64 {
        self.sim_end_s - self.sim_start_s
    }
}

/// A preallocated ring of spans with an open-scope stack.
///
/// When the ring is full the oldest spans are evicted (the newest window
/// is kept); [`SpanRing::evicted`] counts how many were lost. Eviction
/// only drops history — it never blocks recording or reallocates.
pub struct SpanRing {
    epoch: Instant,
    buf: Vec<SpanRecord>,
    capacity: usize,
    /// Index of the oldest live entry in `buf`.
    tail: usize,
    /// Number of live entries.
    len: usize,
    /// Total spans ever recorded; the next span's id.
    seq: u64,
    /// Spans evicted by ring wrap-around.
    evicted: u64,
    /// Ids of currently open scopes, outermost first.
    stack: Vec<u64>,
    /// Wall timestamp of the most recent span event (the gap rule's left
    /// edge for the next leaf).
    last_wall_ns: u64,
}

impl SpanRing {
    /// A ring holding at most `capacity` spans (minimum 16).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(16);
        SpanRing {
            epoch: Instant::now(),
            buf: Vec::with_capacity(capacity),
            capacity,
            tail: 0,
            len: 0,
            seq: 0,
            evicted: 0,
            stack: Vec::new(),
            last_wall_ns: 0,
        }
    }

    /// Nanoseconds since the ring's epoch.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push_record(&mut self, rec: SpanRecord) {
        if self.len < self.capacity {
            if self.buf.len() < self.capacity {
                self.buf.push(rec);
            } else {
                self.buf[(self.tail + self.len) % self.capacity] = rec;
            }
            self.len += 1;
        } else {
            // Full: overwrite the oldest entry.
            self.buf[self.tail] = rec;
            self.tail = (self.tail + 1) % self.capacity;
            self.evicted += 1;
        }
    }

    /// Buffer index of span `id`, if it is still in the retained window.
    fn index_of(&self, id: u64) -> Option<usize> {
        let first = self.seq - self.len as u64;
        if id < first || id >= self.seq {
            return None;
        }
        Some((self.tail + (id - first) as usize) % self.buf.len().max(1))
    }

    /// Opens a scope span at simulated time `sim_s`; subsequent spans nest
    /// under it until the matching [`SpanRing::close`].
    pub fn open(&mut self, kind: SpanKind, name: Arc<str>, sim_s: f64) -> SpanId {
        let now = self.now_ns();
        let id = self.seq;
        let rec = SpanRecord {
            id,
            parent: self.stack.last().copied().unwrap_or(u64::MAX),
            kind,
            name,
            depth: self.stack.len() as u16,
            wall_start_ns: now,
            wall_end_ns: now,
            sim_start_s: sim_s,
            sim_end_s: sim_s,
        };
        self.seq += 1;
        self.push_record(rec);
        self.stack.push(id);
        self.last_wall_ns = now;
        SpanId(id)
    }

    /// Closes the scope `id` at simulated time `sim_s`, popping it (and any
    /// scopes left open inside it) off the open stack.
    pub fn close(&mut self, id: SpanId, sim_s: f64) {
        let now = self.now_ns();
        while let Some(top) = self.stack.pop() {
            if let Some(i) = self.index_of(top) {
                self.buf[i].wall_end_ns = now;
                self.buf[i].sim_end_s = sim_s;
            }
            if top == id.0 {
                break;
            }
        }
        self.last_wall_ns = now;
    }

    /// Records a completed leaf span under the current scope. The wall
    /// interval is the gap since the previous span event (see module docs);
    /// the simulated interval is `[sim_start_s, sim_start_s + sim_dur_s]`.
    pub fn leaf(&mut self, kind: SpanKind, name: Arc<str>, sim_start_s: f64, sim_dur_s: f64) {
        let now = self.now_ns();
        let rec = SpanRecord {
            id: self.seq,
            parent: self.stack.last().copied().unwrap_or(u64::MAX),
            kind,
            name,
            depth: self.stack.len() as u16,
            wall_start_ns: self.last_wall_ns.min(now),
            wall_end_ns: now,
            sim_start_s,
            sim_end_s: sim_start_s + sim_dur_s,
        };
        self.seq += 1;
        self.push_record(rec);
        self.last_wall_ns = now;
    }

    /// Id of the most recently recorded span, if any.
    pub fn last_id(&self) -> Option<u64> {
        self.seq.checked_sub(1)
    }

    /// Nanoseconds since the ring's epoch, on the clock every span reads.
    pub fn now(&self) -> u64 {
        self.now_ns()
    }

    /// Credits the wall time of a pass that executed deferred kernel
    /// bodies to the leaf spans those kernels recorded when they were
    /// committed.
    ///
    /// The pass ran from `start_ns` to `end_ns`; `leaves` pairs each
    /// part's leaf span id with the host time its units took (summed over
    /// workers). The pass's wall time is split in proportion to those
    /// times, and the retained spans are re-timed by one monotone map:
    /// each leaf's end moves later by its share (and every event after it
    /// with it), and the pass interval itself collapses to its end. The
    /// shares add up to the pass, so every instant from `end_ns` on keeps
    /// its value: later spans, the enclosing scopes' totals and the frame
    /// length are unchanged, and a map that never reorders two instants
    /// keeps every child inside its parent. Leaves evicted from the ring
    /// give up their share to the retained ones.
    pub fn attribute_pass(&mut self, start_ns: u64, end_ns: u64, leaves: &[(u64, u64)]) {
        let pass = end_ns.saturating_sub(start_ns);
        let mut points: Vec<(u64, u64)> = leaves
            .iter()
            .filter_map(|&(id, busy)| self.index_of(id).map(|i| (self.buf[i].wall_end_ns, busy)))
            .filter(|&(t, _)| t <= start_ns)
            .collect();
        if pass == 0 || points.is_empty() {
            return;
        }
        points.sort_by_key(|&(t, _)| t);
        let total: u128 = points.iter().map(|&(_, b)| u128::from(b)).sum();
        let n = points.len() as u128;
        let mut given = 0u64;
        let last = points.len() - 1;
        for (k, p) in points.iter_mut().enumerate() {
            let share = if k == last {
                pass - given
            } else {
                // Even shares when no part measured any time.
                (u128::from(pass) * u128::from(p.1))
                    .checked_div(total)
                    .unwrap_or(u128::from(pass) / n) as u64
            };
            given += share;
            p.1 = share;
        }
        let map = |t: u64| -> u64 {
            if t >= end_ns {
                t
            } else if t >= start_ns {
                end_ns
            } else {
                t + points
                    .iter()
                    .take_while(|&&(at, _)| at <= t)
                    .map(|&(_, s)| s)
                    .sum::<u64>()
            }
        };
        for k in 0..self.len {
            let i = (self.tail + k) % self.buf.len().max(1);
            let rec = &mut self.buf[i];
            rec.wall_start_ns = map(rec.wall_start_ns);
            rec.wall_end_ns = map(rec.wall_end_ns);
        }
        self.last_wall_ns = map(self.last_wall_ns);
    }

    /// The retained spans, oldest first.
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.len);
        for k in 0..self.len {
            out.push(self.buf[(self.tail + k) % self.buf.len().max(1)].clone());
        }
        out
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Spans lost to ring wrap-around since creation/clear.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Clears retained spans and the open stack, keeping the allocation
    /// (new measurement run; ids keep increasing).
    pub fn clear(&mut self) {
        self.tail = 0;
        self.len = 0;
        self.buf.clear();
        self.stack.clear();
        self.evicted = 0;
        self.last_wall_ns = self.now_ns();
    }
}

/// Aggregated statistics of one span-tree path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAgg {
    /// `/`-joined name path from the root, e.g. `frame/sobel/sobel`.
    pub path: String,
    /// Kind of the spans on this path.
    pub kind: SpanKind,
    /// Number of spans aggregated.
    pub count: u64,
    /// Total wall-clock seconds.
    pub wall_s: f64,
    /// Total simulated seconds.
    pub sim_s: f64,
}

/// Aggregates spans by their name path (parent names joined with `/`),
/// preserving first-occurrence order. Spans whose parents were evicted
/// from the ring aggregate as roots of their own paths.
pub fn aggregate(spans: &[SpanRecord]) -> Vec<SpanAgg> {
    use std::collections::HashMap;
    // id → position for parent-path lookup.
    let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    let mut order: Vec<SpanAgg> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        let path = match by_id.get(&s.parent) {
            Some(&p) if p < i => format!("{}/{}", paths[p], s.name),
            _ => s.name.to_string(),
        };
        paths.push(path.clone());
        match index.get(&path) {
            Some(&k) => {
                order[k].count += 1;
                order[k].wall_s += s.wall_s();
                order[k].sim_s += s.sim_s();
            }
            None => {
                index.insert(path.clone(), order.len());
                order.push(SpanAgg {
                    path,
                    kind: s.kind,
                    count: 1,
                    wall_s: s.wall_s(),
                    sim_s: s.sim_s(),
                });
            }
        }
    }
    order
}

/// Writes the aggregated span statistics into a metrics registry under
/// `span.<path>.{wall_s, sim_s, count}`. Path separators stay `/` so span
/// metrics cannot collide with the dotted telemetry namespace.
pub fn to_registry(spans: &[SpanRecord], reg: &mut MetricsRegistry) {
    for a in aggregate(spans) {
        reg.set_gauge(&format!("span.{}.wall_s", a.path), a.wall_s);
        reg.set_gauge(&format!("span.{}.sim_s", a.path), a.sim_s);
        reg.inc(&format!("span.{}.count", a.path), a.count);
    }
}

/// Renders the span tree as an indented terminal listing. Sibling spans
/// with the same name and kind are folded into one line (`×N`); each line
/// shows total wall and simulated milliseconds plus the wall share of the
/// root.
pub fn span_tree(spans: &[SpanRecord]) -> String {
    use std::collections::HashMap;
    if spans.is_empty() {
        return String::from("(no spans)\n");
    }
    let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match by_id.get(&s.parent) {
            Some(&p) if p != i => children[p].push(i),
            _ => roots.push(i),
        }
    }
    let total_wall: f64 = roots.iter().map(|&i| spans[i].wall_s()).sum();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<44} {:>10} {:>10} {:>6}",
        "span", "wall ms", "sim ms", "wall%"
    );
    fn render(
        out: &mut String,
        spans: &[SpanRecord],
        children: &[Vec<usize>],
        nodes: &[usize],
        prefix: &str,
        total_wall: f64,
    ) {
        // Fold siblings sharing (kind, name) into one group, keeping
        // first-seen order; recurse into the union of their children.
        let mut groups: Vec<(SpanKind, Arc<str>, Vec<usize>)> = Vec::new();
        for &i in nodes {
            let s = &spans[i];
            match groups
                .iter_mut()
                .find(|(k, n, _)| *k == s.kind && **n == *s.name)
            {
                Some((_, _, v)) => v.push(i),
                None => groups.push((s.kind, Arc::clone(&s.name), vec![i])),
            }
        }
        let n_groups = groups.len();
        for (gi, (kind, name, members)) in groups.into_iter().enumerate() {
            let last = gi + 1 == n_groups;
            let branch = if last { "└─ " } else { "├─ " };
            let wall: f64 = members.iter().map(|&i| spans[i].wall_s()).sum();
            let sim: f64 = members.iter().map(|&i| spans[i].sim_s()).sum();
            let label = if members.len() > 1 {
                format!("{prefix}{branch}{name} ×{}", members.len())
            } else {
                format!("{prefix}{branch}{name}")
            };
            let share = if total_wall > 0.0 {
                wall / total_wall * 100.0
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "{:<44} {:>10.3} {:>10.3} {:>5.1}%  [{}]",
                label,
                wall * 1e3,
                sim * 1e3,
                share,
                kind.tag(),
            );
            let sub: Vec<usize> = members
                .iter()
                .flat_map(|&i| children[i].iter().copied())
                .collect();
            if !sub.is_empty() {
                let cont = if last { "   " } else { "│  " };
                render(
                    out,
                    spans,
                    children,
                    &sub,
                    &format!("{prefix}{cont}"),
                    total_wall,
                );
            }
        }
    }
    // Render roots without a branch glyph, their children indented.
    for &r in &roots {
        let s = &spans[r];
        let share = if total_wall > 0.0 {
            s.wall_s() / total_wall * 100.0
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<44} {:>10.3} {:>10.3} {:>5.1}%  [{}]",
            s.name,
            s.wall_s() * 1e3,
            s.sim_s() * 1e3,
            share,
            s.kind.tag(),
        );
        render(&mut out, spans, &children, &children[r], "", total_wall);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn scopes_nest_and_close() {
        let mut ring = SpanRing::new(64);
        let f = ring.open(SpanKind::Frame, name("frame"), 0.0);
        let p = ring.open(SpanKind::Phase, name("upload"), 0.0);
        ring.leaf(SpanKind::Transfer, name("write:padded"), 0.0, 1e-3);
        ring.close(p, 1e-3);
        ring.close(f, 2e-3);
        let spans = ring.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].kind, SpanKind::Frame);
        assert_eq!(spans[0].parent, u64::MAX);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[2].parent, spans[1].id);
        assert_eq!(spans[2].depth, 2);
        // Wall intervals nest: child within parent.
        assert!(spans[1].wall_start_ns >= spans[0].wall_start_ns);
        assert!(spans[1].wall_end_ns <= spans[0].wall_end_ns);
        assert!(spans[2].wall_start_ns >= spans[1].wall_start_ns);
        assert!(spans[2].wall_end_ns <= spans[1].wall_end_ns);
        // Simulated intervals recorded as given.
        assert_eq!(spans[2].sim_s(), 1e-3);
        assert_eq!(spans[0].sim_end_s, 2e-3);
    }

    #[test]
    fn close_pops_unclosed_inner_scopes() {
        let mut ring = SpanRing::new(64);
        let f = ring.open(SpanKind::Frame, name("frame"), 0.0);
        let _p = ring.open(SpanKind::Phase, name("p"), 0.0);
        ring.close(f, 1.0); // phase left open: closed implicitly
        let spans = ring.snapshot();
        assert!(spans.iter().all(|s| s.sim_end_s >= s.sim_start_s));
        assert_eq!(spans[1].sim_end_s, 1.0);
        // Stack is empty: the next open is a root again.
        let r = ring.open(SpanKind::Frame, name("frame2"), 2.0);
        assert_eq!(ring.snapshot().last().unwrap().parent, u64::MAX);
        ring.close(r, 3.0);
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_count() {
        let mut ring = SpanRing::new(16);
        for i in 0..40 {
            ring.leaf(SpanKind::Host, name(&format!("h{i}")), i as f64, 1.0);
        }
        assert_eq!(ring.len(), 16);
        assert_eq!(ring.evicted(), 24);
        let spans = ring.snapshot();
        assert_eq!(&*spans[0].name, "h24");
        assert_eq!(&*spans[15].name, "h39");
        // Ids stay monotone across eviction.
        assert!(spans.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn clear_keeps_capacity_and_monotone_ids() {
        let mut ring = SpanRing::new(16);
        ring.leaf(SpanKind::Host, name("a"), 0.0, 1.0);
        let before = ring.snapshot()[0].id;
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.evicted(), 0);
        ring.leaf(SpanKind::Host, name("b"), 0.0, 1.0);
        assert!(ring.snapshot()[0].id > before);
    }

    #[test]
    fn aggregate_folds_paths() {
        let mut ring = SpanRing::new(64);
        let f = ring.open(SpanKind::Frame, name("frame"), 0.0);
        for _ in 0..3 {
            let p = ring.open(SpanKind::Phase, name("phase"), 0.0);
            ring.leaf(SpanKind::Kernel, name("sobel"), 0.0, 0.0);
            ring.close(p, 0.0);
        }
        ring.close(f, 1.0);
        let agg = aggregate(&ring.snapshot());
        let phase = agg.iter().find(|a| a.path == "frame/phase").unwrap();
        assert_eq!(phase.count, 3);
        let k = agg.iter().find(|a| a.path == "frame/phase/sobel").unwrap();
        assert_eq!(k.count, 3);
        assert_eq!(k.kind, SpanKind::Kernel);
    }

    #[test]
    fn registry_export_uses_span_namespace() {
        let mut ring = SpanRing::new(64);
        let f = ring.open(SpanKind::Frame, name("frame"), 0.0);
        ring.leaf(SpanKind::Kernel, name("sobel"), 0.0, 2e-3);
        ring.close(f, 2e-3);
        let mut reg = MetricsRegistry::new();
        to_registry(&ring.snapshot(), &mut reg);
        assert_eq!(reg.counter("span.frame.count"), 1);
        assert_eq!(reg.counter("span.frame/sobel.count"), 1);
        assert!((reg.gauge("span.frame/sobel.sim_s") - 2e-3).abs() < 1e-12);
        assert!(reg.gauge("span.frame.wall_s") >= 0.0);
    }

    #[test]
    fn tree_renders_folded_siblings() {
        let mut ring = SpanRing::new(64);
        let f = ring.open(SpanKind::Frame, name("frame"), 0.0);
        for _ in 0..4 {
            let p = ring.open(SpanKind::Phase, name("phase"), 0.0);
            ring.leaf(SpanKind::Kernel, name("sobel"), 0.0, 0.0);
            ring.close(p, 0.0);
        }
        ring.close(f, 1.0);
        let t = span_tree(&ring.snapshot());
        assert!(t.contains("frame"), "{t}");
        assert!(t.contains("phase ×4"), "{t}");
        assert!(t.contains("sobel ×4"), "{t}");
        assert!(t.contains("[phase]"), "{t}");
        assert_eq!(span_tree(&[]), "(no spans)\n");
    }

    #[test]
    fn pass_time_moves_onto_the_committed_leaves() {
        let mut ring = SpanRing::new(64);
        let f = ring.open(SpanKind::Frame, name("frame"), 0.0);
        let a = ring.open(SpanKind::Phase, name("downscale"), 0.0);
        ring.leaf(SpanKind::Kernel, name("downscale"), 0.0, 1.0);
        let k1 = ring.last_id().unwrap();
        ring.close(a, 1.0);
        let b = ring.open(SpanKind::Phase, name("sobel"), 1.0);
        ring.leaf(SpanKind::Kernel, name("sobel"), 1.0, 1.0);
        let k2 = ring.last_id().unwrap();
        let before = ring.snapshot();
        let start = ring.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let end = ring.now();
        ring.attribute_pass(start, end, &[(k1, 300), (k2, 100)]);
        ring.close(b, 2.0);
        ring.close(f, 2.0);
        let spans = ring.snapshot();
        let pass = end - start;
        let wall_ns = |s: &SpanRecord| s.wall_end_ns - s.wall_start_ns;
        // The leaves gain their shares of the pass: 3/4 and the rest.
        assert_eq!(wall_ns(&spans[2]), wall_ns(&before[2]) + pass * 3 / 4);
        assert_eq!(
            wall_ns(&spans[4]),
            wall_ns(&before[4]) + pass - pass * 3 / 4
        );
        // The frame keeps its length: the pass moved, it did not grow.
        assert_eq!(spans[0].wall_start_ns, before[0].wall_start_ns);
        assert!(spans[0].wall_end_ns >= end);
        // Children stay inside their parents, in both phases.
        for s in &spans[1..] {
            let p = spans.iter().find(|p| p.id == s.parent).unwrap();
            assert!(p.wall_start_ns <= s.wall_start_ns && s.wall_end_ns <= p.wall_end_ns);
        }
        // The first phase now reports the first kernel's share.
        assert!(wall_ns(&spans[1]) >= pass * 3 / 4);
    }

    #[test]
    fn leaf_wall_uses_gap_rule() {
        let mut ring = SpanRing::new(64);
        ring.leaf(SpanKind::Host, name("first"), 0.0, 0.0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        ring.leaf(SpanKind::Host, name("second"), 0.0, 0.0);
        let spans = ring.snapshot();
        // The second leaf's wall interval starts where the first ended.
        assert_eq!(spans[1].wall_start_ns, spans[0].wall_end_ns);
        assert!(spans[1].wall_s() >= 1e-3, "{}", spans[1].wall_s());
    }
}
