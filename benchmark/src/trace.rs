//! The span recorder of the traced run. Spans are recorded *by the
//! benchmark*, around its calls into each layer's public functions; they
//! stay in memory and are written out as JSON lines when the run ends.
//! (Spans inside the engine are a later issue.)

use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Index of a span in its recorder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded interval: `<layer>.<op>`, when, caused by which span, and
/// the commit (or wave) it belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub commit: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store with a stack of open spans: a span entered while
/// another is open becomes its child.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, commit: u64) -> SpanId {
        let id = SpanId(self.spans.len());
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            commit,
        });
        self.open.push(id);
        id
    }

    /// Close `id` (which must be the innermost open span) and return how
    /// long it lasted.
    pub fn exit(&mut self, id: SpanId) -> Duration {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost-first");
        let span = &mut self.spans[id.0];
        span.end_ns = now;
        Duration::from_nanos(span.duration_ns())
    }

    /// Record a leaf span around `f`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        commit: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.enter(name, commit);
        let out = f();
        (out, self.exit(id))
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Self time of every span: its duration minus the part its children
    /// cover. (Children of one parent never overlap here — one thread, one
    /// stack — so their durations simply add.)
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(SpanId(p)) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// For every root span called `name`: the share of it covered by its
    /// direct children (1 − self share). The acceptance check wants the
    /// median of this within 5 % of 1 for commit spans.
    pub fn child_cover(&self, name: &str) -> Vec<f64> {
        let own = self.self_times_ns();
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name && s.duration_ns() > 0)
            .map(|(s, &own)| 1.0 - own as f64 / s.duration_ns() as f64)
            .collect()
    }

    /// One JSON object per span, in recording order.
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        let own = self.self_times_ns();
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s
                .parent
                .map_or("null".to_owned(), |SpanId(p)| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"commit\":{}}}",
                s.name, s.start_ns, s.end_ns, s.commit
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-set times: commit [0,100] ⊃ prepare [10,30],
    /// apply [30,90] ⊃ view [40,70]; then a second root.
    fn fixture() -> Recorder {
        let mut r = Recorder::new();
        let commit = r.enter("engine.commit", 7);
        let prepare = r.enter("engine.prepare", 7);
        r.exit(prepare);
        let apply = r.enter("engine.apply", 7);
        let view = r.enter("rpq.apply", 7);
        r.exit(view);
        r.exit(apply);
        r.exit(commit);
        let (_, _) = r.span("graph.normalize", 8, || ());
        for (i, (a, b)) in [(0, 100), (10, 30), (30, 90), (40, 70), (200, 260)]
            .into_iter()
            .enumerate()
        {
            r.spans[i].start_ns = a;
            r.spans[i].end_ns = b;
        }
        r
    }

    #[test]
    fn nesting_links_children_to_the_innermost_open_span() {
        let r = fixture();
        let parents: Vec<Option<SpanId>> = r.spans.iter().map(|s| s.parent).collect();
        assert_eq!(
            parents,
            vec![
                None,
                Some(SpanId(0)),
                Some(SpanId(0)),
                Some(SpanId(2)),
                None
            ]
        );
        assert!(r.spans.iter().take(4).all(|s| s.commit == 7));
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let r = fixture();
        // commit 100 − (20 + 60); prepare 20; apply 60 − 30; view 30; root 60
        assert_eq!(r.self_times_ns(), vec![20, 20, 30, 30, 60]);
        assert_eq!(r.child_cover("engine.commit"), vec![0.8]);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn closing_out_of_order_is_a_bug() {
        let mut r = Recorder::new();
        let a = r.enter("a", 0);
        let _b = r.enter("b", 0);
        r.exit(a);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut out = Vec::new();
        fixture().write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
        assert!(text.contains("\"name\":\"rpq.apply\",\"start_ns\":40,\"end_ns\":70,\"self_ns\":30,\"parent\":2,\"commit\":7"));
    }
}
