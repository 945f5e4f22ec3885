//! In-memory spans recorded around calls into each layer's public
//! functions, written out when the run ends.
//!
//! A span records its name, start, end, parent and the id of the
//! deployment (or model) it belongs to. Spans nest through a stack. A
//! *replay* span re-runs one of a deployment's planning passes on the
//! same inputs right after the deploy call returned; it is attributed to
//! the deploy span as a child even though it runs outside the deploy
//! interval, so the deploy span's self time is its duration minus its
//! replayed plan work.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, e.g. `deploy`, `plan.split`, `exec.infer.vmcu`.
    pub name: String,
    /// Deployment/model id shared by every span of one deployment.
    pub id: u64,
    /// Index of the parent span.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Re-run of a planning pass, attributed to `parent`.
    pub replay: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (`None` while the tracer is off).
pub type Handle = Option<usize>;

/// Span recorder; costs one branch per call while off.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing until [`set_on`](Self::set_on).
    pub fn new() -> Self {
        Self {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off (no span may be open).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "spans still open");
        self.on = on;
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 500 years")
    }

    fn open(&mut self, name: String, id: u64, parent: Option<usize>, replay: bool) -> Handle {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
            replay,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Some(idx)
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>, id: u64) -> Handle {
        let parent = self.stack.last().copied();
        self.open(name.into(), id, parent, false)
    }

    /// Opens a replay span attributed to the (closed) span `of`.
    pub fn begin_replay(&mut self, name: impl Into<String>, id: u64, of: Handle) -> Handle {
        self.open(name.into(), id, of, true)
    }

    /// Closes the innermost open span, which must be `h`.
    pub fn end(&mut self, h: Handle) {
        if let Some(idx) = h {
            assert_eq!(self.stack.pop(), Some(idx), "spans close innermost first");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of every span: its duration minus its children's. Signed,
/// because a replayed plan pass can run slightly longer than the deploy
/// call that contained it.
pub fn self_ns(spans: &[Span]) -> Vec<i128> {
    let mut out: Vec<i128> = spans.iter().map(|s| i128::from(s.dur_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= i128::from(s.dur_ns());
        }
    }
    out
}

/// Checks the span tree: every nested child lies inside its parent's
/// interval, and self times sum to the root spans' total duration.
pub fn check_tree(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        let Some(p) = s.parent else { continue };
        let parent = &spans[p];
        if p >= i {
            return Err(format!("span {i} `{}` precedes its parent", s.name));
        }
        if !s.replay && (s.start_ns < parent.start_ns || s.end_ns > parent.end_ns) {
            return Err(format!("span {i} `{}` escapes `{}`", s.name, parent.name));
        }
    }
    let total: i128 = self_ns(spans).iter().sum();
    let roots: i128 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| i128::from(s.dur_ns()))
        .sum();
    if total == roots {
        Ok(())
    } else {
        Err(format!("self times sum to {total} ns, roots to {roots} ns"))
    }
}

/// Sum of the durations of spans named `name`, in milliseconds.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    let ns: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum();
    ns as f64 / 1e6
}

/// Sum of the self times of spans named `name`, in milliseconds.
pub fn self_ms(spans: &[Span], name: &str) -> f64 {
    let own = self_ns(spans);
    let ns: i128 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, n)| *n)
        .sum();
    ns as f64 / 1e6
}

/// The spans as a JSON array, one object per line.
pub fn to_json(spans: &[Span]) -> String {
    let own = self_ns(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(&own)
        .map(|(s, own)| {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            format!(
                "{{\"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}, \"replay\": {}}}",
                s.name, s.id, s.start_ns, s.end_ns, s.replay
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_roots_with_replays() {
        let mut t = Tracer::new();
        t.set_on(true);
        let pass = t.begin("pass", 0);
        let deploy = t.begin("deploy", 1);
        t.end(deploy);
        let replay = t.begin_replay("plan.graph", 1, deploy);
        t.end(replay);
        let audit = t.begin("verify.audit", 1);
        t.end(audit);
        t.end(pass);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        check_tree(spans).unwrap();
        let own = self_ns(spans);
        assert_eq!(
            own[1],
            i128::from(spans[1].dur_ns()) - i128::from(spans[2].dur_ns())
        );
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new();
        let h = t.begin("deploy", 0);
        t.end(h);
        assert!(t.spans().is_empty());
    }
}
