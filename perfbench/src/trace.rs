//! In-memory span recorder for traced runs. Spans are taken from the
//! benchmark's own files, around the calls into each layer; nothing is
//! recorded inside the engine crates.

use std::time::Instant;

/// One recorded interval. `op` is the layer boundary (`round`, `query`,
/// `execute`, `replay`, `stream.gather`, …); `name` says which cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records nested spans from the single caller thread. A disabled
/// recorder (untraced runs) ignores every call.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn push(&mut self, op: &'static str, name: &str, start: Instant, end: Instant) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op,
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Open a container span under the innermost open one.
    pub fn open(&mut self, op: &'static str, name: &str) {
        if self.enabled {
            let now = Instant::now();
            let id = self.push(op, name, now, now);
            self.open.push(id);
        }
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if self.enabled {
            let id = self.open.pop().expect("close without open");
            self.spans[id as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Record an already-measured interval as a child of the innermost
    /// open span, so the span and the reported timing are one clock read.
    pub fn leaf(&mut self, op: &'static str, name: &str, start: Instant, end: Instant) {
        if self.enabled {
            self.push(op, name, start, end);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of each span: its duration minus what its direct children
/// cover. `None` if a child overruns its parent (a recorder bug).
pub fn self_times(spans: &[Span]) -> Option<Vec<u64>> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].checked_sub(s.end_ns - s.start_ns)?;
        }
    }
    Some(own)
}

/// The span file: the host fingerprint plus every span, one per line.
pub fn to_json(header: &str, spans: &[Span]) -> String {
    let mut out = format!("{{\"run\": {header},\n \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"id\": {}, \"parent\": {parent}, \"op\": \"{}\", \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}{}\n",
            s.id,
            s.op,
            s.name,
            s.start_ns,
            s.end_ns,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str(" ]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: "x",
            name: String::new(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 60, 90),
        ];
        assert_eq!(self_times(&spans), Some(vec![20, 40, 10, 30]));
    }

    #[test]
    fn overrunning_child_is_reported() {
        let spans = [span(0, None, 0, 10), span(1, Some(0), 0, 11)];
        assert_eq!(self_times(&spans), None);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.open("round", "0");
        rec.open("query", "cheetah/distinct");
        let t0 = Instant::now();
        rec.leaf("execute", "cheetah/distinct", t0, Instant::now());
        rec.close();
        rec.close();
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(self_times(spans).is_some());

        let mut off = Recorder::new(false);
        off.open("round", "0");
        off.leaf("execute", "x", t0, t0);
        off.close();
        assert!(off.spans().is_empty());
    }
}
