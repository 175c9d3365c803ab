//! In-memory span recorder for the traced replay.
//!
//! The replay runs one request at a time on one thread, so spans nest
//! strictly: a span's parent is whichever span was open when it started.
//! Spans and counters stay in memory and are written out when the run ends.

use std::io::Write;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// One work count recorded at a layer boundary.
#[derive(Clone, Debug)]
pub struct Count {
    pub name: &'static str,
    pub request: u64,
    pub value: f64,
}

/// Records spans and counts of the current request.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    request: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
    pub counts: Vec<Count>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }
}

impl Tracer {
    /// Tags every following span and count with request `id`.
    pub fn begin_request(&mut self, id: u64) {
        debug_assert!(self.stack.is_empty(), "a span is still open");
        self.request = id;
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.stack.last().copied(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
        });
        self.stack.push(index);
        let value = f(self);
        self.stack.pop();
        self.spans[index].end = self.epoch.elapsed();
        value
    }

    /// Records a work count for the current request.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.push(Count {
            name,
            request: self.request,
            value,
        });
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| crate::driver::ms(s.end - s.start))
            .collect()
    }

    /// Self times (ms) of every span called `name`: its duration minus the
    /// time its children cover.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| crate::driver::ms((s.end - s.start).saturating_sub(*c)))
            .collect()
    }

    /// Values of every count called `name`.
    pub fn counts_of(&self, name: &str) -> Vec<f64> {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect()
    }

    /// Writes spans and counts as JSON lines.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"span":{i},"name":"{}","request":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name,
                s.request,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        for c in &self.counts {
            writeln!(
                out,
                r#"{{"count":"{}","request":{},"value":{}}}"#,
                c.name, c.request, c.value
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.begin_request(7);
        t.span("outer", |t| {
            std::thread::sleep(Duration::from_millis(2));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(5)));
        });
        let outer = t.durations_ms("outer")[0];
        let inner = t.durations_ms("inner")[0];
        let own = t.self_times_ms("outer")[0];
        assert!(inner >= 5.0 && outer >= inner + 2.0);
        assert!((outer - inner - own).abs() < 1e-9);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].request, 7);
    }
}
