//! In-memory span recorder for the traced run.
//!
//! Spans are opened around calls into one layer, nest through the
//! closure passed to [`Tracer::span`], and stay in memory until the run
//! writes them out once with [`Tracer::write_json`]. A disabled tracer
//! runs the same closures and records nothing, which is what the
//! untraced pass of the overhead measurement uses.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`"trace.record"`).
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Sample (repetition) the span belongs to.
    pub sample: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// See the [module docs](self).
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    sample: u64,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every span a plain call.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            sample: 0,
        }
    }

    /// Tag the spans opened from now on with sample id `id`.
    pub fn set_sample(&mut self, id: u64) {
        self.sample = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            sample: self.sample,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Durations in seconds of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Summed duration in seconds of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part of it its child spans cover. Children of one span never
    /// overlap (the recorder is single-threaded), so the covered part is
    /// the sum of their durations.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name.clone()).or_insert(0.0) +=
                s.duration_ns().saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as one JSON array.
    ///
    /// # Errors
    ///
    /// Creating the parent directory or writing the file.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"sample\": {}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.sample,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let selfs = t.self_times();
        assert!(selfs["inner"] >= 0.02);
        assert!(selfs["outer"] < t.total("outer") - 0.019);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.durations("x").is_empty());
    }
}
