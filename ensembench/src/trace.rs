//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as TSV when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call: `parent` is the index of the enclosing span and `op` the
/// operation (request or batch) it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub op: u64,
}

/// The span store shared by every thread of a traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span store is never poisoned")
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let span = Span {
            name,
            start: start.duration_since(self.origin),
            end: end.duration_since(self.origin),
            parent,
            op,
        };
        let mut spans = self.lock();
        spans.push(span);
        spans.len() - 1
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's index so
    /// it can parent child spans to it.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = self.record(name, Instant::now(), Instant::now(), parent, op);
        let out = f(id);
        let end = Instant::now().duration_since(self.origin);
        self.lock()[id].end = end;
        out
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    }

    /// Durations in milliseconds of the spans named `name` whose parent span
    /// is named `parent`.
    pub fn child_durations_ms(&self, name: &str, parent: &str) -> Vec<f64> {
        let spans = self.lock();
        spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| spans[p].name == parent))
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    }

    /// Mean duration in milliseconds of the spans named `name` (0 when
    /// there are none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let d = self.durations_ms(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    /// Writes every span as one TSV line: index, name, start and end in
    /// microseconds since the run began, parent index (`-` for none), op.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "id\tname\tstart_us\tend_us\tparent\top")?;
        for (id, s) in self.lock().iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{:.1}\t{:.1}\t{parent}\t{}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.op
            )?;
        }
        out.flush()
    }

    /// [`Tracer::write_tsv`] into the file at `path`, creating its directory.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        self.write_tsv(&mut std::io::BufWriter::new(std::fs::File::create(path)?))
    }
}

/// Runs `f` inside a span when tracing, or just runs it.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    f: impl FnOnce(Option<usize>) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, op, |id| f(Some(id))),
        None => f(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_are_written_out() {
        let tracer = Tracer::default();
        let total = span(Some(&tracer), "op", None, 3, |parent| {
            span(Some(&tracer), "child", parent, 3, |_| 1) + 1
        });
        assert_eq!(total, 2);
        let spans = tracer.lock().clone();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end >= spans[1].end);
        assert_eq!(tracer.durations_ms("child").len(), 1);
        assert_eq!(tracer.child_durations_ms("child", "op").len(), 1);
        assert!(tracer.child_durations_ms("child", "other").is_empty());
        assert_eq!(span(None, "untraced", None, 0, |id| id), None);

        let mut out = Vec::new();
        tracer.write_tsv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().contains("\tchild\t"));
    }
}
