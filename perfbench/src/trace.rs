//! The benchmark's span recorder. Spans are recorded by the benchmark's
//! own code around calls into each crate's public entry points; nothing is
//! recorded inside the crates. Spans stay in memory and are written out
//! once, when the run ends.

use std::io::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// How a span relates to the op it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The op itself, or a call it made.
    Op,
    /// A replayed call: the benchmark repeats, against its own caches, a
    /// call that an opaque layer made inside the op. Its duration counts
    /// as covered time of its parent when self time is computed.
    Replay,
    /// An extra measurement of one layer that the op itself did not make
    /// (for example a cold price of a schedule the op priced warm).
    Probe,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
    pub role: Role,
    /// Units of work the call did (rows, elements, words); 1 for a call.
    pub work: u64,
}

impl Span {
    pub fn ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64
    }

    /// Host nanoseconds per unit of work.
    pub fn ns_per_work(&self) -> f64 {
        self.ns() / self.work.max(1) as f64
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Nanoseconds since the tracer was created: the start stamp of a span.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The instant the tracer clock counts from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Adds a span whose stamps were taken on the tracer clock elsewhere
    /// (by client threads that must not share the recorder while timed).
    pub fn push(&mut self, span: Span) -> SpanId {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a span that started at `start_ns` and ends now.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        parent: Option<SpanId>,
        op: u64,
        role: Role,
        work: u64,
    ) -> SpanId {
        let end_ns = self.now();
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            role,
            work,
        })
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans named `name`.
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of the spans named `name`, scaled by `1 / unit_ns`.
    pub fn durations(&self, name: &str, unit_ns: f64) -> Vec<f64> {
        self.named(name).map(|s| s.ns() / unit_ns).collect()
    }

    /// Per-work-unit nanoseconds of the spans named `name`.
    pub fn per_work(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ns_per_work).collect()
    }

    /// Self time of span `id`: its duration minus the part covered by its
    /// children. Replayed children ran after their parent, so their whole
    /// duration counts as covered.
    pub fn self_ns(&self, id: SpanId) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id) && s.role != Role::Probe)
            .map(Span::ns)
            .sum();
        self.spans[id].ns() - covered
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{},\"role\":\"{:?}\",\"work\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.role,
                s.work
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_replayed_children_but_not_probes() {
        let t = Tracer {
            epoch: Instant::now(),
            spans: vec![
                Span {
                    name: "batch",
                    start_ns: 0,
                    end_ns: 100,
                    parent: None,
                    op: 0,
                    role: Role::Op,
                    work: 1,
                },
                Span {
                    name: "child",
                    start_ns: 100,
                    end_ns: 130,
                    parent: Some(0),
                    op: 0,
                    role: Role::Replay,
                    work: 1,
                },
                Span {
                    name: "probe",
                    start_ns: 130,
                    end_ns: 190,
                    parent: Some(0),
                    op: 0,
                    role: Role::Probe,
                    work: 1,
                },
            ],
        };
        assert_eq!(t.self_ns(0), 70.0);
        assert_eq!(t.per_work("probe"), vec![60.0]);
    }
}
