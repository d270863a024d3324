//! The traced run: spans recorded from outside the tracer, around the
//! calls into each layer's public functions, and the layer-by-layer
//! replica of the batch and streaming correlation paths those spans
//! need.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tracer_core::access::Classifier;
use tracer_core::prelude::*;
use tracer_core::ranker::RankStep;
use tracer_core::raw::IngestDecision;
use tracer_core::{Engine, Ranker};

/// Span names. Each maps to one layer; a layer's time is the self time
/// of its spans (duration minus what child spans cover).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum Name {
    Run,
    Read,
    Parse,
    Decode,
    Sort,
    Dedup,
    Classify,
    Filter,
    RankerPush,
    Correlate,
    Rank,
    Deliver,
    Seal,
    Canonicalize,
    Patterns,
    Breakdown,
    ShardRoute,
    ShardFinish,
    DistRoute,
    DistFinish,
    ServeRun,
    ServeSealed,
    Compare,
}

/// Printable span names, indexed by `Name as usize`.
pub const NAMES: [&str; 23] = [
    "run",
    "ingest.read",
    "raw.parse",
    "binfmt.decode",
    "ranker.sort",
    "raw.dedup",
    "access.classify",
    "filter.admit",
    "ranker.push",
    "correlator.pump",
    "ranker.rank",
    "engine.deliver",
    "engine.seal",
    "correlator.canonicalize",
    "pattern.aggregate",
    "analysis.breakdown",
    "shard.route",
    "shard.finish",
    "dist.route",
    "dist.finish",
    "serve.run",
    "serve.sealed",
    "compare",
];

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: Name,
    parent: u32,
    start: u64,
    end: u64,
}

/// Spans kept in memory and written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: Name) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end = end;
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Duration of the first span with this name, in seconds.
    pub fn first_duration_s(&self, name: Name) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64 / 1e9)
    }

    /// Self time per span name, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let own = (s.end - s.start).saturating_sub(c);
            *out.entry(NAMES[s.name as usize]).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Writes every span: a text header naming the span kinds, then one
    /// little-endian 24-byte record per span — `parent: u32` (index of
    /// the parent span, `u32::MAX` for a root), `name: u32` (index into
    /// the header's names), `start_ns: u64`, `end_ns: u64`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "PTSPANS v1 spans={} names={}",
            self.spans.len(),
            NAMES.join(",")
        )?;
        for s in &self.spans {
            w.write_all(&s.parent.to_le_bytes())?;
            w.write_all(&(s.name as u32).to_le_bytes())?;
            w.write_all(&s.start.to_le_bytes())?;
            w.write_all(&s.end.to_le_bytes())?;
        }
        w.flush()
    }
}

/// Per-record bookkeeping of the replica, mirroring what the streaming
/// correlator counts.
#[derive(Debug, Default)]
struct Loop {
    records_in: u64,
    filtered_out: u64,
    retrans_dropped: u64,
    since_sample: u64,
    last_prune: usize,
    cags_finished: u64,
    peak_bytes: usize,
    ready: Vec<Cag>,
    noise_samples: Vec<Activity>,
}

/// How many noise victims the correlator keeps for diagnostics.
const NOISE_SAMPLE_CAP: usize = 32;
/// New context-map entries between two periodic stale-context sweeps.
const CMAP_GC_GROWTH: usize = 1_024;

/// The correlation layers, driven one by one through their public
/// functions exactly as the single-instance correlator drives them.
struct Replica<'c> {
    cfg: &'c CorrelatorConfig,
    classifier: Classifier,
    dedup: RangeDedup,
    ranker: Ranker,
    engine: Engine,
    st: Loop,
}

impl<'c> Replica<'c> {
    fn new(cfg: &'c CorrelatorConfig) -> Self {
        assert!(
            cfg.memory_budget.is_none(),
            "the replica has no spill tier; run it unbudgeted"
        );
        Replica {
            cfg,
            classifier: Classifier::new(cfg.access.clone()),
            dedup: RangeDedup::new(),
            ranker: Ranker::new(cfg.ranker),
            engine: Engine::new(cfg.engine.clone()),
            st: Loop::default(),
        }
    }

    /// Ingest of one batch, layer after layer: range dedup, classify,
    /// filter, then the ranker's queues. Each layer is a pure function
    /// of its own state and the record, so running them batch-wise
    /// decides exactly what record-wise interleaving decides.
    fn stage(&mut self, batch: Vec<RawRecord>, tr: &mut Tracer) {
        let s = tr.begin(Name::Dedup);
        self.st.records_in += batch.len() as u64;
        let mut admitted = Vec::with_capacity(batch.len());
        for mut rec in batch {
            match self.dedup.decide_owned(&rec) {
                IngestDecision::Drop => self.st.retrans_dropped += 1,
                IngestDecision::Admit(size) => {
                    rec.size = size;
                    admitted.push(rec);
                }
            }
        }
        tr.end(s);
        let s = tr.begin(Name::Classify);
        let acts: Vec<Activity> = admitted
            .iter()
            .map(|r| self.classifier.classify(r))
            .collect();
        tr.end(s);
        let s = tr.begin(Name::Filter);
        let before = acts.len();
        let acts: Vec<Activity> = acts
            .into_iter()
            .filter(|a| self.cfg.filters.admits(a))
            .collect();
        self.st.filtered_out += (before - acts.len()) as u64;
        tr.end(s);
        let s = tr.begin(Name::RankerPush);
        for a in acts {
            self.ranker.push(a);
        }
        tr.end(s);
    }

    /// Ranks and delivers until the ranker needs input; rank and
    /// deliver interleave, so each call is its own span.
    fn pump(&mut self, tr: &mut Tracer) {
        let p = tr.begin(Name::Correlate);
        loop {
            let s = tr.begin(Name::Rank);
            let step = self.ranker.rank(&self.engine);
            tr.end(s);
            match step {
                RankStep::Candidate(a) => {
                    let s = tr.begin(Name::Deliver);
                    self.engine.deliver(a);
                    tr.end(s);
                    self.st.since_sample += 1;
                    if self.st.since_sample >= self.cfg.mem_sample_every.max(1) {
                        self.st.since_sample = 0;
                        self.sample(tr);
                    }
                }
                RankStep::Noise(a) => {
                    if self.st.noise_samples.len() < NOISE_SAMPLE_CAP {
                        self.st.noise_samples.push(a);
                    }
                }
                RankStep::NeedInput | RankStep::Exhausted => break,
            }
        }
        tr.end(p);
    }

    /// A sampling boundary: sealed CAGs leave the engine, the periodic
    /// context GC runs, the state gauge is read.
    fn sample(&mut self, tr: &mut Tracer) {
        let s = tr.begin(Name::Seal);
        let sealed = self.engine.take_sealed(self.cfg.max_seal_lag);
        self.st.cags_finished += sealed.len() as u64;
        self.st.ready.extend(sealed);
        if self.engine.context_count() >= self.st.last_prune + CMAP_GC_GROWTH {
            self.engine.prune_stale_contexts();
            self.st.last_prune = self.engine.context_count();
        }
        let cur = self.ranker.approx_bytes() + self.engine.approx_bytes();
        self.st.peak_bytes = self.st.peak_bytes.max(cur);
        tr.end(s);
    }

    fn finish(mut self, tr: &mut Tracer) -> CorrelationOutput {
        self.ranker.close_all();
        self.pump(tr);
        let s = tr.begin(Name::Seal);
        let mut cags = std::mem::take(&mut self.st.ready);
        let flushed = self.engine.take_finished();
        self.st.cags_finished += flushed.len() as u64;
        cags.extend(flushed);
        let unfinished = self.engine.take_unfinished();
        tr.end(s);
        let final_bytes = self.ranker.approx_bytes() + self.engine.approx_bytes();
        let engine = *self.engine.counters();
        let metrics = CorrelatorMetrics {
            records_in: self.st.records_in,
            filtered_out: self.st.filtered_out,
            retrans_dropped: self.st.retrans_dropped,
            seq_dedup_ranges: self.dedup.seq_dedup_ranges,
            v2_records: self.dedup.v2_records,
            seq_gaps: self.dedup.seq_gaps,
            ranker: *self.ranker.counters(),
            engine,
            cags_finished: self.st.cags_finished,
            cags_unfinished: unfinished.len() as u64 + engine.budget_evicted_cags,
            peak_bytes: self.st.peak_bytes.max(final_bytes),
            final_bytes,
            ..CorrelatorMetrics::default()
        };
        let mut out = CorrelationOutput {
            cags,
            unfinished,
            metrics,
            noise_samples: self.st.noise_samples,
        };
        let s = tr.begin(Name::Canonicalize);
        out.canonicalize();
        tr.end(s);
        out
    }
}

/// The batch path of `Pipeline::run` (`Mode::Batch`), layer by layer:
/// records grouped per host and sorted by local time (the paper's first
/// round), staged host by host, then drained.
pub fn replica_batch(
    cfg: &CorrelatorConfig,
    records: Vec<RawRecord>,
    tr: &mut Tracer,
) -> CorrelationOutput {
    let s = tr.begin(Name::Sort);
    let mut streams: BTreeMap<Arc<str>, Vec<RawRecord>> = BTreeMap::new();
    for rec in records {
        streams
            .entry(Arc::clone(&rec.hostname))
            .or_default()
            .push(rec);
    }
    for recs in streams.values_mut() {
        recs.sort_by_key(|r| r.ts);
    }
    tr.end(s);
    let mut r = Replica::new(cfg);
    for (host, recs) in streams {
        r.stage(recs, tr);
        r.ranker.close_host(&host);
    }
    r.finish(tr)
}

/// The streaming path (`Mode::Streaming` session) on records in arrival
/// order: staged in batches of `batch` records with a poll after each.
pub fn replica_streaming(
    cfg: &CorrelatorConfig,
    records: Vec<RawRecord>,
    batch: usize,
    tr: &mut Tracer,
) -> CorrelationOutput {
    let mut r = Replica::new(cfg);
    let mut it = records.into_iter();
    loop {
        let chunk: Vec<RawRecord> = it.by_ref().take(batch).collect();
        if chunk.is_empty() {
            break;
        }
        r.stage(chunk, tr);
        r.pump(tr);
    }
    r.finish(tr)
}

/// Pushes records into a session in batches, one span per batch.
pub fn push_batches(
    session: &mut PipelineSession,
    records: Vec<RawRecord>,
    batch: usize,
    name: Name,
    tr: &mut Tracer,
) -> Result<(), TraceError> {
    let mut it = records.into_iter();
    loop {
        let chunk: Vec<RawRecord> = it.by_ref().take(batch).collect();
        if chunk.is_empty() {
            return Ok(());
        }
        let s = tr.begin(name);
        for rec in chunk {
            session.push(rec)?;
        }
        tr.end(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::default();
        let root = tr.begin(Name::Run);
        let a = tr.begin(Name::Read);
        tr.end(a);
        let b = tr.begin(Name::Parse);
        let c = tr.begin(Name::Dedup);
        tr.end(c);
        tr.end(b);
        tr.end(root);
        let total: f64 = tr.self_times().values().sum();
        let root_s = tr.first_duration_s(Name::Run).unwrap();
        assert!((total - root_s).abs() < 1e-9, "{total} vs {root_s}");
        assert_eq!(tr.len(), 4);
    }

    #[test]
    fn replicas_equal_the_pipeline() {
        let log = "\
1000 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120
2000 web httpd 7 7 SEND 10.0.0.1:4001-10.0.0.2:9000 64
2500 app java 9 21 RECEIVE 10.0.0.1:4001-10.0.0.2:9000 64
4000 app java 9 21 SEND 10.0.0.2:9000-10.0.0.1:4001 256
4400 web httpd 7 7 RECEIVE 10.0.0.2:9000-10.0.0.1:4001 256
5000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 512
";
        let access = AccessPointSpec::new(
            [80],
            ["10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap()],
        );
        let cfg = PipelineConfig::new(access);
        let expected = Pipeline::new(cfg.clone())
            .unwrap()
            .run(Source::text(log))
            .unwrap();
        let digest = |o: &CorrelationOutput| crate::check::Digests::of(o, "");
        let records = parse_log(log).unwrap();
        let mut tr = Tracer::default();
        let mut batch = replica_batch(&cfg.correlator, records.clone(), &mut tr);
        assert_eq!(digest(&batch), digest(&expected));
        batch.metrics.wall = expected.metrics.wall;
        assert_eq!(batch.metrics, expected.metrics);
        // Polling between batches changes when CAGs seal, not which.
        let streaming = replica_streaming(&cfg.correlator, records, 2, &mut tr);
        assert_eq!(digest(&streaming), digest(&expected));
        assert_eq!(streaming.metrics.engine, expected.metrics.engine);
    }
}
