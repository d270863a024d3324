//! `perfbench` — the tracer's end-to-end and per-layer benchmark.
//!
//! `run.py` drives these subcommands; each prints one `key=value` line
//! (the last line of its standard output):
//!
//! ```text
//! perfbench setup     --workload W --seed N --dir D   simulate, write inputs, build
//! perfbench reference --workload W --seed N --dir D   tagged batch reference + accuracy
//! perfbench run       --workload W --dir D            one measured run, checked
//! perfbench trace     --workload W --dir D --seconds S  traced runs, per-layer metrics
//! perfbench gen       --corpus F --fifo P --t0 NS     the online replay generator
//! perfbench calib                                     the host calibration kernel
//! ```

mod check;
mod online;
mod trace;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use tracer_core::prelude::*;

use check::{analyze, compare, percentile, Digests, DueIndex, Reference};
use online::{serve_once, ServeRun};
use trace::{Name, Tracer};
use workload::{Workload, BATCH, ONLINE_RATE};

type Metrics = BTreeMap<&'static str, f64>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = dispatch(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

struct Args(HashMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut m = HashMap::new();
        let mut it = raw.iter();
        while let Some(k) = it.next() {
            let key = k
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {k:?}"))?;
            let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
            m.insert(key.to_string(), v.clone());
        }
        Ok(Args(m))
    }

    fn get(&self, k: &str) -> Result<&str, String> {
        self.0
            .get(k)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{k}"))
    }

    fn num<T: std::str::FromStr>(&self, k: &str) -> Result<T, String> {
        self.get(k)?
            .parse()
            .map_err(|_| format!("bad --{k} {:?}", self.get(k).unwrap_or_default()))
    }

    fn workload(&self) -> Result<Workload, String> {
        let w = self.get("workload")?;
        Workload::parse(w).ok_or_else(|| format!("unknown workload {w:?}"))
    }

    fn dir(&self) -> Result<PathBuf, String> {
        Ok(PathBuf::from(self.get("dir")?))
    }
}

fn dispatch(raw: &[String]) -> Result<(), String> {
    let (cmd, rest) = raw.split_first().ok_or("missing subcommand")?;
    let a = Args::parse(rest)?;
    let metrics = match cmd.as_str() {
        "setup" => setup(a.workload()?, a.num("seed")?, &a.dir()?)?,
        "reference" => reference(a.workload()?, a.num("seed")?, &a.dir()?)?,
        "run" => run(a.workload()?, &a.dir()?)?,
        "trace" => traced(a.workload()?, &a.dir()?, a.num("seconds")?)?,
        "gen" => {
            return online::generate(
                Path::new(a.get("corpus")?),
                Path::new(a.get("fifo")?),
                a.num("t0")?,
            )
        }
        "calib" => Metrics::from([("host.calib_mops", check::calibrate())]),
        other => return Err(format!("unknown subcommand {other:?}")),
    };
    let line: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("{k}={}", if v.is_finite() { *v } else { 0.0 }))
        .collect();
    println!("{}", line.join(" "));
    Ok(())
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Simulates the corpus, writes the one input file the tracer gets and
/// builds the pipeline (or server) that will read it.
fn setup(w: Workload, seed: u64, dir: &Path) -> Result<Metrics, String> {
    std::fs::create_dir_all(dir).map_err(err)?;
    let total = Instant::now();
    let t = Instant::now();
    let mut records = multitier::run(w.experiment(seed)).records;
    if w == Workload::Online {
        // Arrival order: one time-merged stream, as one FIFO delivers it.
        records.sort_by_key(|r| r.ts);
    }
    let simulate_s = secs(t);
    let t = Instant::now();
    let (bytes, encode_s) = if w == Workload::ShardedPtbin {
        let b = tracer_core::binfmt::encode_records(&records).map_err(err)?;
        (b, secs(t))
    } else {
        let mut text = String::with_capacity(records.len() * 96);
        for r in &records {
            use std::fmt::Write as _;
            let _ = writeln!(text, "{r}");
        }
        (text.into_bytes(), 0.0)
    };
    std::fs::write(w.input(dir), bytes).map_err(err)?;
    // Text is written as it is rendered; PTBIN's encoding is its own step.
    let write_s = secs(t) - encode_s;
    if w == Workload::Online {
        let fifo = dir.join("feed.fifo");
        Server::new(w.serve_config(dir, &fifo)).map_err(err)?;
    } else {
        Pipeline::new(w.pipeline(dir)).map_err(err)?;
    }
    Ok(Metrics::from([
        ("setup_s", secs(total)),
        ("setup.simulate_s", simulate_s),
        ("setup.write_s", write_s),
        ("setup.encode_s", encode_s),
        ("records", records.len() as f64),
    ]))
}

fn reference_path(dir: &Path) -> PathBuf {
    dir.join("reference.txt")
}

/// The tagged reference: the same simulation with its ground-truth
/// tags, correlated in batch mode and scored against the truth.
fn reference(w: Workload, seed: u64, dir: &Path) -> Result<Metrics, String> {
    let sim = multitier::run(w.experiment(seed));
    let records = sim.records.len() as u64;
    let out = Pipeline::new(w.reference_pipeline())
        .map_err(err)?
        .run(Source::records(sim.records))
        .map_err(err)?;
    let acc = sim.truth.evaluate(&out.cags);
    let r = Reference {
        records,
        logged: acc.logged_requests,
        correct: acc.correct_paths,
        false_paths: acc.false_paths,
        digests: Digests::of(&out, &analyze(&out.cags)),
    };
    r.save(&reference_path(dir)).map_err(err)?;
    Ok(Metrics::from([
        ("records", records as f64),
        ("logged", acc.logged_requests as f64),
        ("path_accuracy", acc.accuracy()),
        ("false_paths", acc.false_paths as f64),
        ("cags", out.cags.len() as f64),
    ]))
}

/// Compares an output with the reference, printing any mismatch, and
/// returns `(correct paths, failed operations)`.
fn gate(label: &str, reference: &Reference, out: &CorrelationOutput, analysis: &str) -> (u64, u64) {
    let m = compare(&reference.digests, &Digests::of(out, analysis));
    if !m.is_exact() {
        eprintln!(
            "perfbench: {label}: output differs from the reference: {} reference CAGs missing, \
             {} unexpected CAGs, analysis {}",
            m.missing,
            m.extra,
            if m.analysis { "differs" } else { "equal" }
        );
    }
    reference.score(&m)
}

/// The untraced production path of an offline workload: input file to
/// CAGs plus the pattern and breakdown analysis.
fn offline_once(w: Workload, dir: &Path) -> Result<(CorrelationOutput, String), String> {
    let pipeline = Pipeline::new(w.pipeline(dir)).map_err(err)?;
    let source = match w {
        Workload::ShardedPtbin => Source::binary_path(w.input(dir)),
        _ => Source::path(w.input(dir)),
    };
    let out = pipeline.run(source).map_err(err)?;
    let analysis = analyze(&out.cags);
    Ok((out, analysis))
}

/// Emit latencies of an online run, joined to the generator's schedule.
struct Emit {
    samples: Vec<f64>,
    unjoined: u64,
}

fn emit_latencies(run: &ServeRun, dir: &Path) -> Result<Emit, String> {
    let text = tracer_core::ingest::read_log_file(&dir.join("corpus.log")).map_err(err)?;
    let records = parse_log(&text).map_err(err)?;
    let ts: Vec<u64> = records.iter().map(|r| r.ts.as_nanos()).collect();
    let due = check::schedule(&ts, ONLINE_RATE);
    let index = DueIndex::new(
        records
            .iter()
            .zip(&due)
            .map(|(r, &d)| (&*r.hostname, r.ts.as_nanos(), d)),
    );
    let mut e = Emit {
        samples: Vec::new(),
        unjoined: 0,
    };
    for (at, cag) in run.delivered() {
        let (newest, unjoined) = index.newest_due(cag);
        e.unjoined += unjoined;
        if let Some(d) = newest {
            e.samples
                .push((at as i128 - (run.t0 + d) as i128) as f64 / 1e6);
        }
    }
    if e.unjoined > 0 {
        eprintln!(
            "perfbench: {} CAG vertices match no replayed record",
            e.unjoined
        );
    }
    Ok(e)
}

fn self_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(err)
}

/// One measured run: timed from the first record being available to the
/// last output delivered, then checked against the reference.
fn run(w: Workload, dir: &Path) -> Result<Metrics, String> {
    let reference = Reference::load(&reference_path(dir))?;
    let mut m = Metrics::new();
    let (wall_s, cpu_s, rss_mb, samples, unjoined, correct, failed);
    if w == Workload::Online {
        let r = serve_once(w, dir, &self_exe()?, None)?;
        rss_mb = check::peak_rss_mb();
        if r.gen.records != reference.records {
            return Err(format!(
                "the generator offered {} of {} records",
                r.gen.records, reference.records
            ));
        }
        wall_s = r.t_end.saturating_sub(r.t0) as f64 / 1e9;
        cpu_s = r.cpu_s;
        let out = r.combined();
        (correct, failed) = gate("online", &reference, &out, &analyze(&out.cags));
        let e = emit_latencies(&r, dir)?;
        unjoined = e.unjoined;
        samples = e.samples;
        let live: usize = r.live.iter().map(|(_, c)| c.len()).sum();
        m.insert("live_cags", live as f64);
        m.insert("drained_cags", r.report.output.cags.len() as f64);
        m.insert("records_in", r.report.records_in as f64);
        m.insert("gen_offered_per_s", r.gen.offered_per_s);
        m.insert("gen_late_p99_ms", r.gen.late_p99_ms);
    } else {
        let cpu0 = check::process_cpu_s();
        let t = Instant::now();
        let (out, analysis) = offline_once(w, dir)?;
        wall_s = secs(t);
        cpu_s = check::process_cpu_s() - cpu0;
        rss_mb = check::peak_rss_mb();
        (correct, failed) = gate(w.name(), &reference, &out, &analysis);
        // Offline, every record is available at the start and every CAG
        // is delivered at the end.
        samples = vec![wall_s * 1e3; out.cags.len()];
        unjoined = 0;
    }
    m.extend([
        ("records", reference.records as f64),
        ("wall_s", wall_s),
        ("cpu_s", cpu_s),
        ("rss_mb", rss_mb),
        ("emit_p50_ms", percentile(&samples, 50.0).unwrap_or(0.0)),
        ("emit_p99_ms", percentile(&samples, 99.0).unwrap_or(0.0)),
        ("emit_samples", samples.len() as f64),
        ("unjoined", unjoined as f64),
        ("logged", reference.logged as f64),
        ("correct", correct as f64),
        ("failed", failed as f64),
    ]);
    Ok(m)
}

/// One traced run of a workload: its output and the spans around every
/// layer call.
struct Traced {
    out: CorrelationOutput,
    analysis: String,
    tracer: Tracer,
    /// `dist-text` only: `Pipeline::run` of the same input through one
    /// router and one worker.
    one_router_s: f64,
}

/// Runs the analysis half under spans and closes the root span.
fn finish_traced(mut tr: Tracer, root: u32, out: CorrelationOutput) -> Traced {
    let s = tr.begin(Name::Patterns);
    let agg = PatternAggregator::from_cags(&out.cags);
    let mut analysis = check::render_patterns(&agg);
    tr.end(s);
    let s = tr.begin(Name::Breakdown);
    analysis.push_str(&check::render_breakdowns(&agg));
    tr.end(s);
    tr.end(root);
    Traced {
        out,
        analysis,
        tracer: tr,
        one_router_s: 0.0,
    }
}

fn read_text(tr: &mut Tracer, path: &Path) -> Result<Vec<RawRecord>, String> {
    let s = tr.begin(Name::Read);
    let text = tracer_core::ingest::read_log_file(path).map_err(err)?;
    tr.end(s);
    let s = tr.begin(Name::Parse);
    let records = parse_log(&text).map_err(err)?;
    tr.end(s);
    Ok(records)
}

/// A session of `mode` fed in batches and finished, under spans.
fn session_run(
    w: Workload,
    dir: &Path,
    mode: Mode,
    records: Vec<RawRecord>,
    names: (Name, Name),
    tr: &mut Tracer,
) -> Result<CorrelationOutput, String> {
    let mut session = Pipeline::new(w.pipeline(dir).with_mode(mode))
        .map_err(err)?
        .session()
        .map_err(err)?;
    trace::push_batches(&mut session, records, BATCH, names.0, tr).map_err(err)?;
    let s = tr.begin(names.1);
    let out = session.finish().map_err(err)?;
    tr.end(s);
    Ok(out)
}

fn traced_once(w: Workload, dir: &Path) -> Result<Traced, String> {
    let mut tr = Tracer::default();
    let root = tr.begin(Name::Run);
    let mut out = match w {
        Workload::BatchText => {
            let records = read_text(&mut tr, &w.input(dir))?;
            trace::replica_batch(&w.pipeline(dir).correlator, records, &mut tr)
        }
        Workload::Online => {
            // Unbudgeted: the replica has no spill tier.
            let records = read_text(&mut tr, &w.input(dir))?;
            let cfg = w.reference_pipeline().correlator;
            trace::replica_streaming(&cfg, records, BATCH, &mut tr)
        }
        Workload::ShardedPtbin => {
            let s = tr.begin(Name::Read);
            let buf = tracer_core::binfmt::read_binary_file(w.input(dir)).map_err(err)?;
            tr.end(s);
            let s = tr.begin(Name::Decode);
            let records = tracer_core::binfmt::decode_records(&buf).map_err(err)?;
            tr.end(s);
            let names = (Name::ShardRoute, Name::ShardFinish);
            session_run(w, dir, w.mode(), records, names, &mut tr)?
        }
        Workload::DistText => {
            let records = read_text(&mut tr, &w.input(dir))?;
            let names = (Name::DistRoute, Name::DistFinish);
            session_run(w, dir, w.mode(), records, names, &mut tr)?
        }
    };
    if matches!(w, Workload::ShardedPtbin | Workload::DistText) {
        // The merge already emits canonical order; timed for parity with
        // the single-instance modes.
        let s = tr.begin(Name::Canonicalize);
        out.canonicalize();
        tr.end(s);
    }
    let mut t = finish_traced(tr, root, out);
    if w == Workload::DistText {
        // The same input through `Sharded(2)`: what the wire and the
        // router relay add on top of the in-process host.
        let c = t.tracer.begin(Name::Compare);
        let text = tracer_core::ingest::read_log_file(&w.input(dir)).map_err(err)?;
        let records = parse_log(&text).map_err(err)?;
        let names = (Name::ShardRoute, Name::ShardFinish);
        session_run(w, dir, Mode::Sharded(2), records, names, &mut t.tracer)?;
        t.tracer.end(c);
        // And the untraced production path through a single router: the
        // `Distributed{1x1}` slowdown, next to `trace.untraced_wall_s`.
        let one = w.pipeline(dir).with_mode(Mode::Distributed {
            routers: 1,
            workers_per_router: 1,
        });
        let started = Instant::now();
        let out = Pipeline::new(one)
            .map_err(err)?
            .run(Source::path(w.input(dir)))
            .map_err(err)?;
        drop(out);
        t.one_router_s = secs(started);
    }
    Ok(t)
}

/// The untraced counterpart of [`traced_once`], for the overhead.
fn untraced_once(w: Workload, dir: &Path) -> Result<(f64, CorrelationOutput, String), String> {
    let t = Instant::now();
    let (out, analysis) = if w == Workload::Online {
        let text = tracer_core::ingest::read_log_file(&w.input(dir)).map_err(err)?;
        let mut session = Pipeline::new(w.reference_pipeline().with_mode(Mode::Streaming))
            .map_err(err)?
            .session()
            .map_err(err)?;
        let mut live = Vec::new();
        for (i, rec) in parse_log(&text).map_err(err)?.into_iter().enumerate() {
            session.push(rec).map_err(err)?;
            if (i + 1) % BATCH == 0 {
                live.extend(session.poll().map_err(err)?);
            }
        }
        let mut out = session.finish().map_err(err)?;
        live.append(&mut out.cags);
        out.cags = live;
        out.canonicalize();
        let analysis = analyze(&out.cags);
        (out, analysis)
    } else {
        offline_once(w, dir)?
    };
    Ok((secs(t), out, analysis))
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-layer times of one traced run, from span self times.
fn layer_times(t: &Tracer, records: u64) -> Metrics {
    let st = t.self_times();
    let g = |k: &str| st.get(k).copied().unwrap_or(0.0);
    let dist = g("dist.route") + g("dist.finish");
    let sharded = g("shard.route") + g("shard.finish");
    Metrics::from([
        ("ingest.read_s", g("ingest.read")),
        ("raw.parse_s", g("raw.parse")),
        (
            "raw.parse_ns_per_record",
            g("raw.parse") * 1e9 / records.max(1) as f64,
        ),
        ("binfmt.decode_s", g("binfmt.decode")),
        ("raw.dedup_s", g("raw.dedup")),
        ("access.classify_s", g("access.classify")),
        ("filter.admit_s", g("filter.admit")),
        ("ranker.sort_s", g("ranker.sort")),
        ("ranker.select_s", g("ranker.push") + g("ranker.rank")),
        ("engine.deliver_s", g("engine.deliver") + g("engine.seal")),
        ("correlator.canonicalize_s", g("correlator.canonicalize")),
        ("pattern.aggregate_s", g("pattern.aggregate")),
        ("analysis.breakdown_s", g("analysis.breakdown")),
        ("shard.route_s", g("shard.route")),
        ("shard.finish_s", g("shard.finish")),
        ("dist.route_s", g("dist.route")),
        ("dist.finish_s", g("dist.finish")),
        (
            "dist.wire_overhead_s",
            if dist > 0.0 { dist - sharded } else { 0.0 },
        ),
        ("trace.wall_s", t.first_duration_s(Name::Run).unwrap_or(0.0)),
        ("trace.spans", t.len() as f64),
    ])
}

/// Counters the program reports about a run.
fn counters(m: &CorrelatorMetrics, patterns: usize) -> Metrics {
    let spilled = m.engine.spilled_cags + m.engine.spilled_orphans + m.spilled_dedup_entries;
    let faults = m.engine.spill_faults + m.spill_dedup_faults;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    Metrics::from([
        ("raw.dedup_dropped", m.retrans_dropped as f64),
        ("raw.seq_gaps", m.seq_gaps as f64),
        ("filter.filtered_out", m.filtered_out as f64),
        ("ranker.candidates", m.ranker.candidates as f64),
        ("ranker.swaps", m.ranker.swaps as f64),
        (
            "ranker.swaps_per_candidate",
            ratio(m.ranker.swaps, m.ranker.candidates),
        ),
        ("ranker.noise_discards", m.ranker.noise_discards as f64),
        ("ranker.fetch_boosts", m.ranker.fetch_boosts as f64),
        ("ranker.peak_buffered", m.ranker.peak_buffered as f64),
        ("shard.orphan_dropped", m.orphan_dropped as f64),
        ("shard.aged_settles", m.ranker.aged_settles as f64),
        ("engine.delivered", m.engine.delivered as f64),
        ("engine.send_merges", m.engine.send_merges as f64),
        ("engine.orphan_vertices", m.engine.orphan_vertices as f64),
        ("engine.pruned_contexts", m.engine.pruned_contexts as f64),
        ("correlator.peak_state_bytes", m.peak_bytes as f64),
        ("pattern.count", patterns as f64),
        ("spill.spilled", spilled as f64),
        ("spill.faults", faults as f64),
        ("spill.fault_ratio", ratio(faults, spilled)),
        ("spill.pages_written", m.spill_pages_written as f64),
        ("spill.pages_read", m.spill_pages_read as f64),
        ("spill.queue_hits", m.spill_queue_hits as f64),
    ])
}

/// The serve-side metrics of an online run (zero on offline workloads).
fn serve_metrics(run: Option<(&ServeRun, &Emit)>) -> Metrics {
    let mut m = Metrics::from([
        ("serve.live_cags_share", 0.0),
        ("serve.p99_seal_lag_records", 0.0),
        ("serve.state_bytes_vs_rss", 0.0),
        ("serve.shed_records", 0.0),
        ("serve.torn_retries", 0.0),
        ("serve.emit_samples", 0.0),
        ("gen.offered_records_per_s", 0.0),
        ("gen.late_p99_ms", 0.0),
    ]);
    if let Some((r, e)) = run {
        let live: usize = r.live.iter().map(|(_, c)| c.len()).sum();
        let total = live + r.report.output.cags.len();
        let rss = r.report.peak_rss_bytes.unwrap_or(0);
        m.extend([
            ("serve.live_cags_share", live as f64 / total.max(1) as f64),
            ("serve.p99_seal_lag_records", r.report.p99_seal_lag as f64),
            (
                "serve.state_bytes_vs_rss",
                r.report.peak_state_bytes as f64 / rss.max(1) as f64,
            ),
            ("serve.shed_records", r.report.shed_records() as f64),
            (
                "serve.torn_retries",
                r.report.sources.iter().map(|s| s.torn_retries).sum::<u64>() as f64,
            ),
            ("serve.emit_samples", e.samples.len() as f64),
            ("gen.offered_records_per_s", r.gen.offered_per_s),
            ("gen.late_p99_ms", r.gen.late_p99_ms),
        ]);
    }
    m
}

/// The traced run: traced and untraced runs alternate for `seconds`;
/// per-layer times are medians over the traced runs, the overhead is
/// the difference of the two medians. Spans of the last traced run go
/// to `spans.bin` in `dir`.
fn traced(w: Workload, dir: &Path, seconds: f64) -> Result<Metrics, String> {
    let reference = Reference::load(&reference_path(dir))?;
    let (mut checks, mut failed) = (0u64, 0u64);
    let mut check_out = |label: &str, out: &CorrelationOutput, analysis: &str| {
        checks += 1;
        gate(label, &reference, out, analysis).1
    };
    let start = Instant::now();
    let serve = if w == Workload::Online {
        let mut tr = Tracer::default();
        let r = serve_once(w, dir, &self_exe()?, Some(&mut tr))?;
        tr.write(&dir.join("serve-spans.bin")).map_err(err)?;
        let out = r.combined();
        failed += check_out("online serve", &out, &analyze(&out.cags));
        let e = emit_latencies(&r, dir)?;
        Some((r, e))
    } else {
        None
    };
    let mut layers: Vec<Metrics> = Vec::new();
    let mut untraced_s = Vec::new();
    let mut last = None;
    while layers.is_empty() || secs(start) < seconds {
        let t = traced_once(w, dir)?;
        failed += check_out("traced replica", &t.out, &t.analysis);
        let (wall, out, analysis) = untraced_once(w, dir)?;
        failed += check_out("untraced run", &out, &analysis);
        if w == Workload::BatchText {
            // The replica drives the same layers as `Pipeline::run`: its
            // counters must agree too, not only its CAGs.
            let mut replica = t.out.metrics.clone();
            replica.wall = out.metrics.wall;
            if replica != out.metrics {
                eprintln!("perfbench: traced replica counters differ from Pipeline::run");
                failed += reference.logged;
            }
        }
        untraced_s.push(wall);
        let mut l = layer_times(&t.tracer, reference.records);
        l.insert("dist.one_router_s", t.one_router_s);
        layers.push(l);
        last = Some(t);
    }
    let last = last.expect("at least one traced run");
    last.tracer.write(&dir.join("spans.bin")).map_err(err)?;
    let mut m = Metrics::new();
    for k in layers[0].keys() {
        let v: Vec<f64> = layers.iter().map(|l| l[k]).collect();
        m.insert(k, median(&v));
    }
    let untraced = median(&untraced_s);
    m.insert("trace.untraced_wall_s", untraced);
    m.insert("trace.overhead_s", m["trace.wall_s"] - untraced);
    m.insert("trace.overhead_share", m["trace.wall_s"] / untraced - 1.0);
    let patterns = PatternAggregator::from_cags(&last.out.cags).len();
    let program_metrics = match &serve {
        Some((r, _)) => &r.report.output.metrics,
        None => &last.out.metrics,
    };
    m.extend(counters(program_metrics, patterns));
    m.extend(serve_metrics(serve.as_ref().map(|(r, e)| (r, e))));
    m.insert("attempted", (checks * reference.logged) as f64);
    m.insert("failed", failed as f64);
    Ok(m)
}
