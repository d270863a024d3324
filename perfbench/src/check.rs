//! The correctness gate and the measurement helpers every run shares:
//! the canonical rendering of an output, its per-CAG digests, the
//! comparison against the tagged reference, percentiles, the online
//! latency join and the process gauges read from `/proc`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use tracer_core::prelude::*;

/// 64-bit FNV-1a: a stable digest of one rendered CAG.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Renders one CAG in the golden-test format. Tags are not rendered, so
/// a tagged reference and an untagged run render identically.
pub fn render_cag(cag: &Cag, out: &mut String) {
    out.clear();
    let total = cag
        .total_latency()
        .map(|n| n.as_nanos().to_string())
        .unwrap_or_else(|| "-".into());
    let _ = writeln!(
        out,
        "cag id={} finished={} vertices={} total_ns={total}",
        cag.id,
        cag.finished,
        cag.vertices.len()
    );
    for (i, v) in cag.vertices.iter().enumerate() {
        let opt = |p: Option<usize>| p.map_or_else(|| "-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "  v{i} {} ts={} last={} ctx={}/{}/{}/{} chan={} size={} ctx_parent={} msg_parent={}",
            v.ty,
            v.ts,
            v.ts_last,
            v.ctx.hostname,
            v.ctx.program,
            v.ctx.pid,
            v.ctx.tid,
            v.channel,
            v.size,
            opt(v.ctx_parent),
            opt(v.msg_parent),
        );
    }
    for (component, latency) in cag.component_latencies() {
        let _ = writeln!(out, "  component {component} {}ns", latency.as_nanos());
    }
}

/// The `pt patterns` analysis of a run: pattern aggregation, average
/// causal paths and the per-pattern latency breakdown, rendered.
pub fn analyze(cags: &[Cag]) -> String {
    let agg = PatternAggregator::from_cags(cags);
    let mut s = render_patterns(&agg);
    s.push_str(&render_breakdowns(&agg));
    s
}

/// The pattern half of [`analyze`].
pub fn render_patterns(agg: &PatternAggregator) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "patterns={}", agg.len());
    for p in agg.average_paths() {
        let _ = writeln!(
            s,
            "pattern {} count={} vertices={} mean_total_ns={}",
            p.key,
            p.count,
            p.exemplar.vertices.len(),
            p.mean_total.as_nanos()
        );
        for (c, pct) in &p.percentages {
            let _ = writeln!(s, "  {c} {pct:.4}%");
        }
    }
    s
}

/// The breakdown half of [`analyze`].
pub fn render_breakdowns(agg: &PatternAggregator) -> String {
    agg.patterns()
        .into_iter()
        .map(|st| BreakdownReport::from_stats(st).format_table())
        .collect()
}

/// Per-CAG digests of a canonical output plus the digest of its
/// analysis: everything the equality gate compares.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Digests {
    /// One digest per finished CAG, in output order.
    pub cags: Vec<u64>,
    /// One digest per unfinished (deformed) CAG, in output order.
    pub unfinished: Vec<u64>,
    /// Digest of the rendered pattern and breakdown analysis.
    pub analysis: u64,
}

impl Digests {
    /// Digests an output and its rendered analysis.
    pub fn of(out: &CorrelationOutput, analysis: &str) -> Digests {
        let mut buf = String::new();
        let mut digest = |c: &Cag| {
            render_cag(c, &mut buf);
            fnv1a(buf.as_bytes())
        };
        Digests {
            cags: out.cags.iter().map(&mut digest).collect(),
            unfinished: out.unfinished.iter().map(&mut digest).collect(),
            analysis: fnv1a(analysis.as_bytes()),
        }
    }

    /// Writes the digests, one `kind hex` line each.
    pub fn write(&self, s: &mut String) {
        for d in &self.cags {
            let _ = writeln!(s, "c {d:016x}");
        }
        for d in &self.unfinished {
            let _ = writeln!(s, "u {d:016x}");
        }
        let _ = writeln!(s, "a {:016x}", self.analysis);
    }

    /// Parses the lines [`Digests::write`] produced.
    pub fn parse<'a>(lines: impl Iterator<Item = &'a str>) -> Result<Digests, String> {
        let mut d = Digests::default();
        for line in lines {
            let (kind, hex) = line
                .split_once(' ')
                .ok_or_else(|| format!("bad digest line {line:?}"))?;
            let v = u64::from_str_radix(hex, 16).map_err(|e| format!("{line:?}: {e}"))?;
            match kind {
                "c" => d.cags.push(v),
                "u" => d.unfinished.push(v),
                "a" => d.analysis = v,
                _ => return Err(format!("bad digest kind in {line:?}")),
            }
        }
        Ok(d)
    }
}

/// How a run's output differs from the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mismatch {
    /// Reference CAGs (finished or not) the run did not reproduce.
    pub missing: u64,
    /// Run CAGs the reference does not contain.
    pub extra: u64,
    /// The analysis rendering differs.
    pub analysis: bool,
}

impl Mismatch {
    /// True when the run reproduced the reference exactly.
    pub fn is_exact(&self) -> bool {
        self.missing == 0 && self.extra == 0 && !self.analysis
    }
}

/// Compares a run against the reference as multisets of CAG digests.
/// Ids are part of every rendering, so an output with the right CAGs
/// in the wrong canonical order mismatches too.
pub fn compare(reference: &Digests, run: &Digests) -> Mismatch {
    let tagged = |d: &Digests| -> Vec<(u8, u64)> {
        let mut v: Vec<(u8, u64)> = d
            .cags
            .iter()
            .map(|&x| (0, x))
            .chain(d.unfinished.iter().map(|&x| (1, x)))
            .collect();
        v.sort_unstable();
        v
    };
    let (a, b) = (tagged(reference), tagged(run));
    let (mut i, mut j) = (0, 0);
    let mut m = Mismatch {
        analysis: reference.analysis != run.analysis,
        ..Mismatch::default()
    };
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if x == y => {
                i += 1;
                j += 1;
            }
            (Some(x), Some(y)) if x < y => {
                m.missing += 1;
                i += 1;
            }
            (Some(_), None) => {
                m.missing += 1;
                i += 1;
            }
            _ => {
                m.extra += 1;
                j += 1;
            }
        }
    }
    m
}

/// The tagged reference of one corpus: its §5.2 accuracy against
/// ground truth and the digests every timed output must reproduce.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Reference {
    /// Input records in the corpus.
    pub records: u64,
    /// Requests the simulated application logged.
    pub logged: u64,
    /// Reference paths matching a logged request exactly.
    pub correct: u64,
    /// Reference paths matching no request.
    pub false_paths: u64,
    /// The reference output's digests.
    pub digests: Digests,
}

impl Reference {
    /// Writes the reference file.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut s = format!(
            "records={} logged={} correct={} false={}\n",
            self.records, self.logged, self.correct, self.false_paths
        );
        self.digests.write(&mut s);
        std::fs::write(path, s)
    }

    /// Reads the reference file.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut lines = text.lines();
        let head = lines.next().ok_or("empty reference file")?;
        let mut r = Reference::default();
        for kv in head.split_whitespace() {
            let (k, v) = kv.split_once('=').ok_or("bad reference header")?;
            let v: u64 = v.parse().map_err(|e| format!("reference {k}: {e}"))?;
            match k {
                "records" => r.records = v,
                "logged" => r.logged = v,
                "correct" => r.correct = v,
                "false" => r.false_paths = v,
                _ => return Err(format!("unknown reference key {k}")),
            }
        }
        r.digests = Digests::parse(lines)?;
        Ok(r)
    }

    /// Scores a run against this reference: `(correct paths, failed
    /// operations)`. A failed operation is a logged request without an
    /// exact path plus any false path; every reference CAG the run did
    /// not reproduce counts as a lost request, every extra CAG as a
    /// false path.
    pub fn score(&self, m: &Mismatch) -> (u64, u64) {
        let correct = self.correct.saturating_sub(m.missing);
        let failed = (self.logged - correct) + self.false_paths + m.extra;
        (correct, failed)
    }
}

/// Nearest-rank percentile (`q` in 0..=100) of unsorted samples; `None`
/// when there are none.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Maps each record's `(host, local timestamp)` to the time it was due
/// at the generator, in nanoseconds after the replay started. Records
/// sharing a key share a due time, because due times are a function of
/// the timestamp alone.
#[derive(Debug, Default)]
pub struct DueIndex {
    due: HashMap<(String, u64), u64>,
}

impl DueIndex {
    /// Indexes `(host, ts, due)` triples.
    pub fn new<'a>(entries: impl IntoIterator<Item = (&'a str, u64, u64)>) -> Self {
        let mut due = HashMap::new();
        for (host, ts, d) in entries {
            due.entry((host.to_string(), ts))
                .and_modify(|x: &mut u64| *x = (*x).max(d))
                .or_insert(d);
        }
        DueIndex { due }
    }

    /// Due time of the newest record that contributed to `cag`, found
    /// through every vertex's `(host, ts_last)` key, and the number of
    /// vertices whose key matched no record.
    pub fn newest_due(&self, cag: &Cag) -> (Option<u64>, u64) {
        let mut newest = None;
        let mut unjoined = 0;
        for v in &cag.vertices {
            let key = (v.ctx.hostname.to_string(), v.ts_last.as_nanos());
            match self.due.get(&key) {
                Some(&d) => newest = Some(newest.map_or(d, |n: u64| n.max(d))),
                None => unjoined += 1,
            }
        }
        (newest, unjoined)
    }
}

/// Replay schedule: the due offset (ns after the replay start) of each
/// record, from its own timestamp, compressed so the whole corpus is
/// offered at `rate` records per second on average.
pub fn schedule(timestamps: &[u64], rate: f64) -> Vec<u64> {
    let (Some(&first), Some(&last)) = (timestamps.iter().min(), timestamps.iter().max()) else {
        return Vec::new();
    };
    let span = (last - first).max(1) as f64;
    let duration_ns = timestamps.len() as f64 / rate * 1e9;
    timestamps
        .iter()
        .map(|&ts| ((ts - first) as f64 / span * duration_ns) as u64)
        .collect()
}

/// Process user+system CPU seconds over all threads, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    f.iter().sum::<u64>() as f64 / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed CPU kernel (an xorshift chain) timed beside each run, in
/// millions of steps per second, so drift of the shared host shows next
/// to every figure.
pub fn calibrate() -> f64 {
    const STEPS: u64 = 20_000_000;
    let t = std::time::Instant::now();
    let mut x: u64 = std::hint::black_box(0x9e37_79b9_7f4a_7c15);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    STEPS as f64 / t.elapsed().as_secs_f64() / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOG: &str = "\
1000 web httpd 7 7 RECEIVE 192.168.0.9:5000-10.0.0.1:80 120
2000 web httpd 7 7 SEND 10.0.0.1:4001-10.0.0.2:9000 64
2500 app java 9 21 RECEIVE 10.0.0.1:4001-10.0.0.2:9000 64
4000 app java 9 21 SEND 10.0.0.2:9000-10.0.0.1:4001 256
4400 web httpd 7 7 RECEIVE 10.0.0.2:9000-10.0.0.1:4001 256
5000 web httpd 7 7 SEND 10.0.0.1:80-192.168.0.9:5000 512
9000 web httpd 8 8 RECEIVE 192.168.0.7:5001-10.0.0.1:80 100
9900 web httpd 8 8 SEND 10.0.0.1:80-192.168.0.7:5001 300
";

    fn output() -> CorrelationOutput {
        let access = AccessPointSpec::new(
            [80],
            ["10.0.0.1".parse().unwrap(), "10.0.0.2".parse().unwrap()],
        );
        Pipeline::new(PipelineConfig::new(access))
            .unwrap()
            .run(Source::text(LOG))
            .unwrap()
    }

    fn digests(out: &CorrelationOutput) -> Digests {
        Digests::of(out, &analyze(&out.cags))
    }

    #[test]
    fn identical_outputs_match_exactly() {
        let out = output();
        assert_eq!(out.cags.len(), 2);
        let m = compare(&digests(&out), &digests(&out));
        assert!(m.is_exact(), "{m:?}");
    }

    #[test]
    fn perturbed_cag_fails_the_gate() {
        let out = output();
        let reference = digests(&out);
        let mut bad = out.clone();
        bad.cags[1].vertices[0].ts.0 -= 100;
        let m = compare(&reference, &digests(&bad));
        assert_eq!((m.missing, m.extra), (1, 1), "{m:?}");
        assert!(m.analysis, "the breakdown sees the perturbed latency");
        let r = Reference {
            records: 8,
            logged: 2,
            correct: 2,
            false_paths: 0,
            digests: reference,
        };
        assert_eq!(r.score(&m), (1, 2));
    }

    #[test]
    fn renumbered_cags_fail_the_gate() {
        let out = output();
        let mut swapped = out.clone();
        swapped.cags.swap(0, 1);
        for (i, c) in swapped.cags.iter_mut().enumerate() {
            c.id = i as u64;
        }
        let m = compare(&digests(&out), &digests(&swapped));
        assert_eq!((m.missing, m.extra), (2, 2), "{m:?}");
    }

    #[test]
    fn reference_file_round_trips() {
        let out = output();
        let r = Reference {
            records: 8,
            logged: 2,
            correct: 2,
            false_paths: 0,
            digests: digests(&out),
        };
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reference.txt");
        r.save(&path).unwrap();
        let back = Reference::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn join_finds_the_newest_contributing_record() {
        let out = output();
        let records = parse_log(LOG).unwrap();
        let ts: Vec<u64> = records.iter().map(|r| r.ts.as_nanos()).collect();
        let due = schedule(&ts, 1_000.0);
        let index = DueIndex::new(
            records
                .iter()
                .zip(&due)
                .map(|(r, &d)| (&*r.hostname, r.ts.as_nanos(), d)),
        );
        // The first request's newest record is its END at ts 5000.
        let (newest, unjoined) = index.newest_due(&out.cags[0]);
        assert_eq!(unjoined, 0);
        assert_eq!(newest, Some(due[5]));
        let (newest, unjoined) = index.newest_due(&out.cags[1]);
        assert_eq!((newest, unjoined), (Some(due[7]), 0));
        // A vertex no record explains is reported, not guessed.
        let mut foreign = out.cags[1].clone();
        foreign.vertices[0].ts_last = LocalTime(1);
        assert_eq!(index.newest_due(&foreign), (Some(due[7]), 1));
    }

    #[test]
    fn schedule_compresses_to_the_offered_rate() {
        let ts = [100, 100, 600, 1100];
        let due = schedule(&ts, 2.0);
        // Four records at 2/s span two seconds, spread by timestamp.
        assert_eq!(due, vec![0, 0, 1_000_000_000, 2_000_000_000]);
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
