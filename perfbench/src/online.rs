//! The online workload: an open-loop generator process replays the
//! corpus over a FIFO, paced by the records' own timestamps, to a
//! `Server` in this process; the sink stamps every CAG it receives.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::AtomicBool;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use tracer_core::prelude::*;

use crate::check::{percentile, process_cpu_s, schedule};
use crate::trace::{Name, Tracer};
use crate::workload::{Workload, ONLINE_RATE};

/// Wall-clock nanoseconds since the UNIX epoch: the one clock the
/// generator process and the server process share.
pub fn epoch_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// Head start the generator waits before the first record is due, so
/// both ends of the FIFO are open when the clock starts.
const START_DELAY: Duration = Duration::from_millis(300);

/// The generator's account of the replay.
#[derive(Debug, Clone, Default)]
pub struct GenReport {
    /// Records written to the FIFO.
    pub records: u64,
    /// Records offered per second of replay.
    pub offered_per_s: f64,
    /// 99th percentile of how late each record was written, in ms.
    pub late_p99_ms: f64,
}

impl GenReport {
    fn parse(line: &str) -> Option<GenReport> {
        let mut g = GenReport::default();
        for kv in line.split_whitespace() {
            let (k, v) = kv.split_once('=')?;
            match k {
                "records" => g.records = v.parse().ok()?,
                "offered_per_s" => g.offered_per_s = v.parse().ok()?,
                "late_p99_ms" => g.late_p99_ms = v.parse().ok()?,
                _ => {}
            }
        }
        Some(g)
    }
}

/// Replays `corpus` into `fifo`: each record is written once it is due
/// (`t0` plus its scheduled offset), all due records in one write.
/// Prints a [`GenReport`] line when the FIFO is closed.
pub fn generate(corpus: &Path, fifo: &Path, t0: u64) -> Result<(), String> {
    let text = std::fs::read(corpus).map_err(|e| format!("{}: {e}", corpus.display()))?;
    let mut ends = Vec::new();
    let mut ts = Vec::new();
    let mut start = 0;
    for (i, &b) in text.iter().enumerate() {
        if b == b'\n' {
            let line = &text[start..i];
            let first = line.split(|&c| c == b' ').next().unwrap_or_default();
            let t = std::str::from_utf8(first)
                .ok()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| format!("line {}: no timestamp", ts.len() + 1))?;
            ts.push(t);
            ends.push(i + 1);
            start = i + 1;
        }
    }
    let due = schedule(&ts, ONLINE_RATE);
    let mut out = std::fs::OpenOptions::new()
        .write(true)
        .open(fifo)
        .map_err(|e| format!("{}: {e}", fifo.display()))?;
    let mut late = Vec::with_capacity(due.len());
    while epoch_ns() < t0 {
        std::thread::sleep(Duration::from_nanos(t0.saturating_sub(epoch_ns())));
    }
    let (mut i, mut from, mut last_write) = (0, 0, 0);
    while i < due.len() {
        let now = epoch_ns() - t0;
        if due[i] > now {
            std::thread::sleep(Duration::from_nanos(due[i] - now));
            continue;
        }
        let mut j = i;
        while j < due.len() && due[j] <= now {
            j += 1;
        }
        out.write_all(&text[from..ends[j - 1]])
            .map_err(|e| format!("write to {}: {e}", fifo.display()))?;
        last_write = epoch_ns() - t0;
        late.extend(due[i..j].iter().map(|&d| (last_write - d) as f64 / 1e6));
        from = ends[j - 1];
        i = j;
    }
    drop(out);
    println!(
        "records={} offered_per_s={} late_p99_ms={}",
        due.len(),
        due.len() as f64 / (last_write.max(1) as f64 / 1e9),
        percentile(&late, 99.0).unwrap_or(0.0)
    );
    Ok(())
}

/// Stamps every batch of CAGs the server seals live.
struct Sink<'a> {
    live: Vec<(u64, Vec<Cag>)>,
    tracer: Option<&'a mut Tracer>,
}

impl ServeSink for Sink<'_> {
    fn on_sealed(&mut self, cags: &[Cag]) {
        let at = epoch_ns();
        let span = self.tracer.as_mut().map(|t| t.begin(Name::ServeSealed));
        self.live.push((at, cags.to_vec()));
        if let (Some(t), Some(s)) = (self.tracer.as_mut(), span) {
            t.end(s);
        }
    }
}

/// One replay through the server.
pub struct ServeRun {
    pub report: ServeReport,
    /// Live batches: receive time (epoch ns) and the CAGs.
    pub live: Vec<(u64, Vec<Cag>)>,
    /// When the first record was due (epoch ns).
    pub t0: u64,
    /// When the final drain reached the caller (epoch ns).
    pub t_end: u64,
    /// Server-process CPU seconds from the start of the replay.
    pub cpu_s: f64,
    pub gen: GenReport,
}

impl ServeRun {
    /// Live and drained CAGs, canonicalized together.
    pub fn combined(&self) -> CorrelationOutput {
        let mut out = CorrelationOutput {
            cags: self
                .live
                .iter()
                .flat_map(|(_, c)| c.iter().cloned())
                .chain(self.report.output.cags.iter().cloned())
                .collect(),
            unfinished: self.report.output.unfinished.clone(),
            ..CorrelationOutput::default()
        };
        out.canonicalize();
        out
    }

    /// Every finished CAG with the time the sink (or, for drained ones,
    /// the caller of `Server::run`) received it.
    pub fn delivered(&self) -> impl Iterator<Item = (u64, &Cag)> {
        self.live
            .iter()
            .flat_map(|(t, c)| c.iter().map(move |c| (*t, c)))
            .chain(self.report.output.cags.iter().map(|c| (self.t_end, c)))
    }
}

fn make_fifo(path: &Path) -> Result<(), String> {
    let _ = std::fs::remove_file(path);
    let status = Command::new("mkfifo")
        .arg(path)
        .status()
        .map_err(|e| format!("mkfifo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("mkfifo {} failed: {status}", path.display()))
    }
}

/// Opens and closes the FIFO's write end without blocking, which ends a
/// server tailer still waiting for a writer.
fn release_reader(fifo: &Path) {
    use std::os::unix::fs::OpenOptionsExt;
    const O_NONBLOCK: i32 = 0o4000;
    let _ = std::fs::OpenOptions::new()
        .write(true)
        .custom_flags(O_NONBLOCK)
        .open(fifo);
}

/// Replays the online corpus in `dir` through a server built for it.
pub fn serve_once(
    w: Workload,
    dir: &Path,
    exe: &Path,
    tracer: Option<&mut Tracer>,
) -> Result<ServeRun, String> {
    let fifo: PathBuf = dir.join("feed.fifo");
    make_fifo(&fifo)?;
    std::fs::create_dir_all(dir.join("spill")).map_err(|e| e.to_string())?;
    let server = Server::new(w.serve_config(dir, &fifo)).map_err(|e| e.to_string())?;
    let t0 = epoch_ns() + START_DELAY.as_nanos() as u64;
    let mut child = Command::new(exe)
        .arg("gen")
        .arg("--corpus")
        .arg(w.input(dir))
        .arg("--fifo")
        .arg(&fifo)
        .arg("--t0")
        .arg(t0.to_string())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn generator: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    // A generator that dies before opening the FIFO would leave the
    // tailer blocked in open(); the watcher releases it.
    let watch_fifo = fifo.clone();
    let watcher = std::thread::spawn(move || {
        let mut stdout = stdout;
        let mut text = String::new();
        let _ = std::io::Read::read_to_string(&mut stdout, &mut text);
        let status = child.wait();
        if !matches!(&status, Ok(s) if s.success()) {
            release_reader(&watch_fifo);
        }
        (status, text)
    });
    let cpu0 = process_cpu_s();
    let mut sink = Sink {
        live: Vec::new(),
        tracer,
    };
    let span = sink.tracer.as_mut().map(|t| t.begin(Name::ServeRun));
    let result = server.run(&mut sink, &AtomicBool::new(false));
    let t_end = epoch_ns();
    if let (Some(t), Some(s)) = (sink.tracer.as_mut(), span) {
        t.end(s);
    }
    let cpu_s = process_cpu_s() - cpu0;
    if result.is_err() {
        // The server gave up; a generator still writing gets EPIPE.
        release_reader(&fifo);
    }
    let (status, text) = watcher.join().map_err(|_| "generator watcher panicked")?;
    let _ = std::fs::remove_file(&fifo);
    let report = result.map_err(|e| format!("server: {e}"))?;
    let status = status.map_err(|e| format!("generator: {e}"))?;
    if !status.success() {
        return Err(format!("generator failed: {status}"));
    }
    let gen = text
        .lines()
        .last()
        .and_then(GenReport::parse)
        .ok_or_else(|| format!("generator printed no report: {text:?}"))?;
    Ok(ServeRun {
        report,
        live: sink.live,
        t0,
        t_end,
        cpu_s,
        gen,
    })
}
