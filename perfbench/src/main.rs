//! The Lusail benchmark: three workloads run through the public API of the
//! workspace crates, every answer checked against the generator's oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-oneshot|serve-wan|mqo-burst --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object holding the
//! end-to-end metrics; with `--trace 1` it holds the per-layer metrics of
//! a separate traced run, whose spans are written to
//! `$CARGO_TARGET_DIR/perfbench-spans/` (default `perfbench/target`).
//! Lines before it start with `#` and say how the run went.

mod alloc;
mod client;
mod cold;
mod layers;
mod oracle;
mod probe;
mod serve;
mod spans;
mod stats;

use lusail_benchdata::common::Rng;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// How many times a run repeats its set-up; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// A self-check outside the answer checks failed.
    pub self_check_failed: bool,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

/// Latency samples and answer checks of one measured window.
#[derive(Default)]
pub struct Window {
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed: Duration,
}

impl Window {
    pub fn record(&mut self, latency: Duration, ok: bool) {
        self.attempted += 1;
        if ok {
            self.latencies_ms.push(latency.as_secs_f64() * 1e3);
        } else {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: Window) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn mean_latency_ms(&self) -> f64 {
        stats::mean(&self.latencies_ms)
    }

    /// The end-to-end metrics read from the samples alone, plus a note
    /// with the tail percentile and the sample count.
    pub fn report(&mut self, out: &mut Outcome, label: &str) {
        self.latencies_ms.sort_by(f64::total_cmp);
        let tail = stats::tail(&self.latencies_ms);
        out.metric(
            "qps",
            self.completed() as f64 / self.elapsed.as_secs_f64(),
            "1/s",
        );
        out.metric(
            "latency_p50_ms",
            stats::percentile(&self.latencies_ms, 50.0),
            "ms",
        );
        out.metric("latency_tail_ms", tail.value, "ms");
        out.metric(
            "correct_share",
            self.completed() as f64 / self.attempted.max(1) as f64,
            "ratio",
        );
        out.notes.push(format!(
            "{label}: {} samples over {:.2} s, tail = p{:.2} ({} samples beyond it)",
            self.latencies_ms.len(),
            self.elapsed.as_secs_f64(),
            tail.percentile,
            tail.beyond,
        ));
    }
}

/// A 64-bit mix of the run seed with a per-use salt, so every generator
/// and schedule draws from its own stream.
pub fn fold(seed: u64, salt: u64) -> u64 {
    Rng::new(seed ^ salt.rotate_left(17)).next_u64()
}

/// A seeded permutation of `0..n`.
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// True when a window made of whole passes over a query set should end:
/// at the pass boundary nearest to `seconds`, so the pass count, and with
/// it the sample count and the tail percentile, holds from run to run.
pub fn window_done(elapsed: Duration, passes: u64, seconds: f64) -> bool {
    let elapsed = elapsed.as_secs_f64();
    passes > 0 && elapsed + elapsed / passes as f64 / 2.0 >= seconds
}

/// Runs `setup` [`SETUPS`] times, keeps the last result and returns the
/// median set-up time in seconds. Earlier results are dropped as soon as
/// the next set-up finishes, so only one copy is ever live.
pub fn timed_setups<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("SETUPS > 0"))
}

/// Median over repetitions of the mean time of `f` per element, in µs.
pub fn timed_us<T>(xs: &[T], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    let per_rep: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for x in xs {
                f(x);
            }
            t0.elapsed().as_secs_f64() * 1e6 / xs.len().max(1) as f64
        })
        .collect();
    stats::median(&per_rep)
}

/// Writes the traced window's spans under the build directory.
pub fn write_spans(args: &Args, spans: &[spans::Span], out: &mut Outcome) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "perfbench/target".into());
    let path = std::path::Path::new(&dir)
        .join("perfbench-spans")
        .join(format!("{}-seed{}.tsv", args.workload, args.seed));
    match spans::write_tsv(&path, spans) {
        Ok(()) => out.notes.push(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => {
            out.self_check_failed = true;
            out.notes
                .push(format!("spans: writing {} failed: {e}", path.display()));
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "bad --seconds (want a number)")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?} (want 0 or 1)")),
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|_| "bad --seed (want an unsigned integer)")?,
        seconds,
        trace,
    })
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload cold-oneshot|serve-wan|mqo-burst \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "cold-oneshot" => cold::run(&args),
        "serve-wan" => serve::run(&args, serve::Mode::Wan),
        "mqo-burst" => serve::run(&args, serve::Mode::Burst),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && !outcome.self_check_failed && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
