//! The repository benchmark: four workloads over the serving store, the
//! codec and the model container, each printing its end-to-end metrics,
//! or with `--trace 1` its per-layer split.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload chat --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Output: a `#` header with the environment, one `name value unit` line
//! per metric, and last a JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is non-zero when any output
//! check failed. See `README.md` for the workloads and metrics.

mod cold;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use ecco_pool::{with_pool, Pool};

/// Pool executors (the calling thread plus one worker), pinned so runs
/// compare across hosts with two or more cores.
const POOL_EXECUTORS: usize = 2;
const WORKLOADS: &[&str] = &["chat", "ingest", "chat_hot", "cold_start"];
const USAGE: &str = "usage: ecco-benchmark --workload <chat|ingest|chat_hot|cold_start> \
                     --seed <n> [--seconds <s>] [--trace <0|1>] [--scale <full|smoke>]";

/// One run's settings, from the command line.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    /// Measured time, in seconds.
    pub seconds: f64,
    /// Per-layer spans instead of end-to-end metrics.
    pub traced: bool,
    /// Shrunk set-up and warm-up, for the smoke test.
    pub smoke: bool,
}

impl Run {
    /// How many set-ups to time: `full`, or one at smoke scale.
    pub fn setups(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Run, String> {
    let (mut workload, mut seed) = (None, None);
    let mut run = Run {
        workload: String::new(),
        seed: 0,
        seconds: 15.0,
        traced: false,
        smoke: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad("unknown workload")),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected a whole number"))?),
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                run.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--scale" => {
                run.smoke = match value.as_str() {
                    "full" => false,
                    "smoke" => true,
                    _ => return Err(bad("expected full or smoke")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    run.workload = workload.ok_or("--workload is required")?;
    run.seed = seed.ok_or("--seed is required")?;
    Ok(run)
}

/// Where the benchmark writes its files: the model file of
/// `cold_start` and the traces.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir).expect("create the benchmark's out directory");
    dir
}

/// Writes the trace file and prints the per-span table.
pub fn write_trace(run: &Run, tracer: &trace::Tracer) {
    let path = out_dir().join(format!("trace-{}-seed{}.json", run.workload, run.seed));
    std::fs::write(&path, tracer.to_json(&run.workload, run.seed)).expect("write the trace file");
    println!("# trace_file {}", path.display());
    tracer.print_table();
}

fn main() -> ExitCode {
    let run = match parse(std::env::args().skip(1)) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pool = Pool::builder().threads(POOL_EXECUTORS).build();
    println!(
        "# ecco-benchmark workload={} seed={} seconds={} trace={} scale={}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.traced),
        if run.smoke { "smoke" } else { "full" }
    );
    println!(
        "# env nproc={} pool_executors={} window_dispatch={:?} commit={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        pool.executors(),
        ecco_bits::window_dispatch(),
        std::env::var("ECCO_GIT_COMMIT").unwrap_or_else(|_| "unknown".into())
    );

    let (mut metrics, outcome) = with_pool(&pool, || match run.workload.as_str() {
        "cold_start" => cold::run(&run),
        _ => serve::run(&run),
    });
    if !run.traced {
        if let Some(mb) = report::peak_rss_mb() {
            metrics.set("peak_rss_mb", mb);
        }
    }
    if report::print(run.traced, &metrics, &outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
