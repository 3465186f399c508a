//! Benchmark runner for the TCSC service and batch planner.
//!
//! ```text
//! perfbench --workload <svc-rush|svc-mobile|batch-plan|all> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! Generates the workload's inputs from the seed, measures for the given
//! number of seconds, audits every output and prints the metrics; the last
//! line of standard output is one JSON object.  `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones.  The exit code is
//! non-zero when an audit check fails.  See `perfbench/README.md`.

mod batch;
mod measure;
mod svc;

use std::collections::BTreeMap;
use std::process::ExitCode;

use measure::{median, peak_rss_mb, quantile, timed, Audit, Counters, Spent};

/// The seed the numbers in the README were taken with.
pub const DEFAULT_SEED: u64 = 1;

/// Each episode runs its set-up this many times, each after a pause of
/// `SETUP_GAP`, and takes the median as one `setup_s` sample, so that a
/// single host stall cannot swing a sample; `setup_s` is the median over
/// episodes.  The pause gives every set-up the same start as the measured
/// loops, which also idle between calls.
const SETUP_REPS: usize = 5;
const SETUP_GAP: std::time::Duration = std::time::Duration::from_millis(5);

const WORKLOADS: [&str; 3] = ["svc-rush", "svc-mobile", "batch-plan"];

/// Per-layer metrics and their units, in report order.
const PER_LAYER: &[(&str, &str)] = &[
    ("index.build_ms", "ms"),
    ("index.mutations", "count"),
    ("index.mutate_ms_total", "ms"),
    ("index.mutate_us_p99", "us"),
    ("index.entries_spliced", "count"),
    ("cost.evaluations", "count"),
    ("engine.drain_ms_p50", "ms"),
    ("engine.drain_ms_p99", "ms"),
    ("engine.release_ms_total", "ms"),
    ("engine.checkout_self_ms", "ms"),
    ("engine.commit_self_ms", "ms"),
    ("cengine.region_drain_self_ms", "ms"),
    ("cengine.boundary_pass_self_ms", "ms"),
    ("cache.slot_computations", "count"),
    ("cache.slot_refreshes", "count"),
    ("cache.commit_rescores", "count"),
    ("cache.stale_pops", "count"),
    ("cache.incremental_patches", "count"),
    ("cache.conflicts", "count"),
    ("cache.executions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("router.boundary_share", "ratio"),
    ("ledger.peak_occupancy_share", "ratio"),
    ("multi.taskstate_build_ms", "ms"),
    ("multi.refresh_ms", "ms"),
    ("driver.lag_p99_ms", "ms"),
    ("driver.backlog_peak", "count"),
    ("driver.busy_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// One clock's view of an untraced episode.
#[derive(Debug, Clone, Copy)]
struct Timing {
    p50: f64,
    p99: f64,
    /// Tasks per second of busy time.
    capacity: f64,
}

impl Timing {
    fn of(latencies: &[f64], tasks: u64, busy_ms: f64) -> Self {
        Self {
            p50: quantile(latencies, 0.50),
            p99: quantile(latencies, 0.99),
            capacity: tasks as f64 / (busy_ms / 1e3),
        }
    }

    /// The median of each field over episodes, so a burst of host stalls
    /// that spoils a few episodes moves none of them.
    fn median(timings: &[Timing]) -> Timing {
        let of = |field: fn(&Timing) -> f64| median(&timings.iter().map(field).collect::<Vec<_>>());
        Timing {
            p50: of(|t| t.p50),
            p99: of(|t| t.p99),
            capacity: of(|t| t.capacity),
        }
    }
}

/// Everything one run gathered, across its episodes.
pub struct RunStats {
    workload: &'static str,
    seed: u64,
    pub attempted: u64,
    pub committed: u64,
    /// Latency samples of the untraced episodes: one per committed task
    /// (`svc-*`) or per solve (`batch-plan`).
    latency_samples: usize,
    /// Each untraced episode by the CPU clock, which the end-to-end metrics
    /// report, and by the wall clock, which the report shows beside them.
    cpu: Vec<Timing>,
    wall: Vec<Timing>,
    /// The fewest samples beyond its p99 in any untraced episode.
    fewest_beyond_p99: usize,
    /// Tasks per second of CPU busy time, per traced episode.
    traced_capacity: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Exact counters of every episode, folded; identical on every run of
    /// a seed with the same `--seconds`.
    fingerprint: Counters,
    quality_sum: f64,
    episodes: usize,
    pub cost_evaluations: Option<u64>,
    layers: BTreeMap<&'static str, Vec<f64>>,
    pub audit: Audit,
}

impl RunStats {
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Self {
            workload,
            seed,
            attempted: 0,
            committed: 0,
            latency_samples: 0,
            cpu: Vec::new(),
            wall: Vec::new(),
            fewest_beyond_p99: usize::MAX,
            traced_capacity: Vec::new(),
            setup_s: Vec::new(),
            fingerprint: Counters::new(),
            quality_sum: 0.0,
            episodes: 0,
            cost_evaluations: None,
            layers: BTreeMap::new(),
            audit: Audit::default(),
        }
    }

    /// Folds one episode's exact counters and summed plan quality into the
    /// run's fingerprint.
    pub fn record_episode(&mut self, counters: &Counters, quality_sum: f64) {
        self.episodes += 1;
        self.fingerprint.merge(counters);
        self.quality_sum += quality_sum;
    }

    /// Records an untraced episode's latency samples, the tasks it
    /// committed and its busy time.
    pub fn record_timing(&mut self, latencies: &[Spent], tasks: u64, busy: Spent) {
        self.latency_samples += latencies.len();
        let cpu: Vec<f64> = latencies.iter().map(|l| l.cpu).collect();
        let wall: Vec<f64> = latencies.iter().map(|l| l.wall).collect();
        let timing = Timing::of(&cpu, tasks, busy.cpu);
        let beyond = cpu.iter().filter(|&&l| l > timing.p99).count();
        self.fewest_beyond_p99 = self.fewest_beyond_p99.min(beyond);
        self.cpu.push(timing);
        self.wall.push(Timing::of(&wall, tasks, busy.wall));
    }

    /// Records a traced episode's committed tasks and busy time.
    pub fn record_traced(&mut self, tasks: u64, busy: Spent) {
        self.traced_capacity.push(tasks as f64 / (busy.cpu / 1e3));
    }

    /// Runs the set-up `SETUP_REPS` times, each after a `SETUP_GAP` pause,
    /// records the median CPU time and each index build time (CPU ms, from
    /// the set-up's result), and returns the last set-up's result.
    pub fn set_up<T>(&mut self, mut setup: impl FnMut() -> (T, f64)) -> T {
        let mut reps_ms = Vec::with_capacity(SETUP_REPS);
        loop {
            std::thread::sleep(SETUP_GAP);
            let ((value, build_ms), spent) = timed(&mut setup);
            self.layer("index.build_ms", build_ms);
            reps_ms.push(spent.cpu);
            if reps_ms.len() == SETUP_REPS {
                self.setup_s.push(median(&reps_ms) / 1e3);
                return value;
            }
        }
    }

    /// Adds one episode's value of a per-layer metric (reported as the
    /// median over episodes).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.entry(name).or_default().push(value);
    }

    /// The per-layer view of an episode's exact counters.
    pub fn counter_layers(&mut self, c: &Counters) {
        self.layer("cache.slot_computations", c.slot_computations as f64);
        self.layer("cache.slot_refreshes", c.slot_refreshes as f64);
        self.layer("cache.commit_rescores", c.commit_rescores as f64);
        self.layer("cache.stale_pops", c.stale_pops as f64);
        self.layer("cache.incremental_patches", c.incremental_patches as f64);
        self.layer("cache.conflicts", c.conflicts as f64);
        self.layer("cache.executions", c.executions as f64);
        self.layer("cache.hit_ratio", c.hit_ratio());
    }

    fn failed(&self) -> u64 {
        let failed = self.attempted - self.committed.min(self.attempted);
        if self.audit.ok() {
            failed
        } else {
            failed.max(1)
        }
    }

    /// Summed plan quality per task attempted; a task never committed counts
    /// as quality 0.
    fn quality_mean(&self) -> f64 {
        self.quality_sum / self.attempted.max(1) as f64
    }

    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let attempted = self.attempted.max(1) as f64;
        let cpu = Timing::median(&self.cpu);
        vec![
            ("latency_p50_ms", cpu.p50, "ms"),
            ("latency_p99_ms", cpu.p99, "ms"),
            ("capacity_tps", cpu.capacity, "1/s"),
            ("quality_mean", self.quality_mean(), "bits"),
            ("setup_s", median(&self.setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            (
                "committed_share",
                (attempted - self.failed() as f64) / attempted,
                "ratio",
            ),
        ]
    }

    fn per_layer(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "trace.overhead_ratio" => {
                        median(&self.traced_capacity) / Timing::median(&self.cpu).capacity
                    }
                    _ => self.layers.get(name).map_or(0.0, |v| median(v)),
                };
                (name, value, unit)
            })
            .collect()
    }

    /// Prints the human-readable report, then the JSON result line.
    fn report(&self, trace: bool) -> bool {
        let correct = self.audit.ok() && self.failed() == 0 && self.attempted > 0;
        println!(
            "{} seed={} trace={}: {} episodes, {} tasks attempted, {} latency samples \
             (at least {} beyond an episode's p99)",
            self.workload,
            self.seed,
            u8::from(trace),
            self.episodes,
            self.attempted,
            self.latency_samples,
            self.fewest_beyond_p99,
        );
        println!(
            "fingerprint {} seed={} {}",
            self.workload,
            self.seed,
            self.fingerprint.render(self.cost_evaluations)
        );
        println!(
            "quality_mean {} seed={} {:.15}",
            self.workload,
            self.seed,
            self.quality_mean()
        );
        println!(
            "failed_share {} seed={} {}",
            self.workload,
            self.seed,
            self.failed() as f64 / self.attempted.max(1) as f64
        );
        if !self.wall.is_empty() {
            let wall = Timing::median(&self.wall);
            println!(
                "wall_clock {} seed={} latency_p50_ms={:.6} latency_p99_ms={:.6} capacity_tps={:.6}",
                self.workload, self.seed, wall.p50, wall.p99, wall.capacity
            );
        }
        for failure in &self.audit.failures {
            eprintln!("audit: {failure}");
        }
        let metrics = if trace {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        for (name, value, unit) in &metrics {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed(),
            body.join(", ")
        );
        correct
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Runs every workload in its own process, forwarding each one's report.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {workload} failed ({s})");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {workload}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let stats = match args.workload.as_str() {
        "all" => return run_all(&args),
        "svc-rush" => svc::run(&svc::RUSH, args.seed, args.seconds, args.trace),
        "svc-mobile" => svc::run(&svc::MOBILE, args.seed, args.seconds, args.trace),
        _ => batch::run(args.seed, args.seconds, args.trace),
    };
    if stats.report(args.trace) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
