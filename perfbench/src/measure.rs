//! Timing helpers, the counting cost-model adapter, the plan-hash fold and the
//! output audit shared by every workload.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tcsc::assign::{CacheStats, MultiOutcome};
use tcsc::core::{
    AssignmentPlan, CostModel, Location, QualityEvaluator, QualityParams, SlotIndex, Subtask, Task,
    WorkerId,
};
use tcsc::obs::SpanProfile;
use tcsc::sim::plan_hash;

/// Time spent in a call or a run of calls, in ms, by two clocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spent {
    /// By the wall clock.
    pub wall: f64,
    /// By the process's CPU clock: user and system time of all its threads.
    /// With paravirtual steal-time accounting, as on the shared VMs this
    /// benchmark was tuned on, the guest kernel leaves out the time the
    /// hypervisor runs other guests on the benchmark's vCPUs, which the wall
    /// clock counts.  On a dedicated machine the two clocks agree for the
    /// calls timed here, which keep one thread busy at a time.
    pub cpu: f64,
}

impl std::ops::AddAssign for Spent {
    fn add_assign(&mut self, other: Spent) {
        self.wall += other.wall;
        self.cpu += other.cpu;
    }
}

impl std::ops::Sub for Spent {
    type Output = Spent;
    fn sub(self, other: Spent) -> Spent {
        Spent {
            wall: self.wall - other.wall,
            cpu: self.cpu - other.cpu,
        }
    }
}

/// The process's CPU time in ms (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) for the whole call, and `clock_gettime` writes only to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable on Linux");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Runs `f` and returns its result with the time it took by both clocks.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Spent) {
    let (wall0, cpu0) = (Instant::now(), process_cpu_ms());
    let out = f();
    let cpu = process_cpu_ms() - cpu0;
    let spent = Spent {
        wall: ms_since(Instant::now(), wall0),
        cpu,
    };
    (out, spent)
}

/// Sleeps until `deadline`; returns at once when it already passed.
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Milliseconds from `earlier` to `later`, zero when `later` comes first.
pub fn ms_since(later: Instant, earlier: Instant) -> f64 {
    later.saturating_duration_since(earlier).as_secs_f64() * 1e3
}

/// The `q`-quantile of `values` (nearest rank on a sorted copy); `0` when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sum of the self time (ms) of every span path ending in `label`.
pub fn self_ms(profile: &SpanProfile, label: &str) -> f64 {
    profile
        .stats()
        .iter()
        .filter(|s| s.path.rsplit(';').next() == Some(label))
        .map(|s| s.self_nanos as f64 / 1e6)
        .fold(0.0, |a, b| a + b)
}

/// A cost model that counts its evaluations and defers to another model.
pub struct CountingCost<'a> {
    inner: &'a dyn CostModel,
    evaluations: AtomicU64,
}

impl<'a> CountingCost<'a> {
    pub fn new(inner: &'a dyn CostModel) -> Self {
        Self {
            inner,
            evaluations: AtomicU64::new(0),
        }
    }

    pub fn evaluations(&self) -> u64 {
        // A statistic that publishes no other data: Relaxed suffices.
        self.evaluations.load(Ordering::Relaxed)
    }
}

impl CostModel for CountingCost<'_> {
    fn assignment_cost_at(&self, subtask: &Subtask, worker: WorkerId, worker_loc: Location) -> f64 {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.inner.assignment_cost_at(subtask, worker, worker_loc)
    }
}

/// Folds a value into a running order-sensitive hash.
fn fold(acc: u64, h: u64) -> u64 {
    (acc.rotate_left(7) ^ h).wrapping_mul(0x0100_0000_01b3)
}

const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Exact work counters of one episode: identical on every episode of a run
/// and on every run of a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub plan_hash: u64,
    pub tasks: u64,
    pub executions: u64,
    pub conflicts: u64,
    pub slot_computations: u64,
    pub slot_refreshes: u64,
    pub commit_rescores: u64,
    pub stale_pops: u64,
    pub incremental_patches: u64,
    pub tasks_reused: u64,
    pub tasks_computed: u64,
    pub mutations: u64,
    pub entries_spliced: u64,
    pub quality_bits: u64,
}

impl Counters {
    pub fn new() -> Self {
        Self {
            plan_hash: HASH_SEED,
            ..Self::default()
        }
    }

    /// Folds a later episode's counters into a run's.
    pub fn merge(&mut self, other: &Counters) {
        self.plan_hash = fold(self.plan_hash, other.plan_hash);
        self.quality_bits = fold(self.quality_bits, other.quality_bits);
        self.tasks += other.tasks;
        self.executions += other.executions;
        self.conflicts += other.conflicts;
        self.slot_computations += other.slot_computations;
        self.slot_refreshes += other.slot_refreshes;
        self.commit_rescores += other.commit_rescores;
        self.stale_pops += other.stale_pops;
        self.incremental_patches += other.incremental_patches;
        self.tasks_reused += other.tasks_reused;
        self.tasks_computed += other.tasks_computed;
        self.mutations += other.mutations;
        self.entries_spliced += other.entries_spliced;
    }

    /// Accounts one solve's outcome.
    pub fn absorb(&mut self, outcome: &MultiOutcome) {
        let s: &CacheStats = &outcome.stats;
        self.plan_hash = fold(self.plan_hash, plan_hash(&outcome.assignment));
        self.tasks += outcome.assignment.plans.len() as u64;
        self.executions += outcome.executions as u64;
        self.conflicts += outcome.conflicts as u64;
        self.slot_computations += s.slot_computations as u64;
        self.slot_refreshes += s.slot_refreshes as u64;
        self.commit_rescores += s.commit_rescores as u64;
        self.stale_pops += s.stale_pops as u64;
        self.incremental_patches += s.incremental_patches as u64;
        self.tasks_reused += s.tasks_reused as u64;
        self.tasks_computed += s.tasks_computed as u64;
    }

    pub fn hit_ratio(&self) -> f64 {
        let lookups = self.tasks_reused + self.tasks_computed;
        if lookups == 0 {
            0.0
        } else {
            self.tasks_reused as f64 / lookups as f64
        }
    }

    /// The `fingerprint` line body (`cost.evaluations` only when counted).
    pub fn render(&self, cost_evaluations: Option<u64>) -> String {
        let mut out = format!(
            "plan_hash={:#018x} quality_sum_bits={:#018x} tasks={} executions={} conflicts={} \
             slot_computations={} slot_refreshes={} commit_rescores={} stale_pops={} \
             incremental_patches={} tasks_reused={} tasks_computed={} index.mutations={} \
             index.entries_spliced={}",
            self.plan_hash,
            self.quality_bits,
            self.tasks,
            self.executions,
            self.conflicts,
            self.slot_computations,
            self.slot_refreshes,
            self.commit_rescores,
            self.stale_pops,
            self.incremental_patches,
            self.tasks_reused,
            self.tasks_computed,
            self.mutations,
            self.entries_spliced,
        );
        if let Some(n) = cost_evaluations {
            out.push_str(&format!(" cost.evaluations={n}"));
        }
        out
    }
}

/// The output audit, built on public types only: budget, double grants,
/// release accounting and recomputed plan quality.
#[derive(Debug, Default)]
pub struct Audit {
    /// `(slot, worker)` pairs held by live (committed, unreleased) plans.
    live: HashSet<(SlotIndex, WorkerId)>,
    pub failures: Vec<String>,
}

impl Audit {
    fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Checks one solve: a plan per task in order, spend within `budget`,
    /// recomputed quality, and (when `hold`) no pair granted twice among the
    /// live plans.  Returns, per task, whether it was committed: its plan
    /// passed and holds at least one execution.  A plan without executions
    /// leaves its task uncommitted but is no audit failure: a budget too
    /// small, or a deferred slot of a region drain, can leave a task empty.
    pub fn check_solve(
        &mut self,
        tasks: &[Task],
        outcome: &MultiOutcome,
        budget: f64,
        k: usize,
        hold: bool,
    ) -> Vec<bool> {
        let plans = &outcome.assignment.plans;
        let spend: f64 = plans.iter().map(AssignmentPlan::total_cost).sum();
        if spend > budget + 1e-9 {
            self.fail(format!("spend {spend} exceeds budget {budget}"));
            return vec![false; tasks.len()];
        }
        if plans.len() != tasks.len() {
            self.fail(format!("{} plans for {} tasks", plans.len(), tasks.len()));
        }
        let mut committed = vec![false; tasks.len()];
        let mut batch_pairs = HashSet::new();
        for ((task, plan), committed) in tasks.iter().zip(plans).zip(&mut committed) {
            let mut ok = plan.task == task.id && plan.num_slots == task.num_slots;
            let mut evaluator = QualityEvaluator::new(QualityParams::new(task.num_slots, k));
            for exec in &plan.executions {
                ok &= exec.slot < task.num_slots && evaluator.execute(exec.slot);
                let pair = (exec.slot, exec.worker);
                ok &= batch_pairs.insert(pair);
                if hold {
                    ok &= self.live.insert(pair);
                }
            }
            let quality = evaluator.quality();
            if (quality - plan.quality).abs() > 1e-9 {
                ok = false;
                self.fail(format!(
                    "task {:?}: reported quality {} recomputes to {quality}",
                    task.id, plan.quality
                ));
            }
            if !ok {
                self.fail(format!("task {:?}: plan failed the audit", task.id));
            }
            *committed = ok && !plan.executions.is_empty();
        }
        committed
    }

    /// Retires a held plan's pairs from the live set.
    pub fn release(&mut self, plan: &AssignmentPlan) {
        for exec in &plan.executions {
            if !self.live.remove(&(exec.slot, exec.worker)) {
                self.fail(format!(
                    "pair {:?} released but not live",
                    (exec.slot, exec.worker)
                ));
            }
        }
    }

    /// End-of-episode ledger accounting: every execution released exactly
    /// once and nothing left in the ledger.
    pub fn check_drained(&mut self, executions: u64, released: u64, ledger_len: usize) {
        if released != executions || ledger_len != 0 || !self.live.is_empty() {
            self.fail(format!(
                "released {released} of {executions} executions, final ledger {ledger_len}, \
                 {} live pairs",
                self.live.len()
            ));
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The input seed of one episode of a run.
pub fn episode_seed(seed: u64, episode: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(episode as u64)
}
