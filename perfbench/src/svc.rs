//! The open-loop service workloads: `svc-rush` (serial engine over a dense
//! index, plans held and released) and `svc-mobile` (concurrent engine over a
//! sharded index with a moving, churning fleet).
//!
//! One thread generates all load.  Tasks are batched by their due tick, so
//! the batches, plan releases and fleet motion never depend on how late the
//! engine runs; only the timings do.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use tcsc::assign::{
    AssignmentEngine, ConcurrentAssignmentEngine, ConflictAccounting, MultiOutcome,
    MultiTaskConfig, Objective,
};
use tcsc::core::{AssignmentPlan, CostModel, Domain, EuclideanCost, Task, TaskId, WorkerPool};
use tcsc::index::WorkerIndex;
use tcsc::index::{IndexMutation, MutableSpatialIndex as _, ShardGridConfig, ShardedWorkerIndex};
use tcsc::obs::{profile_spans, ObsSession, Recorder};
use tcsc::workload::{
    BoundedPareto, HeavyTailedArrivals, MotionTape, PhaseSchedule, ScenarioConfig,
    SpatialDistribution, WorkerChurnConfig, WorkerMotion,
};

use crate::measure::{episode_seed, timed, CountingCost, Spent};
use crate::measure::{median, ms_since, quantile, self_ms, sleep_until, Audit, Counters};
use crate::RunStats;

const SLOTS: usize = 2;
const TICK_US: u64 = 10_000;
/// Warm-up tasks solved (and released) during set-up, in batches.
const WARMUP_TASKS: usize = 256;
const WARMUP_BATCH: usize = 64;
const WARMUP_ID_BASE: u32 = 1 << 30;

/// Arrival schedule of every service episode: calm, rush (4x the calm rate)
/// and recovery, one cycle per episode.
const CALM_US: u64 = 200_000;
const RUSH_US: u64 = 200_000;
/// Budget per drained task: enough for both slots of a task even at rush
/// occupancy, so that no task is left without a worker for want of budget.
const BUDGET_PER_TASK: f64 = 50.0;
/// Ticks an episode runs past its schedule to drain tasks still left without
/// a worker.
const FLUSH_TICKS: usize = 10;
/// The engines' interpolation `k`, which the audit needs to recompute plan
/// quality.
const K: usize = 3;
/// The mobile fleet: a 4x4 shard grid, 12 workers drifting per tick and a 60%
/// chance per tick that one worker leaves and a fresh one joins.
const GRID: usize = 4;
/// Worker threads of the concurrent engine.  Region drains run one after
/// another on it; with two, each drain waited for the slower of two shared
/// vCPUs and `capacity_tps` followed the host.
const ENGINE_THREADS: usize = 1;
const MOVES_PER_TICK: usize = 12;
const CHURN_PROB: f64 = 0.6;

/// The shape of one service workload.
pub struct SvcSpec {
    pub name: &'static str,
    pub workers: usize,
    /// Mean calm inter-arrival gap in µs.
    pub mean_gap_us: f64,
    /// Ticks a committed plan holds its workers before it is released.
    pub hold_ticks: usize,
    /// The moving fleet on the concurrent sharded engine, or a still fleet
    /// on the serial dense engine.
    pub mobile: bool,
}

/// `svc-rush`: 800 workers, calm 1 250/s -> rush 5 000/s, plans held 60 ms
/// so rush occupancy reaches about 0.8 of the fleet.
pub const RUSH: SvcSpec = SvcSpec {
    name: "svc-rush",
    workers: 800,
    mean_gap_us: 800.0,
    hold_ticks: 6,
    mobile: false,
};

/// `svc-mobile`: 2 400 moving workers, calm 1 250/s -> rush 5 000/s.
pub const MOBILE: SvcSpec = SvcSpec {
    name: "svc-mobile",
    workers: 2_400,
    mean_gap_us: 800.0,
    hold_ticks: 4,
    mobile: true,
};

/// Everything a run replays, generated from the seed before any timing.
struct Inputs {
    pool: WorkerPool,
    domain: Domain,
    /// Tasks due at the end of each tick.
    ticks: Vec<Vec<Task>>,
    /// The arrival time (ms into the episode) of each of those tasks.
    arrivals_ms: Vec<Vec<f64>>,
    /// Fleet motion applied at each tick, before its drain.
    motions: Vec<Vec<WorkerMotion>>,
    warmup: Vec<Task>,
}

fn generate(spec: &SvcSpec, seed: u64) -> Inputs {
    let scenario = ScenarioConfig::small()
        .with_num_slots(SLOTS)
        .with_num_workers(spec.workers)
        .with_num_tasks(1)
        .with_seed(seed)
        .build();
    // Bounded Pareto gaps on [low, 50 low], alpha 1.5, scaled to the mean.
    let low = spec.mean_gap_us / BoundedPareto::new(1.5, 1.0, 50.0).mean();
    let arrivals = HeavyTailedArrivals {
        seed: seed ^ 0xa441_a441,
        inter_arrival_us: BoundedPareto::new(1.5, low, 50.0 * low),
        schedule: PhaseSchedule::rush_hour(CALM_US, RUSH_US, 4.0),
        num_slots: SLOTS,
        distribution: SpatialDistribution::Uniform,
        domain: scenario.domain,
    };
    let episode_us = arrivals.schedule.cycle_us();
    let num_ticks = (episode_us / TICK_US) as usize;
    let mut ticks = vec![Vec::new(); num_ticks];
    let mut arrivals_ms = vec![Vec::new(); num_ticks];
    let mut sampler = arrivals.sampler();
    loop {
        let arrival = sampler.next_arrival();
        if arrival.at_us >= episode_us {
            break;
        }
        let tick = (arrival.at_us / TICK_US) as usize;
        ticks[tick].push(arrival.task);
        arrivals_ms[tick].push(arrival.at_us as f64 / 1e3);
    }
    let warmup = ticks
        .iter()
        .flatten()
        .take(WARMUP_TASKS)
        .enumerate()
        .map(|(i, t)| Task::new(TaskId(WARMUP_ID_BASE + i as u32), t.location, t.num_slots))
        .collect();
    let mut motions = vec![Vec::new(); num_ticks];
    if spec.mobile {
        let churn = WorkerChurnConfig {
            seed: seed ^ 0x0b11_0b11,
            tick_us: TICK_US,
            moves_per_tick: MOVES_PER_TICK,
            churn_prob: CHURN_PROB,
            drift_fraction: 0.25,
            num_slots: SLOTS,
            domain: scenario.domain,
        };
        for event in MotionTape::generate(&churn, &scenario.workers, num_ticks).events {
            let tick = (event.at_us / TICK_US) as usize - 1;
            motions[tick].push(event.motion);
        }
    }
    Inputs {
        pool: scenario.workers,
        domain: scenario.domain,
        ticks,
        arrivals_ms,
        motions,
        warmup,
    }
}

/// The engine operations the service loop drives.
trait Service {
    fn drain(&mut self, tasks: Vec<Task>, budget: f64) -> MultiOutcome;
    /// Releases a retired plan; returns the executions accounted for
    /// (released here, or already released when the worker went offline).
    fn release(&mut self, plan: &AssignmentPlan) -> u64;
    fn apply(&mut self, motion: &WorkerMotion) -> IndexMutation;
    fn ledger_len(&self) -> usize;
    /// `(interior, boundary)` tasks of the last region-overlapped drain.
    fn last_split(&self) -> (u64, u64);
}

impl<R: Recorder> Service for AssignmentEngine<'_, R> {
    fn drain(&mut self, tasks: Vec<Task>, budget: f64) -> MultiOutcome {
        self.set_budget(budget);
        self.submit(tasks);
        AssignmentEngine::drain(self, Objective::SumQuality)
    }

    fn release(&mut self, plan: &AssignmentPlan) -> u64 {
        self.release_plan(plan) as u64
    }

    fn apply(&mut self, motion: &WorkerMotion) -> IndexMutation {
        match motion {
            WorkerMotion::Move { id, to } => self.move_worker(*id, *to),
            WorkerMotion::Offline { id } => self.remove_worker(*id),
            WorkerMotion::Online { worker } => self.insert_worker(worker),
        }
    }

    fn ledger_len(&self) -> usize {
        self.ledger().len()
    }

    fn last_split(&self) -> (u64, u64) {
        (0, 0)
    }
}

impl<R: Recorder> Service for ConcurrentAssignmentEngine<'_, R> {
    fn drain(&mut self, tasks: Vec<Task>, budget: f64) -> MultiOutcome {
        self.set_budget(budget);
        self.submit(tasks);
        self.drain_parallel(Objective::SumQuality)
    }

    fn release(&mut self, plan: &AssignmentPlan) -> u64 {
        let mut accounted = 0;
        for exec in &plan.executions {
            match self.index().worker_profile(exec.worker) {
                Some(profile) => {
                    let Some((_, loc)) = profile.entries.iter().find(|(s, _)| *s == exec.slot)
                    else {
                        continue;
                    };
                    let shard = self.index().spatial_shard_of(loc);
                    accounted += u64::from(self.ledger().release(shard, exec.slot, exec.worker));
                }
                // An offline worker's commitments left with it.
                None => accounted += 1,
            }
        }
        accounted
    }

    fn apply(&mut self, motion: &WorkerMotion) -> IndexMutation {
        match motion {
            WorkerMotion::Move { id, to } => self.move_worker(*id, *to),
            WorkerMotion::Offline { id } => self.remove_worker(*id),
            WorkerMotion::Online { worker } => self.insert_worker(worker),
        }
    }

    fn ledger_len(&self) -> usize {
        self.ledger().len()
    }

    fn last_split(&self) -> (u64, u64) {
        self.last_drain_report().map_or((0, 0), |r| {
            (r.interior_tasks as u64, r.boundary_tasks as u64)
        })
    }
}

/// What one episode measured.
#[derive(Default)]
struct Episode {
    counters: Counters,
    quality_sum: f64,
    attempted: u64,
    committed: u64,
    /// Per committed task: ms from its arrival to the end of its drain, on
    /// each clock's schedule.
    latencies: Vec<Spent>,
    /// CPU time of each drain, mutation and release round.
    drain_ms: Vec<f64>,
    mutate_us: Vec<f64>,
    release_ms: f64,
    lag_ms: Vec<f64>,
    busy: Spent,
    wall_ms: f64,
    backlog_peak: u64,
    peak_ledger: usize,
    interior: u64,
    boundary: u64,
}

/// Runs one episode: every tick of the schedule in real time.
///
/// A task's latency runs from its arrival to the end of the drain that
/// commits it, on the engine's own schedule: each tick's calls start when
/// the tick is due or when the previous tick's calls end, whichever is later,
/// and take the time they were measured to take.  So a slow call delays every
/// later tick, as in a real queue, but the time the load generator takes to
/// wake up and its audit work between calls do not count;
/// `driver.lag_p99_ms` reports the former.  The schedule is kept by both
/// clocks of `Spent`.
fn run_episode(
    engine: &mut impl Service,
    inputs: &Inputs,
    spec: &SvcSpec,
    audit: &mut Audit,
) -> Episode {
    let mut ep = Episode {
        counters: Counters::new(),
        ..Episode::default()
    };
    let mut retire: VecDeque<(usize, Vec<AssignmentPlan>)> = VecDeque::new();
    // Tasks left without a worker, with their arrival times.
    let mut deferred: Vec<(Task, f64)> = Vec::new();
    let mut released = 0u64;
    let tick = Duration::from_micros(TICK_US);
    let tick_ms = TICK_US as f64 / 1e3;
    // When the engine finishes the calls issued so far, in ms from `start`.
    let mut free_at = Spent::default();
    let start = Instant::now();
    let num_ticks = inputs.ticks.len();
    for k in 0..num_ticks + FLUSH_TICKS {
        if k >= num_ticks && deferred.is_empty() {
            break;
        }
        let tasks: &[Task] = inputs.ticks.get(k).map_or(&[], Vec::as_slice);
        let arrived: &[f64] = inputs.arrivals_ms.get(k).map_or(&[], Vec::as_slice);
        let due = start + tick * (k as u32 + 1);
        sleep_until(due);
        let lag = ms_since(Instant::now(), due);
        ep.lag_ms.push(lag);
        let behind = (lag / tick_ms) as usize;
        let backlog: usize = inputs.ticks[k.min(num_ticks)..num_ticks.min(k + behind + 1)]
            .iter()
            .map(Vec::len)
            .sum();
        ep.backlog_peak = ep.backlog_peak.max(backlog as u64);
        let busy_before = ep.busy;

        for motion in inputs.motions.get(k).into_iter().flatten() {
            let (mutation, spent) = timed(|| engine.apply(motion));
            ep.mutate_us.push(spent.cpu * 1e3);
            ep.busy += spent;
            if !mutation.applied {
                audit
                    .failures
                    .push(format!("tick {k}: motion {motion:?} was rejected"));
            }
            ep.counters.mutations += 1;
            ep.counters.entries_spliced += mutation.entries_touched as u64;
        }

        while retire.front().is_some_and(|(at, _)| *at <= k) {
            let (_, plans) = retire.pop_front().expect("front checked");
            released += release_all(engine, &plans, audit, &mut ep);
        }

        let due_ms = tick_ms * (k + 1) as f64;
        let advance = |free_at: Spent, busy: Spent| Spent {
            wall: free_at.wall.max(due_ms) + busy.wall,
            cpu: free_at.cpu.max(due_ms) + busy.cpu,
        };
        if tasks.is_empty() && deferred.is_empty() {
            free_at = advance(free_at, ep.busy - busy_before);
            continue;
        }
        // Tasks a drain left without a worker go first into the next one.
        let (mut batch, mut arrivals): (Vec<Task>, Vec<f64>) = deferred.drain(..).unzip();
        batch.extend_from_slice(tasks);
        arrivals.extend_from_slice(arrived);
        let budget = BUDGET_PER_TASK * batch.len() as f64;
        let submitted = batch.clone();
        let (outcome, spent) = timed(|| engine.drain(submitted, budget));
        ep.drain_ms.push(spent.cpu);
        ep.busy += spent;
        free_at = advance(free_at, ep.busy - busy_before);
        ep.attempted += tasks.len() as u64;
        let committed = audit.check_solve(&batch, &outcome, budget, K, true);
        for ((task, arrival), committed) in batch.into_iter().zip(arrivals).zip(committed) {
            if committed {
                ep.committed += 1;
                ep.latencies.push(Spent {
                    wall: free_at.wall - arrival,
                    cpu: free_at.cpu - arrival,
                });
            } else {
                deferred.push((task, arrival));
            }
        }
        ep.counters.absorb(&outcome);
        ep.quality_sum += outcome
            .assignment
            .plans
            .iter()
            .map(|p| p.quality)
            .sum::<f64>();
        ep.peak_ledger = ep.peak_ledger.max(engine.ledger_len());
        let (interior, boundary) = engine.last_split();
        ep.interior += interior;
        ep.boundary += boundary;
        retire.push_back((k + spec.hold_ticks, outcome.assignment.plans));
    }
    for (_, plans) in std::mem::take(&mut retire) {
        released += release_all(engine, &plans, audit, &mut ep);
    }
    if !deferred.is_empty() {
        audit.failures.push(format!(
            "{} tasks left without a worker at the end of the episode",
            deferred.len()
        ));
    }
    ep.wall_ms = ms_since(Instant::now(), start);
    audit.check_drained(ep.counters.executions, released, engine.ledger_len());
    ep.counters.quality_bits = ep.quality_sum.to_bits();
    ep
}

fn release_all(
    engine: &mut impl Service,
    plans: &[AssignmentPlan],
    audit: &mut Audit,
    ep: &mut Episode,
) -> u64 {
    let (released, spent) = timed(|| plans.iter().map(|p| engine.release(p)).sum::<u64>());
    ep.release_ms += spent.cpu;
    ep.busy += spent;
    for plan in plans {
        audit.release(plan);
    }
    released
}

/// The fixed warm-up of every set-up: the warm-up tasks drained in
/// tick-sized batches, each released right after.
fn warm_up(engine: &mut impl Service, inputs: &Inputs) {
    for batch in inputs.warmup.chunks(WARMUP_BATCH) {
        let budget = BUDGET_PER_TASK * batch.len() as f64;
        let outcome = engine.drain(batch.to_vec(), budget);
        for plan in &outcome.assignment.plans {
            engine.release(plan);
        }
    }
}

pub fn run(spec: &SvcSpec, seed: u64, seconds: f64, trace: bool) -> RunStats {
    let mut stats = RunStats::new(spec.name, seed);
    let euclid = EuclideanCost::default();
    let episode_s = (2 * CALM_US + RUSH_US) as f64 / 1e6;
    let episodes = ((seconds / episode_s).round() as usize).max(2);
    for e in 0..episodes {
        // Every episode draws a fresh fleet and arrival stream, so one run
        // averages over many inputs; the count depends on `seconds` only.
        let inputs = generate(spec, episode_seed(seed, e));
        // Traced runs alternate untraced and traced episodes, so the
        // overhead ratio compares like with like.
        let traced = trace && e % 2 == 1;
        let counting = CountingCost::new(&euclid);
        let cost: &dyn CostModel = if traced { &counting } else { &euclid };
        let wall = ObsSession::wall();
        let (ep, cost_evaluations) = if !spec.mobile {
            let mut engine = stats.set_up(|| {
                let (index, build) =
                    timed(|| WorkerIndex::build(&inputs.pool, SLOTS, &inputs.domain));
                let mut engine =
                    AssignmentEngine::new(index, cost, MultiTaskConfig::new(0.0).with_k(K));
                warm_up(&mut engine, &inputs);
                (engine, build.cpu)
            });
            let before = counting.evaluations();
            let ep = if traced {
                let mut engine = engine.with_recorder(&wall);
                run_episode(&mut engine, &inputs, spec, &mut stats.audit)
            } else {
                run_episode(&mut engine, &inputs, spec, &mut stats.audit)
            };
            (ep, counting.evaluations() - before)
        } else {
            let mut engine = stats.set_up(|| {
                let grid = ShardGridConfig::new(GRID, GRID);
                let (index, build) =
                    timed(|| ShardedWorkerIndex::build(&inputs.pool, SLOTS, &inputs.domain, grid));
                let config = MultiTaskConfig::new(0.0)
                    .with_k(K)
                    .with_accounting(ConflictAccounting::V2);
                let mut engine =
                    ConcurrentAssignmentEngine::new(index, cost, config, ENGINE_THREADS);
                // One-shot service tasks: cap each shard cache so
                // invalidation scans track live tasks, not the stream.
                engine.set_cache_capacity(Some(64));
                warm_up(&mut engine, &inputs);
                (engine, build.cpu)
            });
            let before = counting.evaluations();
            let ep = if traced {
                let mut engine = engine.with_recorder(&wall);
                run_episode(&mut engine, &inputs, spec, &mut stats.audit)
            } else {
                run_episode(&mut engine, &inputs, spec, &mut stats.audit)
            };
            (ep, counting.evaluations() - before)
        };
        stats.record_episode(&ep.counters, ep.quality_sum);
        stats.attempted += ep.attempted;
        stats.committed += ep.committed;
        if traced {
            stats.record_traced(ep.committed, ep.busy);
            *stats.cost_evaluations.get_or_insert(0) += cost_evaluations;
            let profile = profile_spans(&wall.merged_events());
            stats.layer(
                "engine.checkout_self_ms",
                self_ms(&profile, "engine.checkout"),
            );
            stats.layer("engine.commit_self_ms", self_ms(&profile, "engine.commit"));
            stats.layer(
                "cengine.region_drain_self_ms",
                self_ms(&profile, "cengine.region_drain"),
            );
            stats.layer(
                "cengine.boundary_pass_self_ms",
                self_ms(&profile, "cengine.boundary_pass"),
            );
            stats.layer("cost.evaluations", cost_evaluations as f64);
        } else {
            stats.record_timing(&ep.latencies, ep.committed, ep.busy);
        }
        if traced || !trace {
            let c = &ep.counters;
            stats.layer("index.mutations", c.mutations as f64);
            stats.layer(
                "index.mutate_ms_total",
                ep.mutate_us.iter().fold(0.0, |a, b| a + b) / 1e3,
            );
            stats.layer("index.mutate_us_p99", quantile(&ep.mutate_us, 0.99));
            stats.layer("index.entries_spliced", c.entries_spliced as f64);
            stats.layer("engine.drain_ms_p50", median(&ep.drain_ms));
            stats.layer("engine.drain_ms_p99", quantile(&ep.drain_ms, 0.99));
            stats.layer("engine.release_ms_total", ep.release_ms);
            stats.counter_layers(c);
            let split = ep.interior + ep.boundary;
            stats.layer(
                "router.boundary_share",
                if split > 0 {
                    ep.boundary as f64 / split as f64
                } else {
                    0.0
                },
            );
            stats.layer(
                "ledger.peak_occupancy_share",
                ep.peak_ledger as f64 / spec.workers as f64,
            );
            stats.layer("driver.lag_p99_ms", quantile(&ep.lag_ms, 0.99));
            stats.layer("driver.backlog_peak", ep.backlog_peak as f64);
            stats.layer("driver.busy_share", ep.busy.wall / ep.wall_ms);
        }
    }
    stats
}
