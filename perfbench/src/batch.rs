//! `batch-plan`: the paper's multi-task setting as a paced batch stream.
//! Each batch holds a few tasks with tens of slots, solved by `SolverBuilder`
//! (serial runtime, summed quality) through `solve_indexed` on a prebuilt
//! index, with a fresh ledger per batch.  A batch is due every `PERIOD_US`,
//! more than twice the time a solve takes, so the planner idles between
//! batches as a planning service does.  Run back to back instead, the solves
//! ran as fast as the shared host let them at that moment, and their times
//! followed it.

use std::time::{Duration, Instant};

use tcsc::assign::{AssignmentEngine, MultiTaskConfig, Objective, TaskState};
use tcsc::core::{CostModel, EuclideanCost, Task};
use tcsc::index::WorkerIndex;
use tcsc::obs::{profile_spans, ObsSession};
use tcsc::solver::{Runtime, SolveObjective, SolverBuilder};
use tcsc::workload::ScenarioConfig;

use crate::measure::{
    episode_seed, ms_since, quantile, self_ms, sleep_until, timed, Counters, CountingCost, Spent,
};
use crate::RunStats;

const WORKERS: usize = 1_200;
const SLOTS: usize = 30;
const TASKS_PER_BATCH: usize = 6;
/// Batches per episode: enough that an episode's p99 has 5 samples beyond it.
const BATCHES: usize = 500;
/// Budget per batch: enough that every task of a batch gets a worker.
const BUDGET: f64 = 200.0;
/// A batch is due every 6.25 ms: 160 batches (960 tasks) per second, about
/// 40% of what the planner sustains on a 2-vCPU host.
const PERIOD_US: u64 = 6_250;

pub fn run(seed: u64, seconds: f64, trace: bool) -> RunStats {
    let euclid = EuclideanCost::default();
    let config = MultiTaskConfig::new(BUDGET);
    let mut stats = RunStats::new("batch-plan", seed);
    let episode_s = (BATCHES as u64 * PERIOD_US) as f64 / 1e6;
    let episodes = ((seconds / episode_s).round() as usize).max(2);
    let period = Duration::from_micros(PERIOD_US);

    for episode in 0..episodes {
        let traced = trace && episode % 2 == 1;
        // Every episode draws a fresh fleet and task set.
        let scenario = ScenarioConfig::small()
            .with_num_slots(SLOTS)
            .with_num_workers(WORKERS)
            .with_num_tasks(TASKS_PER_BATCH * BATCHES)
            .with_seed(episode_seed(seed, episode))
            .build();
        let batches: Vec<&[Task]> = scenario.tasks.chunks(TASKS_PER_BATCH).collect();

        // Set-up: index build, solver construction, one warm-up batch.
        let solver = SolverBuilder::new(BUDGET)
            .with_config(config)
            .with_runtime(Runtime::Serial)
            .with_objective(SolveObjective::SumQuality);
        let index = stats.set_up(|| {
            let (index, build) =
                timed(|| WorkerIndex::build(&scenario.workers, SLOTS, &scenario.domain));
            solver.solve_indexed(batches[0], &index, &scenario.domain, &euclid);
            (index, build.cpu)
        });

        let mut counters = Counters::new();
        let mut quality_sum = 0.0;
        let mut busy = Spent::default();
        let mut latencies = Vec::with_capacity(batches.len());
        let mut taskstate_ms = 0.0;
        let mut refresh_nanos = 0u64;
        let mut lag_ms = Vec::with_capacity(batches.len());
        let wall = ObsSession::wall();
        let counting = CountingCost::new(&euclid);
        let start = Instant::now();
        for (i, batch) in batches.iter().enumerate() {
            let due = start + period * i as u32;
            sleep_until(due);
            lag_ms.push(ms_since(Instant::now(), due));
            let (outcome, spent) = if traced {
                // `solve_indexed` on the serial runtime is exactly this
                // engine call; `tests/fingerprint.rs` holds it to that by
                // comparing traced and untraced fingerprints.
                let cost: &dyn CostModel = &counting;
                let (_, build) = timed(|| {
                    batch
                        .iter()
                        .map(|t| TaskState::new(t, &index, &euclid, &config))
                        .collect::<Vec<_>>()
                });
                taskstate_ms += build.cpu;
                let mut engine =
                    AssignmentEngine::borrowed(&index, cost, config).with_recorder(&wall);
                timed(|| engine.assign_batch(batch, Objective::SumQuality))
            } else {
                timed(|| solver.solve_indexed(batch, &index, &scenario.domain, &euclid))
            };
            busy += spent;
            latencies.push(spent);
            stats.attempted += batch.len() as u64;
            let committed = stats
                .audit
                .check_solve(batch, &outcome, BUDGET, config.k, false);
            stats.committed += committed.iter().filter(|&&c| c).count() as u64;
            counters.absorb(&outcome);
            refresh_nanos += outcome.stats.refresh_nanos;
            quality_sum += outcome
                .assignment
                .plans
                .iter()
                .map(|p| p.quality)
                .sum::<f64>();
        }
        let wall_ms = ms_since(Instant::now(), start);
        counters.quality_bits = quality_sum.to_bits();
        stats.record_episode(&counters, quality_sum);

        if traced {
            stats.record_traced(counters.tasks, busy);
            *stats.cost_evaluations.get_or_insert(0) += counting.evaluations();
            let profile = profile_spans(&wall.merged_events());
            stats.layer(
                "engine.checkout_self_ms",
                self_ms(&profile, "engine.checkout"),
            );
            stats.layer("engine.commit_self_ms", self_ms(&profile, "engine.commit"));
            stats.layer("multi.taskstate_build_ms", taskstate_ms);
            stats.layer("cost.evaluations", counting.evaluations() as f64);
        } else {
            stats.record_timing(&latencies, counters.tasks, busy);
        }
        if traced || !trace {
            stats.counter_layers(&counters);
            stats.layer("multi.refresh_ms", refresh_nanos as f64 / 1e6);
            stats.layer("driver.busy_share", busy.wall / wall_ms);
            stats.layer("driver.lag_p99_ms", quantile(&lag_ms, 0.99));
        }
    }
    stats
}
