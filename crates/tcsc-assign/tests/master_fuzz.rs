//! Deterministic interleaving fuzz of the barrier master: the machine is
//! driven in-process against [`TaskOwner`] executors with a seeded scheduler
//! that picks, at every step, either a command to process or an event to
//! deliver — exploring message orderings real threads would produce (per-owner
//! command FIFO, arbitrary cross-owner event interleaving).  Every ordering
//! must commit the single-threaded driver's sequence with its conflict
//! count.  In debug builds the master also asserts on every heartbeat that
//! the task had a request outstanding, so the fuzz checks that no delivery
//! order ever leaves two heartbeat requests outstanding for one task.

// The reference run goes through the deprecated thread-driver wrapper on
// purpose: it is the entry point the fuzz pins.
#![allow(deprecated)]

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tcsc_assign::{
    msqm_task_parallel, CommittedExecution, MultiTaskConfig, TaskMaster, TaskOwner, TaskState,
    WorkerLedger,
};
use tcsc_core::{EuclideanCost, Task};
use tcsc_index::WorkerIndex;
use tcsc_workload::ScenarioConfig;

struct FuzzOutcome {
    committed: Vec<CommittedExecution>,
    conflicts: usize,
    executions: usize,
    sum_quality: f64,
}

/// Runs the machine under one seeded delivery order.  Each task is owned by
/// `task % owners`; commands to one owner are FIFO, event delivery to the
/// master interleaves freely across owners.
fn run_interleaved(
    seed: u64,
    owners: usize,
    tasks: &[Task],
    index: &WorkerIndex,
    config: &MultiTaskConfig,
) -> FuzzOutcome {
    let cost = EuclideanCost::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let owner_of: Vec<usize> = (0..tasks.len()).map(|i| i % owners).collect();
    let mut executors: Vec<TaskOwner> = (0..owners)
        .map(|o| {
            TaskOwner::new(
                tasks
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % owners == o)
                    .map(|(i, task)| (i, TaskState::new(task, index, &cost, config))),
            )
        })
        .collect();

    let (mut master, initial) =
        TaskMaster::new(tasks.len(), config.budget, WorkerLedger::new(), true);
    let mut command_queues: Vec<VecDeque<_>> = vec![VecDeque::new(); owners];
    for command in initial {
        command_queues[owner_of[command.task()]].push_back(command);
    }
    // Events ready for delivery, one queue per owner (same-owner events stay
    // ordered, like one thread's sends over an mpsc channel).
    let mut event_queues: Vec<VecDeque<_>> = vec![VecDeque::new(); owners];

    loop {
        let mut choices: Vec<(usize, bool)> = Vec::new();
        for o in 0..owners {
            if !command_queues[o].is_empty() {
                choices.push((o, true));
            }
            if !event_queues[o].is_empty() {
                choices.push((o, false));
            }
        }
        if choices.is_empty() {
            break;
        }
        let (o, is_command) = choices[rng.gen_range(0..choices.len())];
        if is_command {
            let command = command_queues[o].pop_front().expect("chosen non-empty");
            event_queues[o].push_back(executors[o].handle(command, index, &cost));
        } else {
            let event = event_queues[o].pop_front().expect("chosen non-empty");
            for command in master.handle(event) {
                command_queues[owner_of[command.task()]].push_back(command);
            }
        }
    }
    assert!(
        master.is_done(),
        "delivery drained without completing the run"
    );

    let sum_quality: f64 = executors
        .into_iter()
        .flat_map(TaskOwner::into_plans)
        .map(|(_, plan)| plan.quality)
        .sum();
    let (_, _, committed, conflicts, executions) = master.into_tables();
    FuzzOutcome {
        committed,
        conflicts,
        executions,
        sum_quality,
    }
}

/// One fuzzed scenario and the delivery orders it is run under.
struct Case {
    tasks: usize,
    slots: usize,
    workers: usize,
    budget: f64,
    seeds: u64,
    owner_counts: &'static [usize],
}

/// Runs every seed and owner count of `case` and checks each run against the
/// single-threaded driver's committed sequence, conflicts, executions and
/// quality.
fn assert_every_order_matches_the_reference(case: Case) {
    let scenario = ScenarioConfig::small()
        .with_num_tasks(case.tasks)
        .with_num_slots(case.slots)
        .with_num_workers(case.workers)
        .build();
    let index = WorkerIndex::build(&scenario.workers, case.slots, &scenario.domain);
    let cost = EuclideanCost::default();
    let cfg = MultiTaskConfig::new(case.budget);
    let reference = msqm_task_parallel(&scenario.tasks, &index, &cost, &cfg, 1, true);
    for seed in 0..case.seeds {
        for &owners in case.owner_counts {
            let run = run_interleaved(seed, owners, &scenario.tasks, &index, &cfg);
            let at = format!("{} tasks, seed {seed}, {owners} owners", case.tasks);
            assert_eq!(
                run.committed, reference.committed,
                "committed sequence diverged at {at}"
            );
            assert_eq!(
                run.conflicts, reference.outcome.conflicts,
                "conflict count diverged at {at}"
            );
            assert_eq!(run.executions, reference.outcome.executions, "{at}");
            assert!(
                (run.sum_quality - reference.outcome.sum_quality()).abs() < 1e-9,
                "quality diverged at {at}"
            );
        }
    }
}

#[test]
fn every_delivery_order_commits_the_barrier_outcome() {
    assert_every_order_matches_the_reference(Case {
        tasks: 8,
        slots: 24,
        workers: 60,
        budget: 40.0,
        seeds: 60,
        owner_counts: &[1, 3, 8],
    });
}

#[test]
fn barrier_policy_is_order_insensitive_too() {
    assert_every_order_matches_the_reference(Case {
        tasks: 6,
        slots: 20,
        workers: 50,
        budget: 25.0,
        seeds: 20,
        owner_counts: &[3],
    });
}
