//! `contended_ladder`: the Figure 6 victim (the 20KB synthetic kernel)
//! against the P2 and P3 rungs of the opponent ladder on a Random Modulo
//! shared L2, under round-robin and seeded-random arbitration.  The two
//! arbitrations run two different engines (the lane-batched contention
//! core and the scalar one), so a gain on one that costs the other shows.

use randmod_core::PlacementKind;
use randmod_mbpta::ExecutionSample;
use randmod_sim::{Arbitration, Campaign, ContendedRun, PackedTrace, PlatformConfig};
use randmod_workloads::{CoSchedule, MemoryLayout, SyntheticKernel};
use std::time::Instant;

use randmod_experiments::runner::{analyze, contention_platform};

use crate::common::{Pass, Workload, CHECK_THREADS, CUTOFF_PROBABILITY, DEFAULT_SEED, THREADS};
use crate::spans::Tracer;

/// The recorded Figure 6 RM/P2 round-robin cell at the default seed.
pub const FIG6_PWCET: u64 = 169_328;
pub const FIG6_MEAN: u64 = 162_650;
const FIG6_RUNS: usize = 300;
const PRESSURES: [usize; 2] = [2, 3];
const THREAD_CHECK_RUNS: usize = 16;

fn arbitration_name(arbitration: Arbitration) -> &'static str {
    match arbitration {
        Arbitration::RoundRobin => "round_robin",
        Arbitration::SeededRandom => "seeded_random",
    }
}

/// The Figure 6 platform: Random Modulo in every L1 and at the shared L2.
fn platform() -> PlatformConfig {
    contention_platform(PlacementKind::RandomModulo)
}

/// Figure 6 folds the L2 placement into the campaign seed.
fn campaign_seed(seed: u64) -> u64 {
    seed ^ ((PlacementKind::RandomModulo as u64) << 8)
}

struct Cell {
    pressure: usize,
    arbitration: Arbitration,
    campaign: Campaign,
}

impl Cell {
    fn name(&self) -> String {
        format!("P{}.{}", self.pressure, arbitration_name(self.arbitration))
    }
}

pub struct Contended {
    seed: u64,
    cells: Vec<Cell>,
    /// The first pass's leading runs of every cell.
    reference: Vec<Vec<ContendedRun>>,
    /// The first pass's P2 round-robin victim cycles (Figure 6 pin).
    pin_victim: Vec<u64>,
}

fn emit(pressure: usize) -> Vec<PackedTrace> {
    CoSchedule::pressure_level(SyntheticKernel::fits_l2(), pressure)
        .packed_traces(&MemoryLayout::default())
}

impl Contended {
    pub fn setup(seed: u64, runs: usize) -> Result<Self, String> {
        let mut cells = Vec::new();
        for pressure in PRESSURES {
            for arbitration in Arbitration::ALL {
                let campaign = Campaign::new(platform(), runs)
                    .with_campaign_seed(campaign_seed(seed))
                    .with_threads(THREADS)
                    .with_arbitration(arbitration);
                cells.push(Cell {
                    pressure,
                    arbitration,
                    campaign,
                });
            }
        }
        for cell in &cells {
            let sources = emit(cell.pressure);
            let seeds = &cell.campaign.seed_schedule()[..runs.min(8)];
            cell.campaign
                .run_contended(&sources, seeds)
                .map_err(|e| format!("{}: {e}", cell.name()))?;
        }
        Ok(Contended {
            seed,
            cells,
            reference: Vec::new(),
            pin_victim: Vec::new(),
        })
    }
}

impl Workload for Contended {
    fn pass(&mut self, tracer: &Tracer) -> Pass {
        let mut pass = Pass::default();
        let keep_reference = self.reference.is_empty();
        let mut traces: Vec<(usize, Vec<PackedTrace>)> = Vec::new();
        tracer.span("workloads.emit", || {
            for pressure in PRESSURES {
                let sources = emit(pressure);
                let events: usize = sources.iter().map(PackedTrace::len).sum();
                tracer.count("events", events as u64);
                pass.counts.add("workloads.emit_events", events as u64);
                traces.push((pressure, sources));
            }
        });
        for cell in &self.cells {
            let name = cell.name();
            let Some((_, sources)) = traces.iter().find(|(p, _)| *p == cell.pressure) else {
                continue;
            };
            let per_run: usize = sources.iter().map(PackedTrace::len).sum();
            let start = Instant::now();
            pass.attempted += 1;
            let result = tracer.span(
                &format!(
                    "sim.contended.{}.P{}",
                    arbitration_name(cell.arbitration),
                    cell.pressure
                ),
                || {
                    let result = cell.campaign.run_contended_campaign(sources);
                    tracer.count("runs", cell.campaign.runs() as u64);
                    tracer.count("events", (cell.campaign.runs() * per_run) as u64);
                    result
                },
            );
            let result = match result {
                Ok(result) => result,
                Err(err) => {
                    pass.failures
                        .push(format!("{name}: campaign failed: {err}"));
                    continue;
                }
            };
            let victim = ExecutionSample::from_cycles_iter(result.task_cycles_iter(0));
            let pwcet = tracer.span(&format!("mbpta.analyze.{name}"), || {
                analyze(&victim).pwcet_at(CUTOFF_PROBABILITY)
            });
            let events = (result.len() * per_run) as u64;
            pass.unit(&name, start.elapsed().as_secs_f64() * 1e3, true);
            pass.events += events;
            pass.check(
                result.len() == cell.campaign.runs() && result.task_count() == sources.len(),
                || {
                    format!(
                        "{name}: {} runs of {} tasks",
                        result.len(),
                        result.task_count()
                    )
                },
            );
            pass.check(pwcet.is_finite() && pwcet >= victim.max() as f64, || {
                format!(
                    "{name}: pWCET {pwcet} below the observed maximum {}",
                    victim.max()
                )
            });
            for run in result.runs() {
                for task in &run.tasks {
                    pass.digest.run(task.cycles, &task.stats);
                    pass.counts.run(&task.stats);
                }
            }
            pass.digest.word(pwcet.to_bits());
            if keep_reference {
                self.reference
                    .push(result.runs()[..THREAD_CHECK_RUNS.min(result.len())].to_vec());
                if cell.pressure == 2 && cell.arbitration == Arbitration::RoundRobin {
                    self.pin_victim = result.task_cycles_iter(0).take(FIG6_RUNS).collect();
                }
            }
        }
        pass
    }

    fn verify(&mut self, _first: &Pass) -> Vec<String> {
        let mut failures = Vec::new();
        // Figure 6 pin: the RM/P2 round-robin cell, 300 runs at the
        // default seed.  Other seeds (or shorter cells) run it on the side.
        let victim = if self.seed == DEFAULT_SEED && self.pin_victim.len() == FIG6_RUNS {
            self.pin_victim.clone()
        } else {
            match Campaign::new(platform(), FIG6_RUNS)
                .with_campaign_seed(campaign_seed(DEFAULT_SEED))
                .with_threads(CHECK_THREADS)
                .run_contended_campaign(&emit(2))
            {
                Ok(result) => result.task_cycles_iter(0).collect(),
                Err(err) => return vec![format!("fig6 pin campaign failed: {err}")],
            }
        };
        let sample = ExecutionSample::from_cycles(&victim);
        let pwcet = analyze(&sample).pwcet_at(CUTOFF_PROBABILITY);
        if pwcet.round() as u64 != FIG6_PWCET || sample.mean().round() as u64 != FIG6_MEAN {
            failures.push(format!(
                "fig6 pin: pWCET {pwcet:.2} and mean {:.2}, expected {FIG6_PWCET} and {FIG6_MEAN}",
                sample.mean()
            ));
        }
        for (cell, reference) in self.cells.iter().zip(&self.reference) {
            let seeds: Vec<u64> = reference.iter().map(|r| r.seed).collect();
            match cell
                .campaign
                .clone()
                .with_threads(CHECK_THREADS)
                .run_contended(&emit(cell.pressure), &seeds)
            {
                Ok(result) if result.runs() == reference.as_slice() => {}
                Ok(_) => failures.push(format!(
                    "{}: runs differ between {THREADS} and {CHECK_THREADS} campaign threads",
                    cell.name()
                )),
                Err(err) => {
                    failures.push(format!("{}: one-thread rerun failed: {err}", cell.name()))
                }
            }
        }
        failures
    }
}
