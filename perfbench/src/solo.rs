//! `solo_placements`: the paper's MBPTA protocol.  The Figure 1 20KB
//! synthetic kernel runs a 1,000-seed campaign under each of modulo, XOR,
//! hRP and Random Modulo in the L1s (hRP in the L2), and each campaign is
//! carried through to its pWCET.  Nearly all of the time is in the
//! lane-batched engine; the scalar engine, contention and the server are
//! bypassed.

use randmod_core::PlacementKind;
use randmod_mbpta::ExecutionSample;
use randmod_sim::{Campaign, PackedTrace, RunResult};
use randmod_workloads::{MemoryLayout, SyntheticKernel, Workload as _};
use std::time::Instant;

use randmod_experiments::runner::{analyze, platform_with_l1};

use crate::common::{
    placement_name, Pass, Workload, CHECK_THREADS, CUTOFF_PROBABILITY, DEFAULT_SEED, THREADS,
};
use crate::spans::Tracer;

/// The recorded Figure 1 pWCET at 10⁻¹⁵: the first 300 Random Modulo
/// runs at the default seed.
pub const FIG1_PWCET: u64 = 171_639;
const FIG1_RUNS: usize = 300;
/// Runs re-checked at one campaign thread by `verify`.
const THREAD_CHECK_RUNS: usize = 64;

pub struct Solo {
    kernel: SyntheticKernel,
    seed: u64,
    campaigns: Vec<(PlacementKind, Campaign)>,
    /// The first pass's leading runs per placement (thread-count check).
    reference: Vec<Vec<RunResult>>,
    /// The first pass's first 300 Random Modulo runs (Figure 1 pin).
    rm_prefix: Vec<u64>,
}

impl Solo {
    pub fn setup(seed: u64, runs: usize) -> Result<Self, String> {
        let kernel = SyntheticKernel::fits_l2();
        let campaigns = PlacementKind::ALL
            .iter()
            .map(|&p| {
                (
                    p,
                    Campaign::new(platform_with_l1(p), runs)
                        .with_campaign_seed(seed)
                        .with_threads(THREADS),
                )
            })
            .collect::<Vec<_>>();
        // Warm-up: a short campaign per placement faults in the engine's
        // tables and the thread pool before anything is timed.
        let trace = kernel.packed_trace(&MemoryLayout::default());
        for (p, campaign) in &campaigns {
            let seeds = &campaign.seed_schedule()[..runs.min(32)];
            campaign
                .run_seeds(&trace, seeds)
                .map_err(|e| format!("{}: {e}", placement_name(*p)))?;
        }
        Ok(Solo {
            kernel,
            seed,
            campaigns,
            reference: Vec::new(),
            rm_prefix: Vec::new(),
        })
    }
}

impl Workload for Solo {
    fn pass(&mut self, tracer: &Tracer) -> Pass {
        let mut pass = Pass::default();
        let trace: PackedTrace = tracer.span("workloads.emit", || {
            let trace = self.kernel.packed_trace(&MemoryLayout::default());
            tracer.count("events", trace.len() as u64);
            trace
        });
        pass.counts.add("workloads.emit_events", trace.len() as u64);
        let keep_reference = self.reference.is_empty();
        for (placement, campaign) in &self.campaigns {
            let name = placement_name(*placement);
            let start = Instant::now();
            pass.attempted += 1;
            let result = tracer.span(&format!("sim.solo.{name}"), || {
                let result = campaign.run(&trace);
                tracer.count("runs", campaign.runs() as u64);
                tracer.count("events", (campaign.runs() * trace.len()) as u64);
                result
            });
            let result = match result {
                Ok(result) => result,
                Err(err) => {
                    pass.failures.push(format!("{name} campaign failed: {err}"));
                    continue;
                }
            };
            let sample = ExecutionSample::from_cycles_iter(result.cycles_iter());
            let pwcet = tracer.span(&format!("mbpta.analyze.{name}"), || {
                analyze(&sample).pwcet_at(CUTOFF_PROBABILITY)
            });
            let events = (result.len() * trace.len()) as u64;
            pass.unit(name, start.elapsed().as_secs_f64() * 1e3, true);
            pass.events += events;
            pass.check(result.len() == campaign.runs(), || {
                format!(
                    "{name}: {} runs, expected {}",
                    result.len(),
                    campaign.runs()
                )
            });
            pass.check(pwcet.is_finite() && pwcet >= sample.max() as f64, || {
                format!(
                    "{name}: pWCET {pwcet} below the observed maximum {}",
                    sample.max()
                )
            });
            for run in result.runs() {
                pass.digest.run(run.cycles, &run.stats);
                pass.counts.run(&run.stats);
            }
            pass.digest.word(pwcet.to_bits());
            if keep_reference {
                self.reference
                    .push(result.runs()[..THREAD_CHECK_RUNS.min(result.len())].to_vec());
                if *placement == PlacementKind::RandomModulo {
                    self.rm_prefix = result.cycles_iter().take(FIG1_RUNS).collect();
                }
            }
        }
        pass
    }

    fn verify(&mut self, _first: &Pass) -> Vec<String> {
        let mut failures = Vec::new();
        let trace = self.kernel.packed_trace(&MemoryLayout::default());
        // Figure 1 pin: the Random Modulo campaign's first 300 runs at the
        // default seed.  Other seeds run that prefix on the side.
        let prefix = if self.seed == DEFAULT_SEED && self.rm_prefix.len() == FIG1_RUNS {
            self.rm_prefix.clone()
        } else {
            match Campaign::new(platform_with_l1(PlacementKind::RandomModulo), FIG1_RUNS)
                .with_campaign_seed(DEFAULT_SEED)
                .with_threads(CHECK_THREADS)
                .run(&trace)
            {
                Ok(result) => result.cycles(),
                Err(err) => return vec![format!("fig1 pin campaign failed: {err}")],
            }
        };
        let pwcet = analyze(&ExecutionSample::from_cycles(&prefix)).pwcet_at(CUTOFF_PROBABILITY);
        if pwcet.round() as u64 != FIG1_PWCET {
            failures.push(format!("fig1 pin: pWCET {pwcet:.2}, expected {FIG1_PWCET}"));
        }
        // The same runs, counters included, at one campaign thread.
        for ((placement, campaign), reference) in self.campaigns.iter().zip(&self.reference) {
            let seeds: Vec<u64> = reference.iter().map(|r| r.seed).collect();
            match campaign
                .clone()
                .with_threads(CHECK_THREADS)
                .run_seeds(&trace, &seeds)
            {
                Ok(result) if result.runs() == reference.as_slice() => {}
                Ok(_) => failures.push(format!(
                    "{}: runs differ between {THREADS} and {CHECK_THREADS} campaign threads",
                    placement_name(*placement)
                )),
                Err(err) => failures.push(format!(
                    "{}: one-thread rerun failed: {err}",
                    placement_name(*placement)
                )),
            }
        }
        failures
    }
}
