//! `layout_sweep`: the Figure 4(b) high-water-mark protocol.  Every EEMBC
//! kernel is replayed under 128 memory layouts on the deterministic
//! platform (modulo placement, LRU), each layout's trace emitted inside
//! the sweep's generator closure, and the sample reduced to its
//! high-water mark.  It is the only user of the scalar solo engine, and
//! trace emission carries a real share of its time.

use randmod_mbpta::{ExecutionSample, HighWaterMark};
use randmod_sim::{Campaign, PlatformConfig, RunResult};
use randmod_workloads::{EembcBenchmark, LayoutSweep, MemoryLayout, Workload as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::common::{mix, Pass, Workload, CHECK_THREADS, THREADS};
use crate::spans::Tracer;

const THREAD_CHECK_LAYOUTS: usize = 16;

pub struct Layout {
    layouts: usize,
    /// Line-aligned shift of every layout, derived from the seed.
    shift: u64,
    campaign: Campaign,
    /// The first pass's leading runs of the first kernel.
    reference: Vec<RunResult>,
}

impl Layout {
    pub fn setup(seed: u64, layouts: usize) -> Result<Self, String> {
        let shift = (mix(seed, 0x1A7) % 64) * 32;
        let campaign =
            Campaign::new(PlatformConfig::leon3_deterministic(), 0).with_threads(THREADS);
        let layout = Layout {
            layouts,
            shift,
            campaign,
            reference: Vec::new(),
        };
        // Warm-up: a few layouts of every kernel.
        for &kernel in &EembcBenchmark::ALL {
            layout.sweep(kernel, 4, &AtomicU64::new(0), &AtomicU64::new(0))?;
        }
        Ok(layout)
    }

    fn layout(&self, sweep: &LayoutSweep, index: usize) -> MemoryLayout {
        sweep.layout(index).with_offsets(self.shift, self.shift)
    }

    /// One kernel's sweep over `count` layouts; the generator closure
    /// adds its own emit time and event count to the two accumulators.
    fn sweep(
        &self,
        kernel: EembcBenchmark,
        count: usize,
        emit_ns: &AtomicU64,
        events: &AtomicU64,
    ) -> Result<Vec<RunResult>, String> {
        let sweep = LayoutSweep::new(self.layouts.max(count));
        self.campaign
            .run_layout_sweep_with(count, |i| {
                let start = Instant::now();
                let trace = kernel.packed_trace(&self.layout(&sweep, i));
                emit_ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                events.fetch_add(trace.len() as u64, Ordering::Relaxed);
                trace
            })
            .map(|result| result.into_runs())
            .map_err(|err| format!("{}: {err}", kernel.label()))
    }
}

impl Workload for Layout {
    fn pass(&mut self, tracer: &Tracer) -> Pass {
        let mut pass = Pass::default();
        let keep_reference = self.reference.is_empty();
        for &kernel in &EembcBenchmark::ALL {
            let emit_ns = AtomicU64::new(0);
            let events = AtomicU64::new(0);
            let start = Instant::now();
            pass.attempted += 1;
            let runs = tracer.span(&format!("sim.layout.{}", kernel.label()), || {
                let runs = self.sweep(kernel, self.layouts, &emit_ns, &events);
                let emitted = events.load(Ordering::Relaxed);
                tracer.count("layouts", self.layouts as u64);
                tracer.count("events", emitted);
                // Emit ran on the sweep's worker threads; its wall-clock
                // share is the summed closure time over the thread count.
                let emit = Duration::from_nanos(emit_ns.load(Ordering::Relaxed) / THREADS as u64);
                tracer.aggregate("workloads.emit", emit, vec![("events", emitted)]);
                runs
            });
            let runs = match runs {
                Ok(runs) => runs,
                Err(err) => {
                    pass.failures.push(format!("layout sweep failed: {err}"));
                    continue;
                }
            };
            let hwm = tracer.span("mbpta.hwm", || {
                HighWaterMark::from_sample(&ExecutionSample::from_cycles_iter(
                    runs.iter().map(|r| r.cycles),
                ))
            });
            let emitted = events.load(Ordering::Relaxed);
            pass.unit(kernel.label(), start.elapsed().as_secs_f64() * 1e3, true);
            pass.events += emitted;
            pass.counts.add("workloads.emit_events", emitted);
            pass.check(runs.len() == self.layouts, || {
                format!(
                    "{}: {} layouts, expected {}",
                    kernel.label(),
                    runs.len(),
                    self.layouts
                )
            });
            let max = runs.iter().map(|r| r.cycles).max().unwrap_or(0);
            pass.check(hwm.value() == max && max > 0, || {
                format!(
                    "{}: high-water mark {} is not the sweep maximum {max}",
                    kernel.label(),
                    hwm.value()
                )
            });
            for (i, run) in runs.iter().enumerate() {
                pass.check(run.seed == i as u64, || {
                    format!(
                        "{}: run {i} carries layout index {}",
                        kernel.label(),
                        run.seed
                    )
                });
                pass.digest.run(run.cycles, &run.stats);
                pass.counts.run(&run.stats);
            }
            if keep_reference && self.reference.is_empty() {
                self.reference = runs[..THREAD_CHECK_LAYOUTS.min(runs.len())].to_vec();
            }
        }
        pass
    }

    fn verify(&mut self, _first: &Pass) -> Vec<String> {
        let kernel = EembcBenchmark::ALL[0];
        let one_thread = Layout {
            layouts: self.layouts,
            shift: self.shift,
            campaign: self.campaign.clone().with_threads(CHECK_THREADS),
            reference: Vec::new(),
        };
        match one_thread.sweep(
            kernel,
            self.reference.len(),
            &AtomicU64::new(0),
            &AtomicU64::new(0),
        ) {
            Ok(runs) if runs == self.reference => Vec::new(),
            Ok(_) => vec![format!(
                "{}: sweep differs between {THREADS} and {CHECK_THREADS} threads",
                kernel.label()
            )],
            Err(err) => vec![format!("one-thread sweep failed: {err}")],
        }
    }
}
