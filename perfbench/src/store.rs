//! `store_roundtrip`: an in-process campaign server (one worker, one
//! campaign thread) on a fresh on-disk result store, driven by one
//! closed-loop client over one connection.  Each pass submits 16 distinct
//! cold 40-run specs of the Figure 1 trace, then re-submits them 2,000
//! times warm, and ends with one 16-shard checkpointed campaign that is
//! written and then resumed.  Codec, store and I/O dominate; writes (cold
//! saves, checkpoint) sit beside reads (warm hits, resume).

use randmod_core::PlacementKind;
use randmod_mbpta::ExecutionSample;
use randmod_server::body::decode_spec;
use randmod_server::{
    encode_spec, start, CampaignSpec, Client, ResultStore, ServerConfig, ServerHandle, SpecMode,
};
use randmod_sim::checkpoint::{CheckpointError, CheckpointStore};
use randmod_sim::{decode_solo_runs, Campaign, FileCheckpointStore, PackedTrace, RunResult};
use randmod_workloads::{MemoryLayout, SyntheticKernel, Workload as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use randmod_experiments::runner::{analyze, platform_with_l1};

use crate::common::{mix, Pass, Workload, CHECK_THREADS, CUTOFF_PROBABILITY, THREADS};
use crate::spans::Tracer;

pub const SHARDS: usize = 16;

/// Workload size: cold specs and warm re-submissions per pass, runs per
/// cold spec, and runs of the checkpointed campaign.
#[derive(Debug, Clone, Copy)]
pub struct StoreSize {
    pub cold: usize,
    pub warm: usize,
    pub spec_runs: usize,
    pub checkpoint_runs: usize,
}

/// Time and traffic of the server's result-store calls, booked from the
/// server's own threads.
#[derive(Debug, Default)]
struct IoCounters {
    load_ns: AtomicU64,
    loads: AtomicU64,
    save_ns: AtomicU64,
    saves: AtomicU64,
    bytes_saved: AtomicU64,
}

impl IoCounters {
    fn snapshot(&self) -> [u64; 5] {
        [
            &self.load_ns,
            &self.loads,
            &self.save_ns,
            &self.saves,
            &self.bytes_saved,
        ]
        .map(|a| a.load(Ordering::Relaxed))
    }
}

/// A result-store entry that times its file I/O.
struct TimedEntry {
    inner: FileCheckpointStore,
    io: Arc<IoCounters>,
}

impl CheckpointStore for TimedEntry {
    fn load(&mut self) -> Result<Option<Vec<u8>>, CheckpointError> {
        let start = Instant::now();
        let loaded = self.inner.load();
        self.io
            .load_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.io.loads.fetch_add(1, Ordering::Relaxed);
        loaded
    }

    fn save(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let start = Instant::now();
        let saved = self.inner.save(bytes);
        self.io
            .save_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.io.saves.fetch_add(1, Ordering::Relaxed);
        self.io
            .bytes_saved
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        saved
    }

    fn location(&self) -> String {
        self.inner.location()
    }
}

/// The campaign checkpoint, wrapped so each save and load is a span.
struct TracedCheckpoint<'a> {
    inner: &'a mut FileCheckpointStore,
    tracer: &'a Tracer,
    saves: u64,
    loads: u64,
    bytes_written: u64,
}

impl CheckpointStore for TracedCheckpoint<'_> {
    fn load(&mut self) -> Result<Option<Vec<u8>>, CheckpointError> {
        self.loads += 1;
        self.tracer
            .span("sim.checkpoint.load", || self.inner.load())
    }

    fn save(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        self.saves += 1;
        self.bytes_written += bytes.len() as u64;
        self.tracer.span("sim.checkpoint.save", || {
            self.tracer.count("bytes", bytes.len() as u64);
            self.inner.save(bytes)
        })
    }

    fn location(&self) -> String {
        self.inner.location()
    }
}

pub struct Store {
    size: StoreSize,
    dir: PathBuf,
    results: PathBuf,
    server: Option<ServerHandle>,
    client: Option<Client>,
    io: Arc<IoCounters>,
    seed: u64,
    checkpoint: FileCheckpointStore,
    campaign: Campaign,
    /// The first pass's decoded cold results and the checkpointed
    /// campaign's leading runs, for `verify`.
    reference: Vec<(Vec<u64>, Vec<RunResult>)>,
    checkpoint_reference: Vec<RunResult>,
}

/// The fixed seed schedule of the `index`-th cold spec.
fn spec_seeds(seed: u64, index: usize, runs: usize) -> Vec<u64> {
    (0..runs as u64)
        .map(|r| mix(seed, ((index as u64) << 32) | r))
        .collect()
}

/// A Figure 1 (Random Modulo) campaign spec over `seeds`.
fn spec(trace: &PackedTrace, seed: u64, seeds: Vec<u64>) -> CampaignSpec {
    CampaignSpec {
        config: platform_with_l1(PlacementKind::RandomModulo),
        campaign_seed: seed,
        mode: SpecMode::Fixed(seeds),
        trace: trace.clone(),
    }
}

fn fig1_trace() -> PackedTrace {
    SyntheticKernel::fits_l2().packed_trace(&MemoryLayout::default())
}

impl Store {
    pub fn setup(
        seed: u64,
        size: StoreSize,
        out_dir: &std::path::Path,
        instance: usize,
    ) -> Result<Self, String> {
        let dir = out_dir.join(format!("store-{}-{instance}", std::process::id()));
        let results = dir.join("results");
        std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
        let io = Arc::new(IoCounters::default());
        let entries = {
            let (results, io) = (results.clone(), Arc::clone(&io));
            move |key: u64| -> Box<dyn CheckpointStore + Send> {
                Box::new(TimedEntry {
                    inner: FileCheckpointStore::new(results.join(format!("res_{key:016x}.ckpt"))),
                    io: Arc::clone(&io),
                })
            }
        };
        let store = ResultStore::with_entries(results.display().to_string(), entries);
        let config = ServerConfig {
            workers: 1,
            campaign_threads: Some(1),
            ..ServerConfig::default()
        };
        let server = start(config, store).map_err(|e| format!("server start: {e}"))?;
        let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        let campaign = Campaign::new(
            platform_with_l1(PlacementKind::RandomModulo),
            size.checkpoint_runs,
        )
        .with_campaign_seed(seed)
        .with_threads(THREADS);
        // Warm-up: health check, one cold and a few warm submissions of a
        // spec no pass uses.
        let health = client
            .get("/healthz")
            .map_err(|e| format!("healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!("healthz answered {}", health.status));
        }
        let body = encode_spec(&spec(
            &fig1_trace(),
            seed,
            spec_seeds(seed, 0xFFFF, size.spec_runs),
        ));
        for _ in 0..8 {
            let response = client
                .post("/campaign", &body)
                .map_err(|e| format!("warm-up: {e}"))?;
            if response.status != 200 {
                return Err(format!("warm-up submission answered {}", response.status));
            }
        }
        let checkpoint = FileCheckpointStore::new(dir.join("campaign.ckpt"));
        Ok(Store {
            size,
            dir,
            results,
            server: Some(server),
            client: Some(client),
            io,
            seed,
            checkpoint,
            campaign,
            reference: Vec::new(),
            checkpoint_reference: Vec::new(),
        })
    }

    fn submit(&mut self, body: &[u8], want: &str, pass: &mut Pass) -> Option<Vec<u8>> {
        pass.attempted += 1;
        pass.counts.add("server.requests", 1);
        pass.counts.add("server.request_bytes", body.len() as u64);
        let Some(client) = self.client.as_mut() else {
            pass.failures.push("no client connection".to_string());
            return None;
        };
        match client.post("/campaign", body) {
            Ok(response) => {
                pass.counts
                    .add("server.response_bytes", response.body.len() as u64);
                let cache = response.header("X-Randmod-Cache").unwrap_or("").to_string();
                pass.counts.add(
                    if cache == "hit" {
                        "server.cache_hits"
                    } else {
                        "server.cache_misses"
                    },
                    1,
                );
                if response.status != 200 || cache != want {
                    pass.failures.push(format!(
                        "submission answered {} with cache {cache:?}, expected 200 and {want}",
                        response.status
                    ));
                    return None;
                }
                Some(response.body)
            }
            Err(err) => {
                pass.failures.push(format!("submission failed: {err}"));
                None
            }
        }
    }
}

impl Workload for Store {
    fn prepare(&mut self) -> Result<(), String> {
        // Every pass starts from an empty result store and no checkpoint,
        // so every pass does the same work.
        let entries = std::fs::read_dir(&self.results)
            .map_err(|e| format!("{}: {e}", self.results.display()))?;
        for entry in entries.flatten() {
            std::fs::remove_file(entry.path())
                .map_err(|e| format!("{}: {e}", entry.path().display()))?;
        }
        self.checkpoint.clear().map_err(|e| e.to_string())
    }

    fn pass(&mut self, tracer: &Tracer) -> Pass {
        let mut pass = Pass::default();
        let size = self.size;
        let trace = tracer.span("workloads.emit", || {
            let trace = fig1_trace();
            tracer.count("events", trace.len() as u64);
            trace
        });
        pass.counts.add("workloads.emit_events", trace.len() as u64);
        let schedules: Vec<Vec<u64>> = (0..size.cold)
            .map(|j| spec_seeds(self.seed, j, size.spec_runs))
            .collect();
        let bodies: Vec<Vec<u8>> = schedules
            .iter()
            .map(|seeds| {
                let spec = spec(&trace, self.seed, seeds.clone());
                tracer.span("server.body.encode_spec", || encode_spec(&spec))
            })
            .collect();
        if tracer.enabled() {
            // The server decodes every body; time the same call here.
            for body in &bodies {
                tracer.span("server.body.decode_spec", || decode_spec(body).is_ok());
            }
        }
        let keep_reference = self.reference.is_empty();
        let mut payloads = Vec::with_capacity(size.cold);
        for (seeds, body) in schedules.into_iter().zip(&bodies) {
            let before = self.io.snapshot();
            let start = Instant::now();
            let payload = tracer.span("server.cold", || {
                let payload = self.submit(body, "miss", &mut pass);
                let after = self.io.snapshot();
                tracer.aggregate(
                    "server.store.load",
                    Duration::from_nanos(after[0] - before[0]),
                    vec![("loads", after[1] - before[1])],
                );
                tracer.aggregate(
                    "server.store.save",
                    Duration::from_nanos(after[2] - before[2]),
                    vec![
                        ("saves", after[3] - before[3]),
                        ("bytes", after[4] - before[4]),
                    ],
                );
                payload
            });
            pass.unit("cold", start.elapsed().as_secs_f64() * 1e3, false);
            let runs = payload.as_deref().and_then(|payload| {
                tracer.span("server.body.decode_runs", || {
                    decode_solo_runs(payload, &seeds)
                })
            });
            pass.check(runs.is_some(), || {
                "cold submission returned no decodable payload".to_string()
            });
            if let Some(runs) = runs {
                pass.events += (runs.len() * trace.len()) as u64;
                for run in &runs {
                    pass.digest.run(run.cycles, &run.stats);
                    pass.counts.run(&run.stats);
                }
                if keep_reference {
                    self.reference.push((seeds, runs));
                }
            }
            payloads.push(payload.unwrap_or_default());
        }
        for i in 0..size.warm {
            let j = i % size.cold;
            let before = self.io.snapshot();
            let start = Instant::now();
            let payload = tracer.span("server.warm", || {
                let payload = self.submit(&bodies[j], "hit", &mut pass);
                let after = self.io.snapshot();
                tracer.aggregate(
                    "server.store.load",
                    Duration::from_nanos(after[0] - before[0]),
                    vec![("loads", after[1] - before[1])],
                );
                payload
            });
            pass.unit("warm", start.elapsed().as_secs_f64() * 1e3, true);
            if let Some(payload) = payload {
                pass.check(payload == payloads[j], || {
                    format!("warm payload {j} differs from its cold payload")
                });
            }
        }
        let start = Instant::now();
        let mut store = TracedCheckpoint {
            inner: &mut self.checkpoint,
            tracer,
            saves: 0,
            loads: 0,
            bytes_written: 0,
        };
        let written = tracer.span("sim.checkpoint.write", || {
            tracer.count("events", (self.campaign.runs() * trace.len()) as u64);
            self.campaign
                .run_sharded_checkpointed(&trace, SHARDS, &mut store)
        });
        let resumed = tracer.span("sim.checkpoint.resume", || {
            self.campaign
                .run_sharded_checkpointed(&trace, SHARDS, &mut store)
        });
        let checkpoint_ms = start.elapsed().as_secs_f64() * 1e3;
        pass.counts.add("sim.checkpoint.saves", store.saves);
        pass.counts.add("sim.checkpoint.loads", store.loads);
        pass.counts
            .add("sim.checkpoint.bytes_written", store.bytes_written);
        pass.attempted += 2;
        match (written, resumed) {
            (Ok(written), Ok(resumed)) => {
                pass.check(
                    written.executed == SHARDS
                        && resumed.resumed == SHARDS
                        && resumed.executed == 0,
                    || {
                        format!(
                            "checkpoint: wrote {} shards, resumed {} and re-ran {}",
                            written.executed, resumed.resumed, resumed.executed
                        )
                    },
                );
                pass.check(written.result == resumed.result, || {
                    "resumed campaign differs from the written one".to_string()
                });
                let result = written.result;
                let events = (result.len() * trace.len()) as u64;
                pass.unit("checkpoint", checkpoint_ms, false);
                pass.events += events;
                let sample = ExecutionSample::from_cycles_iter(result.cycles_iter());
                let pwcet = tracer.span("mbpta.analyze.checkpointed", || {
                    analyze(&sample).pwcet_at(CUTOFF_PROBABILITY)
                });
                pass.check(pwcet.is_finite() && pwcet >= sample.max() as f64, || {
                    format!("checkpointed pWCET {pwcet} below the observed maximum")
                });
                for run in result.runs() {
                    pass.digest.run(run.cycles, &run.stats);
                    pass.counts.run(&run.stats);
                }
                pass.digest.word(pwcet.to_bits());
                if keep_reference {
                    self.checkpoint_reference = result.runs()[..64.min(result.len())].to_vec();
                }
            }
            (Err(err), _) | (_, Err(err)) => pass
                .failures
                .push(format!("checkpointed campaign failed: {err}")),
        }
        pass
    }

    fn verify(&mut self, _first: &Pass) -> Vec<String> {
        let mut failures = Vec::new();
        // Server payloads equal a local run of the same spec (at
        // `THREADS` campaign threads, against the server's one).
        let trace = fig1_trace();
        for (i, (seeds, runs)) in self.reference.iter().enumerate() {
            let local = Campaign::new(platform_with_l1(PlacementKind::RandomModulo), seeds.len())
                .with_campaign_seed(self.seed)
                .with_threads(THREADS)
                .run_seeds(&trace, seeds);
            match local {
                Ok(local) if local.runs() == runs.as_slice() => {}
                Ok(_) => failures.push(format!(
                    "cold spec {i}: server payload differs from a local run"
                )),
                Err(err) => failures.push(format!("cold spec {i}: local run failed: {err}")),
            }
        }
        let seeds: Vec<u64> = self.checkpoint_reference.iter().map(|r| r.seed).collect();
        match self
            .campaign
            .clone()
            .with_threads(CHECK_THREADS)
            .run_seeds(&trace, &seeds)
        {
            Ok(local) if local.runs() == self.checkpoint_reference.as_slice() => {}
            Ok(_) => {
                failures.push("checkpointed campaign differs from a one-thread run".to_string())
            }
            Err(err) => failures.push(format!("one-thread rerun failed: {err}")),
        }
        failures
    }

    fn teardown(&mut self) {
        // Close the keep-alive connection first: shutdown joins every
        // connection thread.
        self.client = None;
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
