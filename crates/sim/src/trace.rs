//! Memory-access traces.
//!
//! Workload generators emit the sequence of instruction fetches, loads,
//! stores and compute intervals a program performs.  The same trace is then
//! replayed once per run of the MBPTA campaign (the program and its inputs
//! do not change across runs; only the placement seed, and thus the cache
//! layout, does).
//!
//! Two abstractions decouple generation from replay:
//!
//! * [`EventSink`] — where a generator *writes* events, one at a time or
//!   as a strided run of one access kind ([`EventSink::emit_run`]).
//!   Implemented by the trace format, [`crate::packed::PackedTrace`]
//!   (8 bytes/event), by [`SinkFn`] (constant memory — count, summarise or
//!   filter without storing) and by a plain `Vec<MemEvent>`.
//! * [`EventSource`] — where a replay *reads* events.  A source hands out a
//!   fresh iterator per run, which is what lets one shared trace feed the
//!   parallel runs of a [`crate::run::Campaign`] without being cloned.

use randmod_core::{AccessKind, Address};
use std::fmt;

/// One event of a program trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemEvent {
    /// Fetch of the instruction at the given address (served by the IL1).
    InstrFetch(Address),
    /// Data load from the given address (served by the DL1).
    Load(Address),
    /// Data store to the given address (write-through DL1).
    Store(Address),
    /// `n` cycles of computation with no memory activity.
    Compute(u32),
}

impl MemEvent {
    /// The memory access of the given kind at `addr`.
    pub(crate) const fn access(kind: AccessKind, addr: Address) -> MemEvent {
        match kind {
            AccessKind::InstructionFetch => MemEvent::InstrFetch(addr),
            AccessKind::Load => MemEvent::Load(addr),
            AccessKind::Store => MemEvent::Store(addr),
        }
    }

    /// The address this event touches, if any.
    pub fn address(&self) -> Option<Address> {
        match self {
            MemEvent::InstrFetch(a) | MemEvent::Load(a) | MemEvent::Store(a) => Some(*a),
            MemEvent::Compute(_) => None,
        }
    }

    /// Whether this is a data access (load or store).
    pub const fn is_data(&self) -> bool {
        matches!(self, MemEvent::Load(_) | MemEvent::Store(_))
    }
}

/// A consumer of trace events: the write end of the streaming pipeline.
///
/// Workload generators emit into a sink instead of returning a
/// materialised `Vec`, so the same generator code can fill a
/// [`crate::packed::PackedTrace`] or a constant-memory [`SinkFn`].
///
/// Most of a program trace is strided runs — straight-line code, loop
/// bodies, array sweeps, stack spills — so besides the per-event
/// [`EventSink::emit`] a sink accepts a whole run of one access kind in
/// one call, [`EventSink::emit_run`].  Its provided implementation loops
/// over `emit`; [`crate::packed::PackedTrace`] overrides it with a tight
/// word-writing loop.  Either way the sink receives the same events:
///
/// ```
/// use randmod_core::{AccessKind, Address};
/// use randmod_sim::trace::{EventSink, MemEvent, SinkFn};
/// use randmod_sim::PackedTrace;
///
/// let start = Address::new(0x4000_0000);
/// let mut one_by_one = Vec::new();
/// SinkFn(|event: MemEvent| one_by_one.push(event)).emit_run(AccessKind::Load, start, 8, 32);
/// let mut packed = PackedTrace::new();
/// packed.emit_run(AccessKind::Load, start, 8, 32);
/// assert_eq!(packed.iter().collect::<Vec<_>>(), one_by_one);
/// assert_eq!(one_by_one[7], MemEvent::Load(Address::new(0x4000_0000 + 7 * 32)));
/// ```
pub trait EventSink {
    /// Receives one event.
    fn emit(&mut self, event: MemEvent);

    /// Emits `count` accesses of one `kind`, the `i`-th at
    /// `start + i * stride`, in order — the same events as `count` calls
    /// of [`EventSink::emit`].  A `count` of zero emits nothing; a `stride`
    /// of zero repeats `start`.
    ///
    /// # Panics
    ///
    /// Panics if an address of the run overflows `u64` (after emitting the
    /// events before it); sinks that bound their addresses, such as
    /// [`crate::packed::PackedTrace`], panic as their per-event path does.
    fn emit_run(&mut self, kind: AccessKind, start: Address, count: u64, stride: u64) {
        for event in run_events(kind, start, count, stride) {
            self.emit(event);
        }
    }

    /// Emits an instruction fetch.
    fn fetch(&mut self, addr: Address) {
        self.emit(MemEvent::InstrFetch(addr));
    }

    /// Emits a data load.
    fn load(&mut self, addr: Address) {
        self.emit(MemEvent::Load(addr));
    }

    /// Emits a data store.
    fn store(&mut self, addr: Address) {
        self.emit(MemEvent::Store(addr));
    }

    /// Emits `cycles` of computation; zero-cycle intervals are dropped.
    fn compute(&mut self, cycles: u32) {
        if cycles > 0 {
            self.emit(MemEvent::Compute(cycles));
        }
    }
}

/// The events of a strided run, in order: the specification
/// [`EventSink::emit_run`] implementations agree with.
///
/// # Panics
///
/// The iterator panics when it reaches an address that overflows `u64`,
/// rather than wrapping around the address space.
pub(crate) fn run_events(
    kind: AccessKind,
    start: Address,
    count: u64,
    stride: u64,
) -> impl Iterator<Item = MemEvent> {
    (0..count).map(move |i| {
        let addr = i
            .checked_mul(stride)
            .and_then(|delta| start.raw().checked_add(delta))
            .unwrap_or_else(|| {
                panic!("strided run address {start} + {i} x {stride:#x} overflows u64")
            });
        MemEvent::access(kind, Address::new(addr))
    })
}

impl EventSink for Vec<MemEvent> {
    fn emit(&mut self, event: MemEvent) {
        self.push(event);
    }
}

/// Adapts a closure into an [`EventSink`]: the constant-memory end of the
/// pipeline, for counting, summarising or filtering an emission without
/// storing it.
///
/// ```
/// use randmod_sim::trace::{EventSink, SinkFn};
/// use randmod_core::Address;
///
/// let mut loads = 0usize;
/// let mut sink = SinkFn(|event: randmod_sim::MemEvent| {
///     if event.is_data() {
///         loads += 1;
///     }
/// });
/// sink.load(Address::new(0x1000));
/// sink.fetch(Address::new(0x2000));
/// drop(sink);
/// assert_eq!(loads, 1);
/// ```
pub struct SinkFn<F: FnMut(MemEvent)>(pub F);

impl<F: FnMut(MemEvent)> EventSink for SinkFn<F> {
    fn emit(&mut self, event: MemEvent) {
        (self.0)(event);
    }
}

/// A replayable stream of trace events: the read end of the pipeline.
///
/// A source hands out a *fresh* iterator per call, so one shared trace can
/// feed every parallel run of a campaign without being cloned or
/// re-decoded into a `Vec`.
pub trait EventSource: Sync {
    /// Iterates one full replay of the trace.
    fn events(&self) -> impl Iterator<Item = MemEvent> + '_;
}

impl<S: EventSource + ?Sized> EventSource for &S {
    fn events(&self) -> impl Iterator<Item = MemEvent> + '_ {
        (**self).events()
    }
}

impl EventSource for [MemEvent] {
    fn events(&self) -> impl Iterator<Item = MemEvent> + '_ {
        self.iter().copied()
    }
}

impl EventSource for Vec<MemEvent> {
    fn events(&self) -> impl Iterator<Item = MemEvent> + '_ {
        self.iter().copied()
    }
}

/// Summary statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceStats {
    /// Number of instruction fetches.
    pub instr_fetches: u64,
    /// Number of loads.
    pub loads: u64,
    /// Number of stores.
    pub stores: u64,
    /// Total explicit compute cycles.
    pub compute_cycles: u64,
    /// Distinct instruction cache lines touched.
    pub unique_instr_lines: u64,
    /// Distinct data cache lines touched.
    pub unique_data_lines: u64,
    /// Line size the footprint was computed for.
    pub line_size: u32,
}

impl TraceStats {
    /// Computes the statistics of any event stream for a given cache-line
    /// size, in one streaming pass.
    pub fn from_events<I>(events: I, line_size: u32) -> TraceStats
    where
        I: IntoIterator<Item = MemEvent>,
    {
        // Footprints are *cardinalities*: collect the touched lines and
        // count distinct values by sorting.  A hash set would be faster
        // asymptotically but iterates in unspecified order (rule D2);
        // sorted counting keeps every intermediate deterministic and is
        // plenty for a pass that runs once per trace, not once per run.
        let shift = line_size.trailing_zeros();
        let mut instr_lines = Vec::new();
        let mut data_lines = Vec::new();
        let mut stats = TraceStats {
            line_size,
            ..TraceStats::default()
        };
        for event in events {
            match event {
                MemEvent::InstrFetch(a) => {
                    stats.instr_fetches += 1;
                    instr_lines.push(a.raw() >> shift);
                }
                MemEvent::Load(a) => {
                    stats.loads += 1;
                    data_lines.push(a.raw() >> shift);
                }
                MemEvent::Store(a) => {
                    stats.stores += 1;
                    data_lines.push(a.raw() >> shift);
                }
                MemEvent::Compute(c) => stats.compute_cycles += c as u64,
            }
        }
        stats.unique_instr_lines = count_distinct(&mut instr_lines);
        stats.unique_data_lines = count_distinct(&mut data_lines);
        stats
    }

    /// Total number of memory accesses.
    pub fn memory_accesses(&self) -> u64 {
        self.instr_fetches + self.loads + self.stores
    }

    /// Data footprint in bytes (unique data lines times line size).
    pub fn data_footprint_bytes(&self) -> u64 {
        self.unique_data_lines * self.line_size as u64
    }

    /// Code footprint in bytes (unique instruction lines times line size).
    pub fn code_footprint_bytes(&self) -> u64 {
        self.unique_instr_lines * self.line_size as u64
    }
}

/// Counts distinct values by sorting in place — the deterministic
/// replacement for hash-set cardinality (see rule D2 in DESIGN.md).
fn count_distinct(values: &mut Vec<u64>) -> u64 {
    values.sort_unstable();
    values.dedup();
    values.len() as u64
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fetches, {} loads, {} stores; code {} B, data {} B",
            self.instr_fetches,
            self.loads,
            self.stores,
            self.code_footprint_bytes(),
            self.data_footprint_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<MemEvent> {
        let mut events = Vec::new();
        events.fetch(Address::new(0x1000));
        events.fetch(Address::new(0x1004));
        events.load(Address::new(0x8000));
        events.store(Address::new(0x8020));
        events.compute(3);
        events
    }

    #[test]
    fn push_helpers_record_expected_events() {
        let events = sample_events();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0], MemEvent::InstrFetch(Address::new(0x1000)));
        assert_eq!(events[3], MemEvent::Store(Address::new(0x8020)));
        assert_eq!(events[4], MemEvent::Compute(3));
    }

    #[test]
    fn compute_zero_is_dropped() {
        let mut events = Vec::new();
        events.compute(0);
        assert!(events.is_empty());
    }

    #[test]
    fn stats_count_events_and_footprints() {
        let s = TraceStats::from_events(sample_events(), 32);
        assert_eq!(s.instr_fetches, 2);
        assert_eq!(s.loads, 1);
        assert_eq!(s.stores, 1);
        assert_eq!(s.compute_cycles, 3);
        // 0x1000 and 0x1004 share a line; 0x8000 and 0x8020 do not.
        assert_eq!(s.unique_instr_lines, 1);
        assert_eq!(s.unique_data_lines, 2);
        assert_eq!(s.memory_accesses(), 4);
        assert_eq!(s.data_footprint_bytes(), 64);
        assert_eq!(s.code_footprint_bytes(), 32);
        assert!(s.to_string().contains("2 fetches"));
    }

    #[test]
    fn event_address_and_is_data() {
        assert_eq!(
            MemEvent::Load(Address::new(4)).address(),
            Some(Address::new(4))
        );
        assert_eq!(MemEvent::Compute(2).address(), None);
        assert!(MemEvent::Store(Address::new(0)).is_data());
        assert!(!MemEvent::InstrFetch(Address::new(0)).is_data());
        assert!(!MemEvent::Compute(1).is_data());
    }

    #[test]
    fn default_run_emits_one_event_per_step() {
        let mut events = Vec::new();
        events.emit_run(AccessKind::InstructionFetch, Address::new(0x1000), 3, 4);
        events.emit_run(AccessKind::Store, Address::new(0x8000), 0, 4);
        events.emit_run(AccessKind::Load, Address::new(0x8000), 2, 0);
        let expected = [
            MemEvent::InstrFetch(Address::new(0x1000)),
            MemEvent::InstrFetch(Address::new(0x1004)),
            MemEvent::InstrFetch(Address::new(0x1008)),
            MemEvent::Load(Address::new(0x8000)),
            MemEvent::Load(Address::new(0x8000)),
        ];
        assert_eq!(events, expected);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn default_run_panics_instead_of_wrapping() {
        Vec::<MemEvent>::new().emit_run(AccessKind::Load, Address::new(8), 2, u64::MAX);
    }
}
