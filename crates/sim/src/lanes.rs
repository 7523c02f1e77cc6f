//! The lane-batched replay machinery of the solo engine.
//!
//! [`crate::batch::BatchCore`] replays one immutable program under many
//! placement seeds.  The machinery that makes that fast lives here:
//!
//! * **Same-line run collapsing** ([`replay_collapsed`]): runs of
//!   consecutive reads of one cache line — the dominant pattern of
//!   straight-line instruction fetch and sequential data traversal — are
//!   detected once at decode time.  The first access runs in full per
//!   lane; every repeat is then a guaranteed L1 hit in every lane (the
//!   first access left the line resident, and a repeat read hit mutates no
//!   cache state: `touch` of the just-touched way is idempotent for LRU
//!   and a no-op otherwise, and reads never dirty a line), so each lane
//!   just books `repeats` hits and cycles.
//! * **Lane fan-out through one interface** ([`LaneStepper`]): the decode
//!   loop emits each collapsed operation exactly once, and the engine
//!   implements the per-lane stepping (K hierarchies, K cycle counters,
//!   per-lane [`crate::hierarchy::RunCounters`]) behind the trait.  The
//!   line address of the fronting L1 is computed once per operation and
//!   shared across all lanes.
//! * **Decode once per worker** ([`collapse_solo`], [`replay_ops`]): a
//!   campaign records the collapsed operations of its trace once, as an
//!   [`Op`] schedule, and replays that schedule for every lane group
//!   instead of decoding the trace again.
//!
//! Contended campaigns do not use this module:
//! [`crate::contention::ContentionCore`] steps one placement seed per
//! event, with no collapsing.

use crate::trace::MemEvent;
use randmod_core::{Address, LineAddr};

/// The per-lane stepping interface of the collapsed replay drivers.
///
/// Implementations own the lanes (hierarchies, cycle counters, statistics
/// blocks) and fan each collapsed operation out across them; the drivers
/// guarantee each operation is emitted exactly once, in program order,
/// with the fronting L1's line address precomputed.  `repeats` counts the
/// *extra* same-line reads collapsed into the operation (0 for a lone
/// access); each one is a guaranteed L1 hit costing the L1-hit latency.
pub(crate) trait LaneStepper {
    /// One instruction fetch, plus `repeats` collapsed same-line repeat
    /// fetches.
    fn fetch(&mut self, addr: Address, line: LineAddr, repeats: u64);
    /// One data load, plus `repeats` collapsed same-line repeat loads.
    fn load(&mut self, addr: Address, line: LineAddr, repeats: u64);
    /// One data store (stores never collapse).
    fn store(&mut self, addr: Address, line: LineAddr);
    /// A computation interval.
    fn compute(&mut self, cycles: u64);
}

/// Streams `events` through `stepper`, collapsing same-line read runs at
/// decode time — the solo replay loop.  The trace is decoded exactly
/// once however many lanes the stepper fans out to.
pub(crate) fn replay_collapsed<I>(
    events: I,
    il1_shift: u32,
    dl1_shift: u32,
    stepper: &mut impl LaneStepper,
) where
    I: IntoIterator<Item = MemEvent>,
{
    let mut iter = events.into_iter();
    let mut pending = iter.next();
    while let Some(event) = pending {
        pending = iter.next();
        match event {
            MemEvent::InstrFetch(addr) => {
                let line = addr.raw() >> il1_shift;
                let mut repeats = 0u64;
                while let Some(MemEvent::InstrFetch(next)) = pending {
                    if next.raw() >> il1_shift != line {
                        break;
                    }
                    repeats += 1;
                    pending = iter.next();
                }
                stepper.fetch(addr, LineAddr::new(line), repeats);
            }
            MemEvent::Load(addr) => {
                let line = addr.raw() >> dl1_shift;
                let mut repeats = 0u64;
                while let Some(MemEvent::Load(next)) = pending {
                    if next.raw() >> dl1_shift != line {
                        break;
                    }
                    repeats += 1;
                    pending = iter.next();
                }
                stepper.load(addr, LineAddr::new(line), repeats);
            }
            MemEvent::Store(addr) => {
                stepper.store(addr, LineAddr::new(addr.raw() >> dl1_shift));
            }
            MemEvent::Compute(cycles) => stepper.compute(cycles as u64),
        }
    }
}

/// One collapsed operation of a recorded schedule: the address, the
/// fronting L1's line address, and how many same-line repeat reads were
/// collapsed into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// An instruction fetch plus `repeats` collapsed repeat fetches.
    Fetch {
        /// Accessed address.
        addr: Address,
        /// The IL1 line of `addr`.
        line: LineAddr,
        /// Collapsed same-line repeat fetches.
        repeats: u64,
    },
    /// A data load plus `repeats` collapsed repeat loads.
    Load {
        /// Accessed address.
        addr: Address,
        /// The DL1 line of `addr`.
        line: LineAddr,
        /// Collapsed same-line repeat loads.
        repeats: u64,
    },
    /// A data store (never collapsed).
    Store {
        /// Accessed address.
        addr: Address,
        /// The DL1 line of `addr`.
        line: LineAddr,
    },
    /// A computation interval.
    Compute {
        /// Cycle cost.
        cycles: u64,
    },
}

/// The stepper behind [`collapse_solo`]: records every collapsed
/// operation [`replay_collapsed`] drives, in order.
struct OpRecorder(Vec<Op>);

impl LaneStepper for OpRecorder {
    fn fetch(&mut self, addr: Address, line: LineAddr, repeats: u64) {
        self.0.push(Op::Fetch {
            addr,
            line,
            repeats,
        });
    }

    fn load(&mut self, addr: Address, line: LineAddr, repeats: u64) {
        self.0.push(Op::Load {
            addr,
            line,
            repeats,
        });
    }

    fn store(&mut self, addr: Address, line: LineAddr) {
        self.0.push(Op::Store { addr, line });
    }

    fn compute(&mut self, cycles: u64) {
        self.0.push(Op::Compute { cycles });
    }
}

/// Collapses one event stream into the [`Op`] schedule that
/// [`replay_collapsed`] would drive, so a campaign can decode the trace
/// once per worker and replay the schedule across every lane group.
pub(crate) fn collapse_solo<I>(events: I, il1_shift: u32, dl1_shift: u32) -> Vec<Op>
where
    I: IntoIterator<Item = MemEvent>,
{
    let mut recorder = OpRecorder(Vec::new());
    replay_collapsed(events, il1_shift, dl1_shift, &mut recorder);
    recorder.0
}

/// Replays a schedule recorded by [`collapse_solo`] through `stepper`:
/// the same operations [`replay_collapsed`] steps, with no decode.
pub(crate) fn replay_ops(ops: &[Op], stepper: &mut impl LaneStepper) {
    for &op in ops {
        match op {
            Op::Fetch {
                addr,
                line,
                repeats,
            } => stepper.fetch(addr, line, repeats),
            Op::Load {
                addr,
                line,
                repeats,
            } => stepper.load(addr, line, repeats),
            Op::Store { addr, line } => stepper.store(addr, line),
            Op::Compute { cycles } => stepper.compute(cycles),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packed::PackedTrace;
    use crate::trace::EventSink;

    /// Records every stepped operation, for asserting driver semantics.
    #[derive(Default)]
    struct Recorder {
        steps: Vec<(char, u64, u64)>,
    }

    impl LaneStepper for Recorder {
        fn fetch(&mut self, addr: Address, _line: LineAddr, repeats: u64) {
            self.steps.push(('F', addr.raw(), repeats));
        }
        fn load(&mut self, addr: Address, _line: LineAddr, repeats: u64) {
            self.steps.push(('L', addr.raw(), repeats));
        }
        fn store(&mut self, addr: Address, _line: LineAddr) {
            self.steps.push(('S', addr.raw(), 0));
        }
        fn compute(&mut self, cycles: u64) {
            self.steps.push(('C', cycles, 0));
        }
    }

    #[test]
    fn solo_driver_collapses_same_line_read_runs() {
        let mut trace = PackedTrace::new();
        // Three fetches of one 32-byte line, a load run crossing a line
        // boundary, a store, a compute.
        trace.fetch(Address::new(0x1000));
        trace.fetch(Address::new(0x1004));
        trace.fetch(Address::new(0x1008));
        trace.load(Address::new(0x2000));
        trace.load(Address::new(0x2010));
        trace.load(Address::new(0x2020));
        trace.store(Address::new(0x3000));
        trace.compute(7);
        let mut recorder = Recorder::default();
        replay_collapsed(&trace, 5, 5, &mut recorder);
        assert_eq!(
            recorder.steps,
            vec![
                ('F', 0x1000, 2),
                ('L', 0x2000, 1),
                ('L', 0x2020, 0),
                ('S', 0x3000, 0),
                ('C', 7, 0),
            ]
        );
    }

    #[test]
    fn collapsed_schedule_replays_exactly_what_the_streaming_replay_steps() {
        let mut trace = PackedTrace::new();
        for i in 0..40u64 {
            // A four-fetch run that crosses into the next line every
            // other iteration.
            for k in 0..4u64 {
                trace.fetch(Address::new(0x1000 + i * 16 + k * 4));
            }
            // A load run crossing a line, then a store and a repeat load
            // of the same line (the store closes the run).
            trace.load(Address::new(0x2000 + i * 16));
            trace.load(Address::new(0x2000 + i * 16 + 8));
            trace.load(Address::new(0x2000 + i * 16 + 24));
            if i % 3 == 0 {
                trace.store(Address::new(0x2000 + i * 16));
                trace.load(Address::new(0x2000 + i * 16 + 4));
            }
            if i % 5 == 0 {
                trace.compute(i as u32 + 1);
            }
        }
        let mut streamed = Recorder::default();
        replay_collapsed(&trace, 5, 5, &mut streamed);
        let mut replayed = Recorder::default();
        replay_ops(&collapse_solo(&trace, 5, 5), &mut replayed);
        assert_eq!(replayed.steps, streamed.steps);
        // The trace really exercises collapsing, stores and computes.
        assert!(streamed
            .steps
            .iter()
            .any(|&(kind, _, repeats)| kind == 'F' && repeats > 0));
        assert!(streamed
            .steps
            .iter()
            .any(|&(kind, _, repeats)| kind == 'L' && repeats > 0));
        assert!(streamed.steps.iter().any(|&(kind, _, _)| kind == 'S'));
        assert!(streamed.steps.iter().any(|&(kind, _, _)| kind == 'C'));
    }

    #[test]
    fn replay_ops_steps_every_op_in_schedule_order() {
        let ops = vec![
            Op::Fetch {
                addr: Address::new(0x40),
                line: LineAddr::new(2),
                repeats: 3,
            },
            Op::Compute { cycles: 9 },
        ];
        let mut recorder = Recorder::default();
        replay_ops(&ops, &mut recorder);
        assert_eq!(recorder.steps, vec![('F', 0x40, 3), ('C', 9, 0)]);
    }
}
