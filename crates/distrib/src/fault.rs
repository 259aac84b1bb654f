//! Failure injection: [`FaultPlan`] schedules and the worker-side switches.
//!
//! A fault plan is a *deterministic schedule* of failures, addressed by
//! worker index and (for process-local faults) by **incarnation** — the
//! number of times that worker slot has been (re)spawned, starting at 0.
//! Addressing by incarnation lets a test kill the same worker repeatedly
//! (`(w, 0)`, `(w, 1)`, …) or only once, and guarantees the schedule plays
//! out identically on every run: there is no randomness at injection time,
//! only in the generators that *produce* plans for the property tests.
//!
//! Process-local faults (kill, stall, drop-ack) are armed by the supervisor
//! when it spawns the worker, via `--fault` command-line arguments that the
//! `privacy-shardd` binary parses into [`WorkerFaults`]. The
//! corrupt-checkpoint fault is applied by the supervisor itself, flipping a
//! byte of the freshly written checkpoint file — simulating torn storage
//! that the next restart must detect and fall back from.

use std::fmt;

/// One injected failure in a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// Kill the process (exit code [`INJECTED_FAULT`](crate::exit::INJECTED_FAULT))
    /// immediately after ingesting its `events`-th event (1-based, counted
    /// over the incarnation's lifetime), mid-batch and without acking.
    KillAfterEvents {
        /// Worker slot the fault targets.
        worker: usize,
        /// Incarnation of that slot the fault arms in (0 = first spawn).
        incarnation: u32,
        /// Event count after which the process exits.
        events: u64,
    },
    /// Sleep `millis` before sending the first ack after the `events`-th
    /// event has been ingested — a slow consumer. With a stall longer than
    /// the supervisor's ack timeout this triggers kill-and-restart.
    StallBeforeAck {
        /// Worker slot the fault targets.
        worker: usize,
        /// Incarnation of that slot the fault arms in.
        incarnation: u32,
        /// Event count after which the stall fires (once).
        events: u64,
        /// Stall duration in milliseconds.
        millis: u64,
    },
    /// Process the `ordinal`-th ingest of the incarnation (1-based) fully
    /// but never ack it — a lost acknowledgement. The supervisor's ack
    /// timeout fires and the worker is killed and restarted; replay must
    /// deduplicate the re-acked batches.
    DropAck {
        /// Worker slot the fault targets.
        worker: usize,
        /// Incarnation of that slot the fault arms in.
        incarnation: u32,
        /// 1-based ingest ordinal whose ack is swallowed.
        ordinal: u64,
    },
    /// Sleep `millis` after ingesting *every* event — a legitimately slow
    /// evaluator, not a hang. Unlike [`Fault::StallBeforeAck`] the delay
    /// scales with batch size, which is exactly what the supervisor's
    /// per-event ack-timeout grace must absorb without restarting.
    SleepPerEvent {
        /// Worker slot the fault targets.
        worker: usize,
        /// Incarnation of that slot the fault arms in.
        incarnation: u32,
        /// Sleep per ingested event, in milliseconds.
        millis: u64,
    },
    /// Flip one byte of worker `worker`'s checkpoint file immediately after
    /// its `ordinal`-th successful checkpoint (1-based, counted across
    /// incarnations), which the supervisor takes synchronously so the file
    /// is still that checkpoint's generation. The next restart must detect
    /// the corruption via the frame checksum and fall back to the `.prev`
    /// generation.
    CorruptCheckpoint {
        /// Worker slot whose checkpoint file is corrupted.
        worker: usize,
        /// 1-based checkpoint ordinal after which the byte flip happens.
        ordinal: u64,
    },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::KillAfterEvents { worker, incarnation, events } => {
                write!(f, "kill worker {worker}.{incarnation} after {events} events")
            }
            Fault::StallBeforeAck { worker, incarnation, events, millis } => {
                write!(f, "stall worker {worker}.{incarnation} {millis}ms after {events} events")
            }
            Fault::DropAck { worker, incarnation, ordinal } => {
                write!(f, "drop ack {ordinal} of worker {worker}.{incarnation}")
            }
            Fault::SleepPerEvent { worker, incarnation, millis } => {
                write!(f, "slow worker {worker}.{incarnation}: {millis}ms per event")
            }
            Fault::CorruptCheckpoint { worker, ordinal } => {
                write!(f, "corrupt checkpoint {ordinal} of worker {worker}")
            }
        }
    }
}

/// A deterministic schedule of injected failures for one supervised run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan: no failures are injected.
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a plan from an explicit fault list.
    #[must_use]
    pub fn new(faults: Vec<Fault>) -> Self {
        Self { faults }
    }

    /// Adds a [`Fault::KillAfterEvents`] to the plan.
    #[must_use]
    pub fn kill_after(mut self, worker: usize, incarnation: u32, events: u64) -> Self {
        self.faults.push(Fault::KillAfterEvents { worker, incarnation, events });
        self
    }

    /// Adds a [`Fault::StallBeforeAck`] to the plan.
    #[must_use]
    pub fn stall(mut self, worker: usize, incarnation: u32, events: u64, millis: u64) -> Self {
        self.faults.push(Fault::StallBeforeAck { worker, incarnation, events, millis });
        self
    }

    /// Adds a [`Fault::DropAck`] to the plan.
    #[must_use]
    pub fn drop_ack(mut self, worker: usize, incarnation: u32, ordinal: u64) -> Self {
        self.faults.push(Fault::DropAck { worker, incarnation, ordinal });
        self
    }

    /// Adds a [`Fault::SleepPerEvent`] to the plan.
    #[must_use]
    pub fn sleep_per_event(mut self, worker: usize, incarnation: u32, millis: u64) -> Self {
        self.faults.push(Fault::SleepPerEvent { worker, incarnation, millis });
        self
    }

    /// Adds a [`Fault::CorruptCheckpoint`] to the plan.
    #[must_use]
    pub fn corrupt_checkpoint(mut self, worker: usize, ordinal: u64) -> Self {
        self.faults.push(Fault::CorruptCheckpoint { worker, ordinal });
        self
    }

    /// Whether the plan contains no faults at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled faults, in insertion order.
    #[must_use]
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The `--fault` command-line arguments to arm in worker `worker`'s
    /// incarnation `incarnation` at spawn time.
    #[must_use]
    pub fn worker_args(&self, worker: usize, incarnation: u32) -> Vec<String> {
        let mut args = Vec::new();
        for fault in &self.faults {
            match *fault {
                Fault::KillAfterEvents { worker: w, incarnation: i, events }
                    if w == worker && i == incarnation =>
                {
                    args.push("--fault".to_owned());
                    args.push(format!("kill-after-events={events}"));
                }
                Fault::StallBeforeAck { worker: w, incarnation: i, events, millis }
                    if w == worker && i == incarnation =>
                {
                    args.push("--fault".to_owned());
                    args.push(format!("stall-before-ack={events}:{millis}"));
                }
                Fault::DropAck { worker: w, incarnation: i, ordinal }
                    if w == worker && i == incarnation =>
                {
                    args.push("--fault".to_owned());
                    args.push(format!("drop-ack={ordinal}"));
                }
                Fault::SleepPerEvent { worker: w, incarnation: i, millis }
                    if w == worker && i == incarnation =>
                {
                    args.push("--fault".to_owned());
                    args.push(format!("sleep-per-event={millis}"));
                }
                _ => {}
            }
        }
        args
    }

    /// Whether the supervisor should corrupt worker `worker`'s checkpoint
    /// file after its `ordinal`-th successful checkpoint.
    #[must_use]
    pub fn corrupts_checkpoint(&self, worker: usize, ordinal: u64) -> bool {
        self.faults.iter().any(|fault| {
            matches!(*fault, Fault::CorruptCheckpoint { worker: w, ordinal: o }
                if w == worker && o == ordinal)
        })
    }
}

/// The process-local fault switches a `privacy-shardd` incarnation runs
/// with, parsed from repeated `--fault SPEC` arguments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerFaults {
    /// Exit with [`INJECTED_FAULT`](crate::exit::INJECTED_FAULT) once this
    /// many events have been ingested.
    pub kill_after_events: Option<u64>,
    /// `(events, millis)`: one-shot sleep before the next ack once `events`
    /// events have been ingested.
    pub stall_before_ack: Option<(u64, u64)>,
    /// Swallow the ack of this 1-based ingest ordinal.
    pub drop_ack: Option<u64>,
    /// Sleep this many milliseconds after every ingested event.
    pub sleep_per_event: Option<u64>,
}

impl WorkerFaults {
    /// Parses one `--fault` SPEC (`kill-after-events=N`,
    /// `stall-before-ack=N:MS`, `drop-ack=B`, `sleep-per-event=MS`) into the
    /// switch set.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem when the spec is unknown or its
    /// numeric payload does not parse.
    pub fn parse_arg(&mut self, spec: &str) -> Result<(), String> {
        let (name, value) = spec
            .split_once('=')
            .ok_or_else(|| format!("fault spec `{spec}` is missing `=value`"))?;
        let parse = |v: &str| {
            v.parse::<u64>().map_err(|_| format!("fault spec `{spec}`: `{v}` is not a number"))
        };
        match name {
            "kill-after-events" => self.kill_after_events = Some(parse(value)?),
            "stall-before-ack" => {
                let (events, millis) = value
                    .split_once(':')
                    .ok_or_else(|| format!("fault spec `{spec}` wants EVENTS:MILLIS"))?;
                self.stall_before_ack = Some((parse(events)?, parse(millis)?));
            }
            "drop-ack" => self.drop_ack = Some(parse(value)?),
            "sleep-per-event" => self.sleep_per_event = Some(parse(value)?),
            other => return Err(format!("unknown fault `{other}`")),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_args_select_by_worker_and_incarnation() {
        let plan = FaultPlan::none()
            .kill_after(0, 0, 40)
            .kill_after(0, 1, 90)
            .stall(1, 0, 10, 250)
            .drop_ack(1, 0, 3)
            .corrupt_checkpoint(0, 1);
        assert_eq!(plan.worker_args(0, 0), vec!["--fault", "kill-after-events=40"]);
        assert_eq!(plan.worker_args(0, 1), vec!["--fault", "kill-after-events=90"]);
        assert_eq!(
            plan.worker_args(1, 0),
            vec!["--fault", "stall-before-ack=10:250", "--fault", "drop-ack=3"]
        );
        assert!(plan.worker_args(1, 1).is_empty());
        assert!(plan.corrupts_checkpoint(0, 1));
        assert!(!plan.corrupts_checkpoint(0, 2));
        assert!(!plan.corrupts_checkpoint(1, 1));
    }

    #[test]
    fn worker_faults_round_trip_through_arg_parsing() {
        let plan = FaultPlan::none()
            .kill_after(2, 3, 7)
            .stall(2, 3, 5, 111)
            .drop_ack(2, 3, 2)
            .sleep_per_event(2, 3, 9);
        let args = plan.worker_args(2, 3);
        let mut faults = WorkerFaults::default();
        for pair in args.chunks(2) {
            assert_eq!(pair[0], "--fault");
            faults.parse_arg(&pair[1]).expect("spec parses");
        }
        assert_eq!(faults.kill_after_events, Some(7));
        assert_eq!(faults.stall_before_ack, Some((5, 111)));
        assert_eq!(faults.drop_ack, Some(2));
        assert_eq!(faults.sleep_per_event, Some(9));
    }

    #[test]
    fn bad_fault_specs_are_rejected_with_reasons() {
        let mut faults = WorkerFaults::default();
        assert!(faults.parse_arg("kill-after-events").unwrap_err().contains("missing"));
        assert!(faults.parse_arg("kill-after-events=abc").unwrap_err().contains("not a number"));
        assert!(faults.parse_arg("stall-before-ack=5").unwrap_err().contains("EVENTS:MILLIS"));
        assert!(faults.parse_arg("explode=1").unwrap_err().contains("unknown fault"));
    }
}
